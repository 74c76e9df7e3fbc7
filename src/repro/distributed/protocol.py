"""The coordinator/worker wire protocol: length-prefixed message frames.

A frame is ``4-byte big-endian payload length`` + ``payload``, where
the payload is one JSON object encoded as UTF-8. Length-prefix
framing survives arbitrary TCP segmentation: :class:`FrameDecoder`
buffers partial frames and yields complete messages in order, and a truncated tail is
simply *pending*, never mis-decoded. Anything that cannot be a valid
frame — an oversized length, a payload that is not a JSON object —
raises :class:`ProtocolError` instead of guessing.

Message types (the ``type`` key of every frame):

==============  =========================================================
``hello``       worker → coordinator: ``pid``, ``protocol`` version
``spec``        coordinator → worker: the campaign's CampaignSpec and
                telemetry config (sent once), plus the coordinator's
                main script path for workers it spawned itself
``ready``       worker → coordinator: pull request — "I want a lease"
``lease``       coordinator → worker: one ShardTask to run
``result``      worker → coordinator: the lease's payload (one report
                per solver, telemetry snapshot, guard states — all
                JSON-ready)
``error``       worker → coordinator: the lease failed in-process, with
                a death classification the supervisor understands; with
                no ``lease_id``, the worker could not set itself up
                from the spec frame and is exiting
``beat``        worker → coordinator: "lease ``lease_id``, attempt
                ``attempt``, is about to run iteration ``i``" — sent
                before each iteration only when the supervisor watches
                for hangs (a ``heartbeat_timeout``); never dropped
``status``      worker → coordinator: best-effort progress note
                (droppable by design; nothing depends on it)
``shutdown``    coordinator → worker: drain and exit 0
==============  =========================================================

The ``spec`` frame carries the frozen
:class:`~repro.core.config.CampaignSpec`: every campaign constant
(seed, strategy, iterations per cell, shard count, the loop config,
solver factory, resilience and chaos policies), so a ``lease`` frame
carries only what differs per lease (the cell's seeds, the shard and
the lease bookkeeping). Those campaign objects are picklable but not
JSON-able; they cross as a base64 pickle blob inside the JSON
envelope — the trust model of ``multiprocessing`` spawn workers,
which deserialize parent pickles too. A worker should only
ever connect to a coordinator it trusts (they are one campaign, one
security domain); the frame layer itself stays pickle-free so the
fuzz tests can throw arbitrary bytes at it safely.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
import threading
from dataclasses import fields

from repro.errors import ReproError

#: Version 4: a lease is a (family, oracle) cell checked by the solvers
#: it names, and its result carries one report per solver.
PROTOCOL_VERSION = 4

#: Hard ceiling on one frame's payload (64 MiB). Real frames are a few
#: KiB (tasks) to a few MiB (shard reports with bug scripts); anything
#: bigger is a corrupt or hostile length prefix, not a message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(ReproError):
    """The byte stream cannot be a valid frame sequence."""


def _json_encode(message):
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_decode(payload):
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def encode_frame(message):
    """One message as its on-the-wire bytes."""
    payload = _json_encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder: feed bytes, collect complete messages.

    Tolerates any segmentation of the stream (one byte at a time, many
    frames at once) and never yields a message until its full payload
    arrived — ``pending`` reports whether a partial frame is buffered,
    which is how a reader distinguishes "clean end of stream" from "the
    peer died mid-frame".
    """

    def __init__(self):
        self._buffer = bytearray()

    @property
    def pending(self):
        """True when a partial frame is buffered (a torn tail so far)."""
        return len(self._buffer) > 0

    def feed(self, data):
        """Absorb ``data``; return the list of messages it completed."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte ceiling"
                )
            end = _LEN.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_LEN.size:end])
            del self._buffer[:end]
            messages.append(_json_decode(payload))
        return messages


class Disconnected(ReproError):
    """The peer closed the connection (mid-frame when ``torn``)."""

    def __init__(self, message, torn=False):
        super().__init__(message)
        self.torn = torn


class FrameStream:
    """Blocking framed messaging over one connected socket.

    ``send`` is locked (worker threads and chaos hooks may interleave);
    ``recv`` is single-reader by convention. ``chaos`` is an optional
    :class:`~repro.distributed.netchaos.BoundNetChaos` consulted on the
    send path — the seam the network fault injector plugs into.
    """

    def __init__(self, sock, chaos=None):
        self.sock = sock
        self.chaos = chaos
        self._decoder = FrameDecoder()
        self._messages = []
        self._send_lock = threading.Lock()

    def send(self, message):
        if self.chaos is not None and self.chaos.on_send(self, message):
            return  # the fault injector consumed (dropped) the frame
        self._send_raw(message)

    def _send_raw(self, message):
        data = encode_frame(message)
        with self._send_lock:
            try:
                self.sock.sendall(data)
            except OSError as exc:
                raise Disconnected(f"send failed: {exc}") from None

    def recv(self):
        """The next message, blocking; :class:`Disconnected` at EOF."""
        while not self._messages:
            try:
                data = self.sock.recv(65536)
            except OSError as exc:
                raise Disconnected(f"recv failed: {exc}") from None
            if not data:
                raise Disconnected(
                    "peer closed the connection", torn=self._decoder.pending
                )
            self._messages.extend(self._decoder.feed(data))
        return self._messages.pop(0)

    def close(self):
        """Shut the connection down both ways, which wakes a reader
        blocked in :meth:`recv` on another thread, and release it."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already gone
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Wire codecs for campaign objects
# ---------------------------------------------------------------------------


def pack_blob(obj):
    """An arbitrary picklable object as a JSON-safe base64 string."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def unpack_blob(text):
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise ProtocolError(f"undecodable blob: {exc}") from None


def task_to_wire(task):
    """A :class:`~repro.core.parallel.ShardTask` as a JSON-ready dict.

    Every field is a scalar, ``None``, or a tuple of strings or ints;
    tuples flatten to lists on the wire and :func:`task_from_wire`
    restores them (``run_worker_task`` relies on ``cell`` being a tuple
    and ``indices`` supporting ``is None``).
    """
    wire = {}
    for f in fields(task):
        value = getattr(task, f.name)
        wire[f.name] = list(value) if isinstance(value, tuple) else value
    return wire


def task_from_wire(data):
    """The :class:`~repro.core.parallel.ShardTask` of a lease frame.

    Every field must be on the wire: a frame that lacks one is a
    :class:`ProtocolError`, never a default.
    """
    from repro.core.parallel import ShardTask

    try:
        values = {f.name: data[f.name] for f in fields(ShardTask)}
        return ShardTask(
            **{
                name: tuple(value) if isinstance(value, list) else value
                for name, value in values.items()
            }
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed lease frame: {exc}") from None


def parse_address(text):
    """``HOST:PORT`` → ``(host, port)`` (IPv4/hostname spellings)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)
