"""The fleet worker: pull leases over a socket, run them locally.

``yinyang worker --connect HOST:PORT`` runs :func:`run_worker`: connect
to a coordinator, receive the campaign's frozen
:class:`~repro.core.config.CampaignSpec` (and the telemetry config)
once, adopt this process as a campaign worker via the same
``install_worker_state`` seam the spawn pool uses, then loop —
``ready`` → ``lease`` → run → ``result``.

The crucial property is what this module does *not* reimplement: a
lease runs through :func:`repro.core.parallel.run_worker_task`, the
exact entry point pool workers execute. Sessions, triage, containment
rlimits, heartbeat files, and crash-safe progress checkpoints all work
unchanged; the socket replaces pickling-over-pipes, nothing else. That
is why the fleet inherits byte-identical journals instead of having to
re-prove them: a tcp worker computing iteration ``i`` is the same pure
function of ``(strategy, seed, i)`` a pool worker is. The progress
checkpoints are also what a resumed tcp campaign replays: the worker
that runs a re-leased shard reads the log earlier workers wrote.

Same-host note: heartbeat files and progress checkpoints are paths on
the *coordinator's* filesystem, so today's fleet assumes workers share
that filesystem (localhost, or a shared mount); a worker on another
host would leave its checkpoints where no resume can find them. True
cross-host heartbeats belong on the wire and are future work;
everything else already crosses it.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import replace

from repro.distributed.netchaos import DISCONNECT, DISCONNECT_EXIT
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Disconnected,
    FrameStream,
    ProtocolError,
    available_codecs,
    parse_address,
    task_from_wire,
    unpack_blob,
)
from repro.robustness.containment import classify_exception


class _WireChaos:
    """Composes planned network disconnects over an optional process plan.

    Installed as the worker state's ``chaos_process`` so disconnects
    fire at exactly the same point in the iteration loop process-level
    faults do: after the heartbeat (the death is attributable), before
    the iteration runs (the iteration's work is never half-done).
    ``os._exit`` skips interpreter teardown on purpose — a partitioned
    peer does not get to flush buffers or run finalizers either.
    """

    def __init__(self, plan, stream, base=None):
        self.plan = plan
        self.stream = stream
        self.base = base

    def fire(self, index, attempt):
        if self.base is not None:
            self.base.fire(index, attempt)
        if self.plan.fault_for(index, attempt) == DISCONNECT:
            self.stream.close()
            os._exit(DISCONNECT_EXIT)


def _connect(host, port, timeout, retry_interval=0.2):
    """Keep dialing until the coordinator listens (or ``timeout`` runs out).

    Lets a worker terminal be started before (or just after) the
    coordinator without a race; refused connections are retried,
    anything else propagates.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(retry_interval)
        else:
            sock.settimeout(None)
            return sock


def run_worker(address, net_chaos=None, codec="json", connect_timeout=30.0):
    """Serve one coordinator until it shuts the fleet down; return exit code.

    ``address`` is ``HOST:PORT`` (or a ``(host, port)`` pair);
    ``net_chaos`` optionally overrides the campaign spec's plan (the
    CLI's ``--net-chaos``). A coordinator that disappears
    without a ``shutdown`` frame is treated as normal teardown — the
    worker exits 0 rather than paging anyone about a campaign that is
    simply over.
    """
    host, port = parse_address(address) if isinstance(address, str) else address
    sock = _connect(host, port, connect_timeout)
    stream = FrameStream(sock, codec)
    try:
        stream.send(
            {
                "type": "hello",
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "codecs": list(available_codecs()),
            }
        )
        try:
            message = stream.recv()
        except Disconnected:
            return 0  # coordinator full, or gone before the handshake
        if message.get("type") != "spec":
            raise ProtocolError(
                f"expected a spec frame, got {message.get('type')!r}"
            )
        spec = unpack_blob(message["blob"])
        plan = net_chaos if net_chaos is not None else spec.net_chaos
        if plan is not None:
            stream.chaos = plan.bind(message.get("worker_index", 0))
            spec = replace(
                spec, chaos_process=_WireChaos(plan, stream, spec.chaos_process)
            )
        from repro.core.parallel import install_worker_state, run_worker_task

        install_worker_state(spec, telemetry=unpack_blob(message["telemetry"]))
        return _serve(stream, run_worker_task)
    finally:
        stream.close()


def _serve(stream, run_task):
    pid = os.getpid()
    while True:
        stream.send({"type": "ready", "pid": pid})
        try:
            message = stream.recv()
        except Disconnected:
            return 0
        kind = message.get("type")
        if kind == "shutdown":
            return 0
        if kind != "lease":
            raise ProtocolError(f"unexpected frame from coordinator: {kind!r}")
        task = task_from_wire(message["task"])
        # Best-effort progress note — the one frame kind NetChaos may
        # drop, precisely because nothing downstream depends on it.
        stream.send(
            {"type": "status", "pid": pid, "lease_id": task.lease_id, "event": "start"}
        )
        try:
            payload = run_task(task)
        except Exception as exc:
            # The lease failed in-process but this worker survived:
            # ship the failure with its classification so the
            # coordinator's supervisor can drive the ordinary
            # retry/bisection path without guessing.
            stream.send(
                {
                    "type": "error",
                    "pid": pid,
                    "lease_id": task.lease_id,
                    "classification": classify_exception(exc),
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
        else:
            stream.send(
                {
                    "type": "result",
                    "pid": pid,
                    "lease_id": task.lease_id,
                    "payload": payload,
                }
            )
