"""The fleet worker: pull leases over a socket, run them locally.

``yinyang worker --connect HOST:PORT`` runs :func:`run_worker`: connect
to a coordinator, receive the campaign's frozen
:class:`~repro.core.config.CampaignSpec` (and the telemetry config)
once, adopt this process as a campaign worker via
``install_worker_state``, then loop — ``ready`` → ``lease`` → run →
``result``. Every process campaign runs its leases here, whether the
coordinator spawned this worker or it was started by hand.
A worker that cannot set itself up from the spec frame says why in an
``error`` frame and exits, so the coordinator can stop the campaign
instead of respawning a worker that can only fail again.

A lease runs through :func:`repro.core.parallel.run_worker_task`, the
same cell loop a serial campaign runs, which owns sessions, triage,
containment rlimits and crash-safe progress checkpoints. This module
moves frames and supplies the loop's per-iteration hook
(:func:`_lease_hook`): a ``beat`` frame when the supervisor watches for
hangs, then planned process chaos. A worker computing iteration
``i`` is a pure function of ``(strategy, seed, i)``, whichever worker
it is, which is why journals are byte-identical across fleet shapes.
The progress checkpoints are also what a resumed campaign replays:
the worker that runs a re-leased shard reads the log earlier workers
wrote.

Same-host note: progress checkpoints are paths on the *coordinator's*
filesystem, so a worker on another host would leave them where no
resume can find them; the fleet assumes workers share that filesystem
(localhost, or a shared mount). Everything else, beats included,
crosses the wire.
"""

from __future__ import annotations

import os
import runpy
import socket
import sys
import time
import types

from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Disconnected,
    FrameStream,
    ProtocolError,
    parse_address,
    task_from_wire,
    unpack_blob,
)
from repro.robustness.containment import classify_exception


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


#: True while this worker runs the coordinator's main script (see
#: :func:`_load_main`); :class:`~repro.distributed.endpoint.TcpFleet`
#: refuses to start then.
loading_main = False


def _load_main(path):
    """Load the coordinator's main script as ``__mp_main__``.

    Mirrors multiprocessing spawn: a spec naming objects defined in the
    coordinator's ``__main__`` (a solver factory in a script) pickles
    them as ``__main__.<name>``, so that module must be the script here
    too. Scripts guard their entry point with ``if __name__ ==
    "__main__"``, so loading one runs only its definitions. A script
    that starts a campaign unguarded would start a fleet in every
    worker, and each of its workers another; the fleet refuses while
    ``loading_main`` is set, so the worker reports a setup error.
    """
    global loading_main
    if getattr(sys.modules["__main__"], "__file__", None) == path:
        return
    main = types.ModuleType("__mp_main__")
    loading_main = True
    try:
        main.__dict__.update(runpy.run_path(path, run_name="__mp_main__"))
    finally:
        loading_main = False
    sys.modules["__main__"] = sys.modules["__mp_main__"] = main


def run_worker(address, connect_timeout=30.0):
    """Serve one coordinator until it shuts the fleet down; return exit code.

    ``address`` is ``HOST:PORT`` (or a ``(host, port)`` pair); the
    spec frame carries the campaign's network fault plan, if any. A
    coordinator that disappears without a ``shutdown`` frame is
    treated as normal teardown — the worker exits 0 rather than paging
    anyone about a campaign that is simply over. A spec frame this worker cannot set itself up from is
    reported to the coordinator, and the worker exits 1.
    """
    host, port = parse_address(address) if isinstance(address, str) else address
    sock = _connect(host, port, connect_timeout)
    stream = FrameStream(sock)
    try:
        stream.send(
            {
                "type": "hello",
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
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
        from repro.core.parallel import install_worker_state

        try:
            if message.get("main_path"):
                _load_main(message["main_path"])
            spec = unpack_blob(message["blob"])
            if spec.net_chaos is not None:
                stream.chaos = spec.net_chaos.bind(message.get("worker_index", 0))
            install_worker_state(spec, telemetry=unpack_blob(message["telemetry"]))
        except Exception as exc:
            stream.send(
                {
                    "type": "error",
                    "pid": os.getpid(),
                    "lease_id": None,
                    "classification": classify_exception(exc),
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
            return 1
        return _serve(stream, spec)
    finally:
        stream.close()


def _lease_hook(stream, spec, task):
    """The per-iteration hook of one lease, in its fixed order.

    1. A ``beat`` frame, only when the supervisor watches for hangs:
       it is what tells a slow iteration from a hung one.
    2. The planned process fault (``spec.chaos_process``), after the
       beat so a death at this iteration is attributable, and before
       the iteration runs, so its work is never half-done.
    """
    supervise = spec.supervise
    beat = supervise is not None and supervise.heartbeat_timeout is not None
    chaos = spec.chaos_process

    def hook(index):
        if beat:
            stream.send(
                {
                    "type": "beat",
                    "lease_id": task.lease_id,
                    "attempt": task.attempt,
                    "i": index,
                }
            )
        if chaos is not None:
            chaos.fire(index, task.attempt)

    return hook


def _serve(stream, spec):
    """Pull and run leases until a ``shutdown`` frame. A coordinator
    that disconnects — it is gone, or it dropped this worker as hung —
    ends the loop with exit code 0."""
    from repro.core.parallel import run_worker_task

    pid = os.getpid()
    try:
        while True:
            stream.send({"type": "ready", "pid": pid})
            message = stream.recv()
            kind = message.get("type")
            if kind == "shutdown":
                return 0
            if kind != "lease":
                raise ProtocolError(f"unexpected frame from coordinator: {kind!r}")
            task = task_from_wire(message["task"])
            # Best-effort progress note — the one frame kind NetChaos may
            # drop, precisely because nothing downstream depends on it.
            stream.send(
                {
                    "type": "status",
                    "pid": pid,
                    "lease_id": task.lease_id,
                    "event": "start",
                }
            )
            try:
                payload = run_worker_task(task, _lease_hook(stream, spec, task))
            except Disconnected:
                raise
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
    except Disconnected:
        return 0
