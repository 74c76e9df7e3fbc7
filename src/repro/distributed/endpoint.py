"""The coordinator's side of the fleet transport: :class:`TcpFleet`.

A :class:`TcpFleet` is the one lease backend of the
:class:`~repro.robustness.supervisor.Supervisor` (``submit`` /
``respawn`` / ``kill_hung`` / ``broken_exceptions``): its workers are
separate Python processes on sockets. It listens on a TCP address,
handshakes each connecting ``yinyang worker``, and schedules leases by
**pull-based work stealing**: a worker that wants work sends
``ready``; the fleet hands it a pending lease chosen by a seeded RNG.
Distinct ``steal_seed`` values produce distinct assignment
interleavings — which worker ran which shard in which order — and the
determinism matrix asserts the merged journal cannot tell them apart.
By default a ``process`` campaign's fleet listens on 127.0.0.1 and
spawns its ``workers`` itself; it may also listen elsewhere and serve
workers started by hand.

Failure vocabulary (the part that keeps supervision honest):

- A **worker death** fails only *that worker's in-flight lease*, with
  :class:`WorkerDisconnected` naming the death (see ``_death_of``). It
  is an ordinary lease failure — retry with backoff, then bisection —
  never a fleet-wide one: re-running leases still healthily in flight
  elsewhere would only waste their work. The fleet quietly respawns
  the lost worker (when it was one we spawned) so capacity recovers
  without the supervisor's involvement.
- :class:`FleetBroken` is reserved for *the whole fleet* becoming
  unusable (every spawned worker gone past the respawn budget): then
  every pending and in-flight lease fails with it, the supervisor's
  ``_recover`` path calls :meth:`TcpFleet.respawn`, and the campaign
  restarts its capacity under the usual ``max_worker_restarts`` cap.
- A worker that cannot set itself up from its spec frame reports
  why, and every lease fails with
  :class:`~repro.errors.WorkerSetupError`: the campaign stops at once
  instead of respawning workers that can only fail again.
- A **hung worker** is found on the wire: the reader thread stamps a
  connection whenever a lease is dispatched to it and whenever its
  ``beat`` frame arrives, and :meth:`TcpFleet.kill_hung` ends every
  lease silent past the supervisor's timeout as ``hang-kill``. A
  worker the fleet spawned is killed through its ``Popen``; a worker
  started by hand is never signalled (its pid may name a process on
  another host), only disconnected.

Same-host note: lease progress logs assume workers share the
coordinator's filesystem (localhost or a mount) — see
:mod:`repro.distributed.worker`.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from random import Random

from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Disconnected,
    FrameStream,
    ProtocolError,
    pack_blob,
    task_to_wire,
)
from repro.errors import ReproError, WorkerSetupError
from repro.robustness.containment import HANG_KILL, classify_exit

#: The classification of a lease whose worker's connection dropped with
#: no exit code to read (a worker started elsewhere, or one that lived on).
NET_DISCONNECT = "net-disconnect"

#: Single lost workers the fleet replaces itself between two whole-fleet
#: respawns; past it, losing the last worker breaks the fleet.
MAX_WORKER_RESPAWNS = 16


class FleetBroken(ReproError):
    """The whole fleet is gone — the supervisor should respawn it."""


class RemoteLeaseError(ReproError):
    """A lease failed on a remote worker; ``classification`` names how.
    Raised as is when the worker survived an in-process failure."""

    def __init__(self, message, classification):
        super().__init__(message)
        self.classification = classification


class WorkerDisconnected(RemoteLeaseError):
    """The lease's worker died, or its connection dropped, mid-lease."""


class _Remote:
    """One connected worker, as the coordinator sees it."""

    def __init__(self, stream, pid, index):
        self.stream = stream
        self.pid = pid
        self.index = index
        self.alive = True
        self.current = None  # (task, future) while a lease is in flight
        self.beat = 0.0  # time.monotonic() of the last dispatch or beat frame
        self.hang_killed = False


class TcpFleet:
    """A supervisable lease backend over a socket worker fleet.

    The fleet's shape comes from the campaign ``spec``: it listens on
    ``spec.listen`` (default 127.0.0.1, an ephemeral port) and starts
    ``spec.spawn_workers`` local ``yinyang worker`` processes against
    it (default ``spec.workers``, a self-contained fleet; 0 serves only
    externally-started workers, the two-terminal setup). Every worker
    receives the spec (net chaos plan included) and the ``telemetry``
    config in its spec frame; a worker the fleet spawned also receives
    the path of this process's main script (see
    :func:`~repro.distributed.worker._load_main`). With ``telemetry``
    the fleet also counts its wire (``fleet.*`` counters). The fleet is
    a context manager and teardown is idempotent — ``close`` may be
    called any number of times, including after a failed construction.
    """

    broken_exceptions = (FleetBroken,)

    def __init__(self, spec, telemetry=None):
        from repro.distributed import worker

        if worker.loading_main:
            raise RuntimeError(
                "a campaign was started while a fleet worker loaded the "
                "coordinator's main script; guard the script's entry point "
                'with `if __name__ == "__main__":`'
            )
        self.spec = spec
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._queue = []  # [(task, future)] — pending leases, steal pool
        self._ready = deque()  # _Remote instances asking for work
        self._inflight = {}  # lease_id -> (_Remote, future)
        self._remotes = {}  # worker index -> _Remote
        self._procs = {}  # pid -> Popen (workers we spawned)
        self._threads = []
        self._next_index = 0
        self._respawns = 0
        self._closed = False
        self._failed = None  # the error every new lease fails with
        main = sys.modules.get("__main__")
        main_path = getattr(main, "__file__", None)
        self._main_path = os.path.abspath(main_path) if main_path else None
        # One RNG for the whole campaign's steal decisions: the seed
        # names an interleaving family, and the determinism matrix runs
        # several seeds to prove journals are interleaving-blind.
        self._steal_rng = Random(f"fleet-steal:{spec.steal_seed}")
        host, port = spec.listen or ("127.0.0.1", 0)
        try:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(max(8, 2 * spec.workers))
            self.address = self._listener.getsockname()
            accept = threading.Thread(
                target=self._accept_loop, name="fleet-accept", daemon=True
            )
            accept.start()
            self._threads.append(accept)
            target = spec.spawn_workers
            self._spawn_target = spec.workers if target is None else target
            for _ in range(self._spawn_target):
                self._spawn_one()
        except BaseException:
            self.close()
            raise

    # -- the supervisor-facing surface -----------------------------------

    def submit(self, task):
        if task.lease_id is None:
            raise ValueError(
                "TcpFleet only runs supervised leases (lease_id is stamped "
                "by the Supervisor); submit shards through a Supervisor"
            )
        with self._lock:
            if self._closed:
                raise FleetBroken("the fleet is closed")
            if self._failed is not None:
                raise self._failed
            future = Future()
            self._queue.append((task, future))
            self._count("fleet.leases")
            self._dispatch_locked()
        return future

    def respawn(self):
        """Tear down every spawned worker; stand up a fresh fleet."""
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
            remotes = list(self._remotes.values())
            self._remotes.clear()
            self._ready.clear()
            self._failed = None
            self._respawns = 0
        for remote in remotes:
            remote.alive = False
            remote.stream.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._count("fleet.respawns")
        for _ in range(self._spawn_target):
            self._spawn_one()

    def kill_hung(self, timeout):
        """End every lease silent for more than ``timeout`` seconds as
        ``hang-kill``; return how many workers that took.

        Silence runs from the lease's dispatch or its worker's last
        ``beat`` frame. A worker this fleet spawned is SIGKILLed through
        its ``Popen``, and its lease fails when its connection drops. A
        worker started by hand is never signalled, since its pid may
        name a process on another host: its connection is dropped,
        which fails its lease at once.
        """
        now = time.monotonic()
        with self._lock:
            hung = [
                remote
                for remote, _future in self._inflight.values()
                if remote.alive
                and not remote.hang_killed
                and now - remote.beat > timeout
            ]
            for remote in hung:
                remote.hang_killed = True
            procs = [self._procs.get(remote.pid) for remote in hung]
        for remote, proc in zip(hung, procs):
            if proc is not None:
                proc.kill()
            else:
                self._drop(remote)
        return len(hung)

    def close(self):
        """Idempotent, exception-safe teardown (satellite of PR 9)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            remotes = list(self._remotes.values())
            self._remotes.clear()
            self._ready.clear()
            pending = [entry for entry in self._queue]
            self._queue.clear()
            inflight = list(self._inflight.values())
            self._inflight.clear()
            procs = dict(self._procs)
            self._procs.clear()
        listener = getattr(self, "_listener", None)
        if listener is not None:
            # Shut down first: a bare close leaves the socket listening
            # while the accept thread is still blocked on it.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        for _task, future in pending:
            future.cancel()
        for _remote, future in inflight:
            if not future.done():
                future.set_exception(FleetBroken("fleet closed mid-lease"))
        for remote in remotes:
            remote.alive = False
            try:
                remote.stream.send({"type": "shutdown"})
            except Disconnected:
                pass
            remote.stream.close()
        connected = {remote.pid for remote in remotes}
        for pid, proc in procs.items():
            if pid not in connected:
                # Still starting (a respawn): no shutdown frame can
                # reach it, and it would dial the closed listener
                # until its connect timeout.
                proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- spawning local workers ------------------------------------------

    def _spawn_one(self):
        host, port = self.address
        env = dict(os.environ)
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        # Ship the coordinator's import path, exactly as multiprocessing
        # spawn does: the spec blob may reference campaign objects (solver
        # factories, policies) defined in modules only the parent's
        # sys.path can resolve. Externally-started workers must arrange
        # their own path instead.
        paths = dict.fromkeys([src] + [p for p in sys.path if p])
        if env.get("PYTHONPATH"):
            paths.update(dict.fromkeys(env["PYTHONPATH"].split(os.pathsep)))
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # Registered under the lock it was started in, so the worker's
        # hello always finds its pid among the fleet's own workers.
        with self._lock:
            if self._closed:
                return
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "worker",
                    "--connect",
                    f"{host}:{port}",
                ],
                env=env,
            )
            self._procs[proc.pid] = proc

    # -- the wire side ----------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: fleet teardown
            thread = threading.Thread(
                target=self._serve, args=(conn,), name="fleet-conn", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn):
        stream = FrameStream(conn)
        try:
            hello = stream.recv()
        except (Disconnected, ProtocolError):
            stream.close()
            return
        if hello.get("type") != "hello" or hello.get("protocol") != PROTOCOL_VERSION:
            stream.close()
            return
        with self._lock:
            if self._closed:
                remote = None
            else:
                index = self._next_index
                self._next_index += 1
                remote = _Remote(stream, pid=hello.get("pid"), index=index)
                self._remotes[index] = remote
                spawned = remote.pid in self._procs
        if remote is None:
            stream.close()
            return
        try:
            stream.send(
                {
                    "type": "spec",
                    "blob": pack_blob(self.spec),
                    "telemetry": pack_blob(
                        self.telemetry.config() if self.telemetry is not None else None
                    ),
                    "worker_index": remote.index,
                    "main_path": self._main_path if spawned else None,
                }
            )
        except Disconnected:
            self._drop(remote)
            return
        self._count("fleet.connects")
        try:
            while True:
                message = stream.recv()
                self._on_message(remote, message)
        except (Disconnected, ProtocolError):
            self._drop(remote)

    def _on_message(self, remote, message):
        kind = message.get("type")
        if kind == "ready":
            with self._lock:
                if remote.alive and not self._closed:
                    self._ready.append(remote)
                    self._dispatch_locked()
        elif kind == "result":
            with self._lock:
                entry = self._inflight.pop(message.get("lease_id"), None)
                if entry is not None:
                    entry[0].current = None
            if entry is None:
                self._count("fleet.duplicate_results")  # chaos dup, or stale
            else:
                self._count("fleet.results")
                entry[1].set_result(message["payload"])
        elif kind == "error" and message.get("lease_id") is None:
            # The worker could not set itself up from its spec frame;
            # every other worker would fail the same way.
            with self._lock:
                self._fail_all_locked(
                    WorkerSetupError(
                        f"worker pid={remote.pid} could not set up the "
                        f"campaign: {message.get('message')}"
                    )
                )
        elif kind == "error":
            with self._lock:
                entry = self._inflight.pop(message.get("lease_id"), None)
                if entry is not None:
                    entry[0].current = None
            if entry is not None:
                self._count("fleet.lease_errors")
                entry[1].set_exception(
                    RemoteLeaseError(
                        message.get("message", "remote lease failed"),
                        message.get("classification", "worker-error:remote"),
                    )
                )
        elif kind == "beat":
            remote.beat = time.monotonic()
        elif kind == "status":
            self._count("fleet.status_frames")
        # unknown frame kinds are ignored: forward compatibility

    def _dispatch_locked(self):
        """Pair pending leases with ready workers (work stealing)."""
        while self._queue and self._ready:
            remote = self._ready.popleft()
            if not remote.alive:
                continue
            choice = self._steal_rng.randrange(len(self._queue))
            task, future = self._queue.pop(choice)
            if future.done():
                self._ready.appendleft(remote)
                continue
            remote.current = (task, future)
            remote.beat = time.monotonic()
            self._inflight[task.lease_id] = (remote, future)
            try:
                remote.stream.send({"type": "lease", "task": task_to_wire(task)})
            except Disconnected:
                # The worker died between ready and lease: requeue the
                # lease for free (it never started) and drop the worker.
                remote.current = None
                self._inflight.pop(task.lease_id, None)
                self._queue.insert(0, (task, future))
                self._drop_locked(remote)
            else:
                self._count("fleet.steals")

    def _drop(self, remote):
        with self._lock:
            respawn = self._drop_locked(remote)
        if respawn:
            self._count("fleet.worker_respawns")
            self._spawn_one()

    def _drop_locked(self, remote):
        """Handle one worker's departure; return whether to respawn it.

        Idempotent per worker (send-failure and recv-EOF paths can
        race). Fails the worker's in-flight lease — only that lease —
        with the worker's death named, and breaks the whole fleet only
        when the last spawned worker is gone past the respawn budget.
        """
        if not remote.alive:
            return False
        remote.alive = False
        self._remotes.pop(remote.index, None)
        try:
            self._ready.remove(remote)
        except ValueError:
            pass
        remote.stream.close()
        self._count("fleet.disconnects")
        proc = self._procs.pop(remote.pid, None)
        classification = self._death_of(remote, proc)
        current = remote.current
        remote.current = None
        if current is not None:
            task, future = current
            self._inflight.pop(task.lease_id, None)
            if not future.done():
                future.set_exception(
                    WorkerDisconnected(
                        f"worker pid={remote.pid} lost holding lease "
                        f"{task.lease_id} ({classification})",
                        classification,
                    )
                )
        if self._closed or self._failed is not None:
            return False
        if proc is not None and self._respawns < MAX_WORKER_RESPAWNS:
            self._respawns += 1
            return True
        if not self._remotes and not self._procs and self._spawn_target > 0:
            self._fail_all_locked(
                FleetBroken("every fleet worker is gone past the respawn budget")
            )
        return False

    def _death_of(self, remote, proc):
        """Name a lost worker's death: ``hang-kill`` when :meth:`kill_hung`
        ended it, else the exit code of a worker we spawned, else (a
        worker started elsewhere, or one that outlived its connection)
        ``net-disconnect``."""
        code = None
        if proc is not None:
            try:
                code = proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if remote.hang_killed:
            return HANG_KILL
        if code is None:
            return NET_DISCONNECT
        return classify_exit(code, self.spec.containment)

    def _fail_all_locked(self, error):
        """Fail every pending and in-flight lease, and every later
        ``submit``, with ``error`` (until a :meth:`respawn`)."""
        self._failed = error
        failures = [future for _task, future in self._queue]
        self._queue.clear()
        failures.extend(future for _remote, future in self._inflight.values())
        self._inflight.clear()
        for future in failures:
            if not future.done():
                future.set_exception(error)

    def _count(self, name, n=1):
        if self.telemetry is not None:
            self.telemetry.count(name, n)
