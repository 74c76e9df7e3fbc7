"""The self-healing campaign coordinator: shard leases under supervision.

A bare process pool gathers futures; one dead worker raises
``BrokenProcessPool`` and the whole campaign dies with it. This module
turns each shard into a **lease** — a unit of work the supervisor
hands to the pool, watches, and takes back when the worker holding it
dies, hangs, raises, or is resource-killed:

- **worker supervision** — a broken pool is respawned (capped by
  ``max_worker_restarts``) and every in-flight lease is recovered;
- **attribution** — a heartbeat side-channel (one tiny file per lease,
  rewritten atomically at each iteration) records which pid ran which
  lease attempt, so the lease whose worker died *abnormally* is
  charged with a retry while innocent bystanders (siblings the
  executor tore down with SIGTERM) are requeued for free;
- **shard-lease recovery** — a re-executed lease resumes from its
  :class:`~repro.robustness.journal.ShardProgress` log, replaying
  completed iterations and re-running only the missing ones, so the
  merged journal stays byte-identical to a failure-free run;
- **hang recovery** — a lease whose heartbeat goes stale past
  ``heartbeat_timeout`` has its worker SIGKILLed; the death is
  classified ``hang-kill`` and the normal requeue machinery takes over;
- **poison quarantine** — a lease that dies past ``max_shard_retries``
  is *bisected*: its iteration range splits in half and the halves are
  re-leased, recursively, until the killer iteration stands alone;
  that iteration is recorded as a quarantined reproduction artifact
  (formula text, strategy, seed, rlimits, death classification)
  instead of failing the campaign.

The supervisor is backend-agnostic: anything with ``submit`` /
``respawn`` / ``kill_worker`` / ``heartbeat_dir`` /
``broken_exceptions`` drives it, which is what makes the retry and
bisection logic unit-testable without spawning a single process (see
``tests/test_supervisor.py``). The real process backend is
:class:`~repro.core.parallel.SupervisedPoolBackend`.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.robustness.containment import (
    HANG_KILL,
    classify_exception,
    classify_exit,
    is_teardown_exit,
)


class SupervisionExhausted(ReproError):
    """The worker fleet kept dying past ``max_worker_restarts``.

    This is the supervisor giving up on the *environment*, not on a
    shard: when respawned pools die faster than leases complete, the
    host itself is hosed and retrying forever would only hide it.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the coordinator treats dying workers and their leases.

    - ``max_worker_restarts`` — pool respawns allowed per campaign
      before :class:`SupervisionExhausted`;
    - ``max_shard_retries`` — re-executions of one lease before its
      range is bisected (0 = bisect on first death: fastest isolation
      when deaths are expected to be deterministic);
    - ``backoff_base`` / ``backoff_cap`` — capped exponential backoff
      before a retried lease is resubmitted;
    - ``heartbeat_timeout`` — seconds without a heartbeat before a
      worker is presumed hung and SIGKILLed (``None`` disables hang
      detection; must comfortably exceed the slowest legitimate
      iteration);
    - ``poll_interval`` — how often the supervisor wakes to sweep
      heartbeats while futures are pending;
    - ``sleep`` — injection point for the backoff sleeper (tests pass
      a no-op; parent-side only, never pickled to workers).
    """

    max_worker_restarts: int = 8
    max_shard_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    heartbeat_timeout: float | None = None
    poll_interval: float = 0.25
    sleep: object = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def backoff(self, attempt):
        """Backoff delay before re-leasing attempt ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2**attempt))


@dataclass
class ShardLease:
    """One leased unit of shard work: a task plus its retry state.

    ``key`` groups the lease's payload with its siblings for result
    assembly (bisection splits one shard into several leases that all
    share the parent's key). ``indices`` is the concrete tuple of
    global iteration ids the lease covers — the thing bisection halves.
    """

    lease_id: int
    key: object
    task: object  # a ShardTask template (re-stamped per attempt)
    indices: tuple
    attempt: int = 0
    last_classification: str | None = None


@dataclass
class PoisonedIteration:
    """A quarantined reproduction artifact for one killer iteration."""

    cell: tuple | None
    iteration: int
    classification: str
    attempts: int
    strategy: str
    seed: int
    oracle: str
    script: str | None = None
    rlimits: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "iteration": self.iteration,
            "classification": self.classification,
            "attempts": self.attempts,
            "strategy": self.strategy,
            "seed": self.seed,
            "script": self.script,
            "rlimits": dict(self.rlimits),
        }


# ---------------------------------------------------------------------------
# The heartbeat side-channel
# ---------------------------------------------------------------------------


def heartbeat_path(directory, lease_id):
    return os.path.join(os.fspath(directory), f"lease-{lease_id}.hb")


def write_heartbeat(directory, lease_id, pid, attempt, index):
    """Record 'pid is executing iteration index of lease attempt' (worker).

    Written via tmp + atomic rename so the parent never reads a torn
    record; wall-clock ``ts`` is comparable across processes (both
    sides use ``time.time()`` on the same host).
    """
    path = heartbeat_path(directory, lease_id)
    tmp = f"{path}.{pid}.tmp"
    record = {"pid": pid, "attempt": attempt, "i": index, "ts": time.time()}
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)
    except OSError:
        pass  # heartbeats are best-effort; a miss only delays detection


def read_heartbeat(directory, lease_id):
    """The latest heartbeat of a lease, or None (parent side)."""
    try:
        with open(heartbeat_path(directory, lease_id), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class Supervisor:
    """Runs shard leases to completion over a respawnable pool backend.

    ``backend`` must provide:

    - ``submit(task) -> Future`` — hand a stamped task to the pool;
    - ``respawn() -> {pid: exitcode}`` — tear down the broken pool,
      start a fresh one, and report how the old workers exited;
    - ``kill_worker(pid)`` — SIGKILL one worker (hang recovery);
    - ``heartbeat_dir`` — where workers write heartbeat files
      (``None`` disables the side-channel);
    - ``broken_exceptions`` — exception types meaning "the pool died"
      (``BrokenProcessPool`` for the real backend).

    ``spec`` is the campaign's :class:`~repro.core.config.CampaignSpec`:
    the supervisor runs under its ``supervise`` policy (``None``: the
    default :class:`SupervisorPolicy`), consults its ``containment``
    only for death classification (applying the rlimits is the
    worker's job), and names its strategy and seed in every poison
    record.
    ``poison_artifact(task, index)`` optionally reconstructs the killer
    iteration's formula text for the quarantine record;
    ``on_poison(record)`` lets the campaign journal it durably the
    moment it is isolated. One supervisor instance spans a whole
    campaign, so the restart budget and counters are campaign-global.
    """

    def __init__(
        self,
        backend,
        spec,
        telemetry=None,
        poison_artifact=None,
        on_poison=None,
    ):
        self.backend = backend
        self.spec = spec
        self.policy = spec.supervise or SupervisorPolicy()
        self.containment = spec.containment
        self.telemetry = telemetry
        self.poison_artifact = poison_artifact
        self.on_poison = on_poison
        self.poisoned = []
        self.counters = {
            "restarts": 0,
            "retries": 0,
            "requeues": 0,
            "heartbeat_kills": 0,
            "bisections": 0,
            "poisoned": 0,
        }
        self._next_lease_id = 0
        self._killed_pids = set()

    # -- bookkeeping -----------------------------------------------------

    def _count(self, key, n=1):
        self.counters[key] += n
        if self.telemetry is not None:
            self.telemetry.count("supervisor." + key, n)

    def new_lease_id(self):
        self._next_lease_id += 1
        return self._next_lease_id

    def lease(self, key, task, indices):
        """Build a root lease for one full shard."""
        return ShardLease(
            lease_id=self.new_lease_id(), key=key, task=task, indices=tuple(indices)
        )

    # -- the supervision loop --------------------------------------------

    def run(self, leases):
        """Run ``leases`` to completion; return {key: [(lease, payload)]}.

        Poisoned iterations produce no payload — they are recorded on
        ``self.poisoned`` (and via ``on_poison``) instead.
        """
        pending = deque(leases)
        inflight = {}
        results = {}
        while pending or inflight:
            self._fill(pending, inflight)
            if not inflight:
                continue
            timeout = (
                self.policy.poll_interval
                if self.policy.heartbeat_timeout is not None
                else None
            )
            done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                self._sweep_heartbeats(inflight)
                continue
            broken = []
            for future in done:
                lease = inflight.pop(future)
                try:
                    payload = future.result()
                except self.backend.broken_exceptions:
                    broken.append(lease)
                except Exception as exc:
                    # The worker survived but the lease failed in-process:
                    # resource containment (MemoryError under RLIMIT_AS)
                    # or an unexpected worker-side error. Same retry path.
                    # Exceptions that already know their classification
                    # (remote lease failures, worker disconnects — the
                    # distributed backend attaches one) keep it; the
                    # local classifier is the fallback.
                    classification = getattr(exc, "classification", None)
                    if not isinstance(classification, str):
                        classification = classify_exception(exc, self.containment)
                    self._failure(lease, classification, pending)
                else:
                    results.setdefault(lease.key, []).append((lease, payload))
            if broken:
                self._recover(broken, inflight, pending)
        return results

    def _fill(self, pending, inflight):
        while pending:
            lease = pending.popleft()
            task = replace(
                lease.task,
                lease_id=lease.lease_id,
                attempt=lease.attempt,
                heartbeat_dir=self.backend.heartbeat_dir,
            )
            try:
                future = self.backend.submit(task)
            except self.backend.broken_exceptions:
                # The pool broke between our last wait and this submit:
                # recover everything, then keep filling the fresh pool.
                pending.appendleft(lease)
                self._recover([], inflight, pending)
                continue
            inflight[future] = lease

    def _recover(self, broken, inflight, pending):
        """The pool died: respawn it and recover every in-flight lease."""
        broken = list(broken) + list(inflight.values())
        inflight.clear()
        dead = self.backend.respawn()
        self._count("restarts")
        if self.counters["restarts"] > self.policy.max_worker_restarts:
            raise SupervisionExhausted(
                f"worker pool died {self.counters['restarts']} times "
                f"(max_worker_restarts={self.policy.max_worker_restarts}); "
                "the environment looks unrecoverable"
            )
        abnormal = {
            pid: code for pid, code in dead.items() if not is_teardown_exit(code)
        }
        for lease in broken:
            pid = self._holder(lease)
            if pid is not None and pid in abnormal:
                if pid in self._killed_pids:
                    classification = HANG_KILL
                else:
                    classification = classify_exit(abnormal[pid], self.containment)
                self._failure(lease, classification, pending)
            else:
                # Teardown collateral or never started: requeue for free.
                self._count("requeues")
                pending.append(lease)

    def _holder(self, lease):
        """The pid that ran this lease attempt, per the heartbeat channel."""
        directory = self.backend.heartbeat_dir
        if directory is None:
            return None
        record = read_heartbeat(directory, lease.lease_id)
        if record is None or record.get("attempt") != lease.attempt:
            return None
        return record.get("pid")

    def _sweep_heartbeats(self, inflight):
        timeout = self.policy.heartbeat_timeout
        directory = self.backend.heartbeat_dir
        if timeout is None or directory is None:
            return
        now = time.time()
        for lease in inflight.values():
            record = read_heartbeat(directory, lease.lease_id)
            if record is None or record.get("attempt") != lease.attempt:
                continue
            if now - record.get("ts", now) <= timeout:
                continue
            pid = record.get("pid")
            if pid is None or pid in self._killed_pids:
                continue
            self._killed_pids.add(pid)
            self._count("heartbeat_kills")
            self.backend.kill_worker(pid)

    # -- retries, bisection, poison --------------------------------------

    def _failure(self, lease, classification, pending):
        lease.attempt += 1
        lease.last_classification = classification
        self._count("retries")
        if lease.attempt <= self.policy.max_shard_retries:
            self.policy.sleep(self.policy.backoff(lease.attempt - 1))
            pending.append(lease)
            return
        if len(lease.indices) > 1:
            self._count("bisections")
            mid = len(lease.indices) // 2
            for half in (lease.indices[:mid], lease.indices[mid:]):
                pending.append(
                    ShardLease(
                        lease_id=self.new_lease_id(),
                        key=lease.key,
                        task=replace(lease.task, indices=tuple(half)),
                        indices=tuple(half),
                    )
                )
            return
        self._poison(lease)

    def _poison(self, lease):
        """A single iteration that dies past the retry cap: quarantine it."""
        self._count("poisoned")
        task = lease.task
        index = lease.indices[0]
        script = None
        if self.poison_artifact is not None:
            try:
                script = self.poison_artifact(task, index)
            except Exception:
                script = None  # the artifact is best-effort, never fatal
        record = PoisonedIteration(
            cell=getattr(task, "cell", None),
            iteration=index,
            classification=lease.last_classification or "unknown",
            attempts=lease.attempt,
            strategy=self.spec.strategy,
            seed=self.spec.seed,
            oracle=getattr(task, "oracle", ""),
            script=script,
            rlimits=(
                self.containment.describe() if self.containment is not None else {}
            ),
        )
        self.poisoned.append(record)
        if self.on_poison is not None:
            self.on_poison(record)
