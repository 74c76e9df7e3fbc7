"""The self-healing campaign coordinator: shard leases under supervision.

This module turns each shard into a **lease** — a unit of work the
supervisor hands to the worker fleet, watches, and takes back when the
worker holding it dies, hangs, raises, or is resource-killed:

- **lease failure** — the fleet fails exactly the lease a dead worker
  held, with the death's classification (exit code, rlimit kill,
  hang kill, disconnect); the lease is retried with capped backoff;
- **fleet supervision** — a fleet with no capacity left is respawned
  (capped by ``max_worker_restarts``) and the leases that were only
  waiting on it are requeued at no charge;
- **shard-lease recovery** — a re-executed lease resumes from its
  :class:`~repro.robustness.journal.ShardProgress` log, replaying
  completed iterations and re-running only the missing ones, so the
  merged journal stays byte-identical to a failure-free run;
- **hang recovery** — with a ``heartbeat_timeout``, a worker sends a
  ``beat`` frame (lease id, attempt, iteration) over its socket before
  each iteration; a lease silent past the timeout has its worker
  killed (a worker the fleet spawned) or its connection dropped (one
  started by hand), the fleet names that death ``hang-kill``, and the
  normal retry machinery takes over;
- **poison quarantine** — a lease that dies past ``max_shard_retries``
  is *bisected*: its iteration range splits in half and the halves are
  re-leased, recursively, until the killer iteration stands alone;
  that iteration is recorded as a quarantined reproduction artifact
  (formula text, strategy, seed, rlimits, death classification)
  instead of failing the campaign.

The supervisor is backend-agnostic: anything with ``submit`` /
``respawn`` / ``kill_hung`` / ``broken_exceptions`` drives it, which
is what makes the retry and bisection logic unit-testable without
spawning a single process (see
``tests/test_supervisor.py``). The real backend is
:class:`~repro.distributed.endpoint.TcpFleet`.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace

from repro.errors import ReproError, WorkerSetupError
from repro.robustness.containment import classify_exception


class SupervisionExhausted(ReproError):
    """The worker fleet kept dying past ``max_worker_restarts``.

    This is the supervisor giving up on the *environment*, not on a
    shard: when respawned fleets die faster than leases complete, the
    host itself is hosed and retrying forever would only hide it.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the coordinator treats dying workers and their leases.

    - ``max_worker_restarts`` — whole-fleet respawns allowed per
      campaign before :class:`SupervisionExhausted` (the fleet replaces
      single dead workers itself; it breaks only when none is left);
    - ``max_shard_retries`` — re-executions of one lease before its
      range is bisected (0 = bisect on first death: fastest isolation
      when deaths are expected to be deterministic);
    - ``backoff_base`` / ``backoff_cap`` — capped exponential backoff
      before a retried lease is resubmitted;
    - ``heartbeat_timeout`` — seconds a lease may go without a beat
      before its worker is presumed hung and killed (``None`` disables
      hang detection, and workers send no beats; must comfortably
      exceed the slowest legitimate iteration);
    - ``poll_interval`` — how often the supervisor wakes to sweep for
      silent leases while futures are pending;
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
# The supervisor
# ---------------------------------------------------------------------------


class Supervisor:
    """Runs shard leases to completion over a respawnable lease backend.

    ``backend`` must provide:

    - ``submit(task) -> Future`` — hand a stamped task to the fleet;
      a lease whose worker died fails with an exception whose
      ``classification`` names the death;
    - ``respawn()`` — tear down the broken fleet and start a fresh one;
    - ``kill_hung(timeout)`` — kill the worker of every lease silent
      for more than ``timeout`` seconds and return how many (hang
      recovery); the backend fails each such lease as ``hang-kill``;
    - ``broken_exceptions`` — exception types meaning "the whole fleet
      is gone" (:class:`~repro.distributed.endpoint.FleetBroken` for
      the real backend).

    A :class:`~repro.errors.WorkerSetupError` from a lease stops the
    campaign at once: no retry can mend a spec the workers cannot load.

    ``spec`` is the campaign's :class:`~repro.core.config.CampaignSpec`:
    the supervisor runs under its ``supervise`` policy (``None``: the
    default :class:`SupervisorPolicy`), and names its strategy, seed
    and ``containment`` rlimits in every poison record.
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
            hang_timeout = self.policy.heartbeat_timeout
            done, _ = wait(
                set(inflight),
                timeout=None if hang_timeout is None else self.policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            if hang_timeout is not None:
                killed = self.backend.kill_hung(hang_timeout)
                if killed:
                    self._count("heartbeat_kills", killed)
            if not done:
                continue
            broken = []
            for future in done:
                lease = inflight.pop(future)
                try:
                    payload = future.result()
                except self.backend.broken_exceptions:
                    broken.append(lease)
                except WorkerSetupError:
                    raise
                except Exception as exc:
                    # The lease failed: its worker died (the fleet names
                    # the death) or survived an in-process failure —
                    # resource containment (MemoryError under RLIMIT_AS)
                    # or an unexpected worker-side error. Exceptions that
                    # already know their classification keep it; the
                    # local classifier is the fallback.
                    classification = getattr(exc, "classification", None)
                    if not isinstance(classification, str):
                        classification = classify_exception(exc)
                    self._failure(lease, classification, pending)
                else:
                    results.setdefault(lease.key, []).append((lease, payload))
            if broken:
                self._recover(broken, inflight, pending)
        return results

    def _fill(self, pending, inflight):
        while pending:
            lease = pending.popleft()
            task = replace(lease.task, lease_id=lease.lease_id, attempt=lease.attempt)
            try:
                future = self.backend.submit(task)
            except self.backend.broken_exceptions:
                # The fleet broke between our last wait and this submit:
                # recover everything, then keep filling the fresh fleet.
                pending.appendleft(lease)
                self._recover([], inflight, pending)
                continue
            inflight[future] = lease

    def _recover(self, broken, inflight, pending):
        """The fleet broke: respawn it and requeue every in-flight lease.

        The fleet already failed, and so charged, the lease each dead
        worker held; the leases here were only waiting for capacity,
        so they go back to the queue at no charge.
        """
        requeued = list(broken) + list(inflight.values())
        inflight.clear()
        self.backend.respawn()
        self._count("restarts")
        if self.counters["restarts"] > self.policy.max_worker_restarts:
            raise SupervisionExhausted(
                f"worker fleet died {self.counters['restarts']} times "
                f"(max_worker_restarts={self.policy.max_worker_restarts}); "
                "the environment looks unrecoverable"
            )
        if requeued:
            self._count("requeues", len(requeued))
        pending.extend(requeued)

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
                self.spec.containment.describe()
                if self.spec.containment is not None
                else {}
            ),
        )
        self.poisoned.append(record)
        if self.on_poison is not None:
            self.on_poison(record)
