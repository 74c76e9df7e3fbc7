"""The hardened campaign harness: guarded execution, chaos, journaling.

Long blackbox fuzzing campaigns only work if the harness outlives the
solvers it torments. This package contains the three pieces that make
our campaign loop production-hard:

- :class:`GuardedSolver` (:mod:`~repro.robustness.guard`) — watchdog
  deadlines, transient-failure retries with capped backoff, containment
  of unexpected exceptions, and a quarantine circuit breaker;
- :class:`ChaosSolver` (:mod:`~repro.robustness.chaos`) — deterministic
  fault injection (hangs, crashes, garbage, wrong answers, exceptions)
  to test the harness against itself;
- :class:`CampaignJournal` (:mod:`~repro.robustness.journal`) —
  crash-safe JSONL journaling of per-cell campaign progress, enabling
  ``run_campaign(..., resume=True)``;
- :class:`ResiliencePolicy` (:mod:`~repro.robustness.policy`) — the
  dataclass plumbed from CLI flags down to the guard;
- :class:`Supervisor` (:mod:`~repro.robustness.supervisor`) — the
  self-healing coordinator for process-sharded campaigns: worker
  respawn, shard-lease recovery from :class:`ShardProgress`
  checkpoints, hang detection from wire beats, and poison-iteration
  bisection/quarantine;
- :class:`ContainmentPolicy` (:mod:`~repro.robustness.containment`) —
  per-worker rlimits plus parent-side death classification;
- :class:`ProcessChaos` (:mod:`~repro.robustness.chaos`) — seeded
  process-level fault injection (kill/hang/spin/OOM a worker at chosen
  iterations) so crash recovery is provable deterministically.
"""

from repro.robustness.chaos import ChaosError, ChaosSolver, ProcessChaos
from repro.robustness.containment import (
    ContainmentPolicy,
    classify_exception,
    classify_exit,
)
from repro.robustness.guard import (
    GuardedSolver,
    HarnessError,
    SolverQuarantined,
)
from repro.robustness.journal import (
    CampaignJournal,
    JournalError,
    ShardProgress,
    deserialize_bug_record,
    lease_progress_path,
    serialize_bug_record,
)
from repro.robustness.policy import ResiliencePolicy
from repro.robustness.supervisor import (
    PoisonedIteration,
    ShardLease,
    SupervisionExhausted,
    Supervisor,
    SupervisorPolicy,
)

__all__ = [
    "ChaosError",
    "ChaosSolver",
    "ProcessChaos",
    "ContainmentPolicy",
    "classify_exit",
    "classify_exception",
    "GuardedSolver",
    "HarnessError",
    "SolverQuarantined",
    "CampaignJournal",
    "JournalError",
    "ShardProgress",
    "lease_progress_path",
    "serialize_bug_record",
    "deserialize_bug_record",
    "ResiliencePolicy",
    "PoisonedIteration",
    "ShardLease",
    "SupervisionExhausted",
    "Supervisor",
    "SupervisorPolicy",
]
