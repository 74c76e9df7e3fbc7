"""Fault injection for the harness itself: the ChaosSolver.

Real campaigns meet solvers that hang, segfault, print garbage, answer
wrongly, or blow up the glue code with unexpected exceptions.
:class:`ChaosSolver` reproduces all five misbehaviors with *seeded*
probabilities, so the hardened harness
(:class:`~repro.robustness.guard.GuardedSolver`, the campaign journal)
can be tested against a deterministic storm of failures — chaos
engineering turned on our own tooling.

Determinism: the fault sequence is a pure function of ``seed`` and the
order of ``check_script`` calls. Single-threaded campaigns therefore
replay exactly; that is what the tier-1 chaos soak test relies on.

:class:`ProcessChaos` extends the same discipline across the process
boundary: a picklable plan that makes a *worker process* die (SIGKILL,
like the kernel OOM killer), hang (so only the supervisor's heartbeat
watchdog can recover it), burn CPU (to trip RLIMIT_CPU), or exhaust
memory (to trip RLIMIT_AS) at chosen global iteration ids. Faults are
gated on the shard lease's attempt number, so recovery is provable
deterministically: ``attempts=1`` kills exactly the first execution of
an iteration (the respawned retry sails through), while a large
``attempts`` makes an iteration a permanent killer — the poison case
the supervisor must isolate by bisection instead of dying on.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass

from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

#: Injection kinds, in the order probabilities are drawn.
HANG, CRASH, GARBAGE, WRONG, EXCEPTION = (
    "hang",
    "crash",
    "garbage",
    "wrong-answer",
    "exception",
)


class ChaosError(RuntimeError):
    """The injected non-``SolverCrash`` exception (glue-code failure)."""


class ChaosSolver:
    """A solver wrapper that misbehaves on purpose.

    Each probability is checked independently in a fixed order (hang,
    crash, garbage, wrong answer, exception); the first one that fires
    wins. A hang sleeps ``hang_seconds`` and then *continues normally* —
    exactly what a slow-but-alive solver does — so only a watchdog
    deadline turns it into a timeout.

    ``injected`` counts fired faults per kind for assertions.
    """

    def __init__(
        self,
        solver,
        seed=0,
        p_hang=0.0,
        p_crash=0.0,
        p_garbage=0.0,
        p_wrong=0.0,
        p_exception=0.0,
        hang_seconds=10.0,
    ):
        for label, p in (
            (HANG, p_hang),
            (CRASH, p_crash),
            (GARBAGE, p_garbage),
            (WRONG, p_wrong),
            (EXCEPTION, p_exception),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p_{label} must be in [0, 1]")
        self.base = solver
        self.name = f"chaos({solver.name})"
        self.probabilities = {
            HANG: p_hang,
            CRASH: p_crash,
            GARBAGE: p_garbage,
            WRONG: p_wrong,
            EXCEPTION: p_exception,
        }
        self.hang_seconds = hang_seconds
        self.rng = random.Random(seed)
        self.injected = {kind: 0 for kind in self.probabilities}
        self.checks = 0

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    def _draw(self):
        """The fault to inject for this check, or None."""
        for kind, p in self.probabilities.items():
            if p > 0.0 and self.rng.random() < p:
                return kind
        return None

    def check_script(self, script, directive=None, session=None):
        self.checks += 1
        fault = self._draw()
        if fault is not None:
            self.injected[fault] += 1
        if fault == HANG:
            time.sleep(self.hang_seconds)
        elif fault == CRASH:
            raise SolverCrash(
                f"{self.name}: injected segmentation fault (core dumped)",
                kind="segfault",
            )
        elif fault == GARBAGE:
            noise = "".join(self.rng.choices("#$%&*@!~", k=8))
            return CheckOutcome(
                SolverResult.UNKNOWN, reason=f"garbage output: {noise}"
            )
        elif fault == EXCEPTION:
            raise ChaosError(f"{self.name}: injected harness exception")
        outcome = self.base.check_script(
            script, directive=directive, session=session
        )
        if fault == WRONG and outcome.result.is_definite:
            return CheckOutcome(
                outcome.result.flipped(),
                reason=f"{self.name}: flipped verdict",
            )
        return outcome

    def check(self, source):
        from repro.smtlib.parser import parse_script

        script = parse_script(source) if isinstance(source, str) else source
        return self.check_script(script)


# ---------------------------------------------------------------------------
# Process-level fault injection (supervised campaigns)
# ---------------------------------------------------------------------------

#: ProcessChaos fault kinds, in the order they are checked.
KILL, PROC_HANG, SPIN, OOM_ALLOC = "kill", "proc-hang", "spin", "oom-alloc"


@dataclass(frozen=True)
class ProcessChaos:
    """A picklable plan of process-level faults for campaign workers.

    Each ``*_at`` tuple names *global iteration ids*; the fault fires
    when a worker is about to execute that iteration and the shard
    lease's ``attempt`` is still below ``attempts`` (default 1: the
    fault fires once and the supervised retry succeeds — set a large
    ``attempts`` to model a poison iteration that kills every retry).

    - ``kill_at`` — die by ``kill_signal`` (default SIGKILL, the
      OOM-killer's calling card) before running the iteration;
    - ``hang_at`` — sleep ``hang_seconds`` (recoverable only by the
      supervisor's stale-heartbeat kill);
    - ``spin_at`` — burn ``spin_seconds`` of CPU time (trips
      RLIMIT_CPU under a :class:`~repro.robustness.containment.ContainmentPolicy`);
    - ``oom_at`` — allocate ``oom_bytes`` at once (raises
      :class:`MemoryError` under RLIMIT_AS; without a limit it may
      succeed or draw the kernel's OOM killer — both paths are ones a
      self-healing campaign must survive).
    """

    kill_at: tuple = ()
    hang_at: tuple = ()
    spin_at: tuple = ()
    oom_at: tuple = ()
    attempts: int = 1
    kill_signal: int = signal.SIGKILL
    hang_seconds: float = 3600.0
    spin_seconds: float = 30.0
    oom_bytes: int = 1 << 31

    def __post_init__(self):
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")

    def fault_for(self, index, attempt):
        """The fault this iteration/attempt draws, or None (pure)."""
        if attempt >= self.attempts:
            return None
        if index in self.kill_at:
            return KILL
        if index in self.hang_at:
            return PROC_HANG
        if index in self.spin_at:
            return SPIN
        if index in self.oom_at:
            return OOM_ALLOC
        return None

    def fire(self, index, attempt):
        """Inject the planned fault for this iteration (worker side)."""
        fault = self.fault_for(index, attempt)
        if fault is None:
            return
        if fault == KILL:
            os.kill(os.getpid(), self.kill_signal)
        elif fault == PROC_HANG:
            time.sleep(self.hang_seconds)
        elif fault == SPIN:
            deadline = time.process_time() + self.spin_seconds
            while time.process_time() < deadline:
                pass
        elif fault == OOM_ALLOC:
            _hoard = bytearray(self.oom_bytes)  # noqa: F841
