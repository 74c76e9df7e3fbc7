"""The shared oracle checker: one classification path for every strategy.

Algorithm 1's "ask the solver, compare against the oracle" tail used to
live inside ``YinYang._check_one`` with near-copies in the ConcatFuzz
and ablation paths. It now lives here, once: every mutation strategy's
output — a :class:`~repro.strategies.base.Mutant` carrying its script,
expected verdict and provenance — flows through :func:`check_mutant`,
which classifies each solver's behaviour into the paper's bug kinds:

- **crash** — abnormal termination (:class:`SolverCrash`);
- **harness** — a contained non-solver exception (GuardedSolver);
- **soundness** — a definite answer contradicting the oracle;
- **performance** — a check exceeding the wall-clock threshold;
- **unknown** — ``unknown`` with an internal error note, or any
  ``unknown`` under the strict ``unknown_is_crash`` policy.

The checker draws no randomness and writes records in solver order,
so its output is a pure function of (mutant, solver states) — the
property every determinism guarantee upstream rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.solver.result import SolverCrash, SolverResult

SOUNDNESS = "soundness"
CRASH = "crash"
PERFORMANCE = "performance"
UNKNOWN_BUG = "unknown"
HARNESS = "harness"

# A GuardedSolver tags contained non-SolverCrash exceptions and
# quarantine refusals with these crash kinds (string-matched here to
# avoid a core -> robustness import).
HARNESS_ERROR_KIND = "harness-error"
QUARANTINED_KIND = "quarantined"

# The two kinds of ``unknown``: a *budget* unknown would have been
# decided with more steps/time (round/sat budget, enumeration budget,
# timeout); a *genuine* unknown hit a solver limitation. The reference
# solver stamps ``outcome.stats["unknown_kind"]``; for solvers that do
# not (external binaries, fakes), the reason string is classified here.
UNKNOWN_BUDGET = "budget"
UNKNOWN_GENUINE = "genuine"

_BUDGET_REASONS = frozenset(
    {"round budget exhausted", "sat budget exhausted", "timeout"}
)


def unknown_kind(reason="", stats=None):
    """Classify an ``unknown`` outcome as budget-bounded or genuine.

    The ``unknown_kind`` stat stamped by the reference solver takes
    precedence; the reason-string fallback covers wrappers that build
    their own outcomes (the guard's watchdog deadline is a wall-clock
    budget) and external solvers.
    """
    if stats:
        stamped = stats.get("unknown_kind")
        if stamped == UNKNOWN_BUDGET:
            return UNKNOWN_BUDGET
        if stamped:
            return UNKNOWN_GENUINE
    if reason in _BUDGET_REASONS or reason.startswith("guard: check exceeded"):
        return UNKNOWN_BUDGET
    return UNKNOWN_GENUINE


@dataclass
class BugRecord:
    """One bug-triggering mutant."""

    kind: str  # soundness | crash | performance | unknown
    solver: str
    oracle: str
    reported: str  # what the solver answered / crash message
    script: object  # the mutated Script
    seed_indices: tuple = (0, 0)
    schemes: tuple = ()
    logic: str = ""
    elapsed: float = 0.0
    note: str = ""  # solver-side detail (e.g. internal fault id / stderr)
    iteration: int = -1  # global iteration id within the run/cell
    strategy: str = "fusion"  # the mutation strategy that built the script

    def __str__(self):
        return (
            f"[{self.kind}] {self.solver}: expected {self.oracle}, "
            f"got {self.reported} (schemes: {', '.join(self.schemes) or '-'})"
        )


def classify_answer(result, oracle, reason="", unknown_is_crash=False):
    """Classify a definite-or-unknown solver answer against ``oracle``.

    Returns one of ``SOUNDNESS``/``UNKNOWN_BUG``/``None`` (no bug) —
    the decision table shared by the campaign loop and the ablation
    benchmarks' retrigger predicates.
    """
    if result is SolverResult.UNKNOWN:
        if reason.startswith("error:") or unknown_is_crash:
            return UNKNOWN_BUG
        return None
    if str(result) != oracle:
        return SOUNDNESS
    return None


def retriggers_bug(solver, script, oracle, kind):
    """Does ``script`` still expose a ``kind`` bug in ``solver``?

    The RQ4 retrigger predicate (re-running ancestors of found bugs
    through an ablated mutator), phrased via :func:`classify_answer` so
    it can never drift from the campaign's own classification.
    """
    try:
        outcome = solver.check_script(script)
    except SolverCrash:
        return kind == CRASH
    if kind == SOUNDNESS:
        return (
            outcome.result.is_definite
            and classify_answer(outcome.result, oracle) == SOUNDNESS
        )
    return False


def check_mutant(
    solvers,
    mutant,
    report,
    tel,
    performance_threshold=None,
    unknown_is_crash=False,
    iteration=-1,
    directive=None,
    session=None,
):
    """Check one mutant against every solver, folding records into
    ``report``. Byte-compatible with the pre-pipeline
    ``YinYang._check_one``: same counter increments, same record
    fields, same ordering. ``directive`` (triage's per-mutant budget
    tier) and ``session`` (the cell's incremental
    :class:`~repro.solver.session.SolverSession`) are forwarded to each
    solver."""
    schemes = mutant.schemes
    if session is not None:
        # Iteration boundary: outcome entries deduplicate the several
        # solver checks of *this* mutant and must not leak across
        # iterations (see SolverSession.begin_iteration).
        session.begin_iteration()
    for solver in solvers:
        if getattr(solver, "quarantined", False):
            # Circuit breaker tripped: degrade gracefully to the
            # remaining solvers instead of hammering a dead one.
            report.quarantine_skips += 1
            tel.count("quarantine_skips")
            report.quarantined.add(solver.name)
            continue
        began = time.perf_counter()
        try:
            with tel.phase("solve"):
                outcome = solver.check_script(
                    mutant.script, directive=directive, session=session
                )
        except SolverCrash as crash:
            if crash.kind == QUARANTINED_KIND:
                # The breaker tripped between our check above and
                # the call (thread-mode race): a skip, not a crash.
                report.quarantine_skips += 1
                tel.count("quarantine_skips")
                report.quarantined.add(solver.name)
                continue
            report.retries += getattr(crash, "retries", 0)
            contained = crash.kind == HARNESS_ERROR_KIND
            if contained:
                report.contained_errors += 1
            tel.count("bugs.harness" if contained else "bugs.crash")
            report.bugs.append(
                BugRecord(
                    kind=HARNESS if contained else CRASH,
                    solver=solver.name,
                    oracle=mutant.oracle,
                    reported=str(crash),
                    script=mutant.script,
                    seed_indices=mutant.seed_indices,
                    schemes=schemes,
                    logic=mutant.logic,
                    elapsed=time.perf_counter() - began,
                    note=getattr(crash, "fault_id", ""),
                    iteration=iteration,
                    strategy=mutant.strategy,
                )
            )
            continue
        elapsed = time.perf_counter() - began
        tel.count("checks")
        # Guard-level events (retries, timeouts, containment) are
        # counted by the GuardedSolver itself once telemetry is
        # attached — counting them here too would double-count.
        report.retries += outcome.stats.get("guard_retries", 0)
        if outcome.stats.get("guard_timeout"):
            report.timeouts += 1
        with tel.phase("oracle_check"):
            if (
                performance_threshold is not None
                and elapsed > performance_threshold
            ):
                slow_faults = outcome.stats.get("slow_faults", [])
                tel.count("bugs.performance")
                report.bugs.append(
                    BugRecord(
                        kind=PERFORMANCE,
                        solver=solver.name,
                        oracle=mutant.oracle,
                        reported=f"{elapsed:.2f}s",
                        script=mutant.script,
                        seed_indices=mutant.seed_indices,
                        schemes=schemes,
                        logic=mutant.logic,
                        elapsed=elapsed,
                        note=slow_faults[0] if slow_faults else "",
                        iteration=iteration,
                        strategy=mutant.strategy,
                    )
                )
            if outcome.result is SolverResult.UNKNOWN:
                report.unknowns += 1
                tel.count("unknowns")
                kind = unknown_kind(outcome.reason, outcome.stats)
                if kind == UNKNOWN_BUDGET:
                    report.unknowns_budget += 1
                    tel.count("unknowns.budget")
                else:
                    report.unknowns_genuine += 1
                    tel.count("unknowns.genuine")
                # An unknown accompanied by an internal error note is a
                # bug in its own right; a plain unknown is a bug only
                # under the strict (unknown-is-crash) policy.
                if classify_answer(
                    outcome.result,
                    mutant.oracle,
                    outcome.reason,
                    unknown_is_crash,
                ):
                    tel.count("bugs.unknown")
                    report.bugs.append(
                        BugRecord(
                            kind=UNKNOWN_BUG,
                            solver=solver.name,
                            oracle=mutant.oracle,
                            reported="unknown",
                            script=mutant.script,
                            seed_indices=mutant.seed_indices,
                            schemes=schemes,
                            logic=mutant.logic,
                            elapsed=elapsed,
                            note=outcome.reason,
                            iteration=iteration,
                            strategy=mutant.strategy,
                        )
                    )
                continue
            if classify_answer(outcome.result, mutant.oracle) == SOUNDNESS:
                tel.count("bugs.soundness")
                report.bugs.append(
                    BugRecord(
                        kind=SOUNDNESS,
                        solver=solver.name,
                        oracle=mutant.oracle,
                        reported=str(outcome.result),
                        script=mutant.script,
                        seed_indices=mutant.seed_indices,
                        schemes=schemes,
                        logic=mutant.logic,
                        elapsed=elapsed,
                        note=outcome.reason,
                        iteration=iteration,
                        strategy=mutant.strategy,
                    )
                )
