"""YinYang's main process (the paper's Algorithm 1), strategy-agnostic.

The loop repeatedly asks a pluggable
:class:`~repro.strategies.base.MutationStrategy` for one mutant — for
the default Semantic Fusion strategy: draw two random seeds of the same
satisfiability and fuse them — and feeds the mutant to each solver
under test:

- a solver **crash** (abnormal termination / internal error) is a crash
  bug;
- a definite answer **inconsistent with the oracle** is a soundness bug;
- a check exceeding the performance threshold is recorded as a
  performance issue (the paper found these during reduction);
- ``unknown`` is either ignored or treated as a crash, per config.

The loop knows nothing about fusion: seed drawing, mutation, and the
expected-verdict discipline all live behind the strategy interface
(:mod:`repro.strategies`), and the answer-classification tail lives in
the shared checker (:mod:`repro.core.checker`). An AST lint
(``tests/test_ast_lint.py``) pins this by forbidding
``repro.core.fusion`` / ``repro.core.concatfuzz`` imports here.

Everything is deterministic given the config seed, *independent of the
execution mode*: each iteration draws its randomness from a private RNG
seeded by ``(campaign seed, iteration index)`` and builds its mutant
inside its own fresh-name scope, so iteration ``k`` produces the same
mutated script whether it runs alone or on shard 3 of a worker pool.
Parallel runs merely partition the index space ``range(iterations)``
across workers and merge the partial reports back in index order — the
bug records of a run are a pure function of ``(strategy, seed,
iterations)``.

:meth:`YinYang.test` runs ``serial`` (in this process) or ``process``:
shards of the index space leased to a supervised, spawn-safe worker
pool where each worker owns its solver instances and caches (see
:mod:`repro.core.parallel`). Campaigns add a ``tcp`` worker fleet on
the same lease machinery (:mod:`repro.campaign.runner`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

# Classification constants and BugRecord moved to the shared checker;
# re-exported here because journal/campaign/tests import them from this
# module (the stable public surface).
from repro.core.checker import (  # noqa: F401
    CRASH,
    HARNESS,
    PERFORMANCE,
    SOUNDNESS,
    UNKNOWN_BUG,
    BugRecord,
    check_mutant,
)
from repro.core.checker import HARNESS_ERROR_KIND as _HARNESS_ERROR_KIND  # noqa: F401
from repro.core.checker import QUARANTINED_KIND as _QUARANTINED_KIND  # noqa: F401
from repro.core.config import CampaignSpec, YinYangConfig
from repro.errors import MutationError, ReproError
from repro.observability.telemetry import NULL_TELEMETRY, attach_telemetry
from repro.smtlib.ast import fresh_scope
from repro.strategies.fusion import FusionStrategy, MixedFusionStrategy
from repro.strategies.registry import make_strategy


def iteration_rng(seed, index):
    """The private RNG of iteration ``index`` under campaign ``seed``.

    Seeded through the string path of :class:`random.Random`, which
    hashes via SHA-512 — deterministic across processes and Python
    hash-randomization settings (a tuple seed would go through
    ``hash()`` and could differ between interpreter runs).
    """
    return random.Random(f"yinyang:{seed}:{index}")


@dataclass
class YinYangReport:
    """Outcome of a testing run: Algorithm 1's ``incorrects``/``crashes``."""

    iterations: int = 0
    fused: int = 0
    elapsed: float = 0.0
    bugs: list = field(default_factory=list)
    fusion_failures: int = 0
    unknowns: int = 0
    # Harness-resilience counters (populated when solvers are guarded).
    retries: int = 0
    timeouts: int = 0
    contained_errors: int = 0
    quarantine_skips: int = 0
    quarantined: set = field(default_factory=set)
    # The unknown-kind split (ISSUE 7 satellite): every ``unknown`` is
    # counted once above *and* once here as budget-bounded or genuine.
    # ``unknowns`` may additionally include oracle-unresolved skips, so
    # budget + genuine <= unknowns.
    unknowns_budget: int = 0
    unknowns_genuine: int = 0

    @property
    def incorrects(self):
        return [b for b in self.bugs if b.kind == SOUNDNESS]

    @property
    def crashes(self):
        return [b for b in self.bugs if b.kind == CRASH]

    @property
    def performance_issues(self):
        return [b for b in self.bugs if b.kind == PERFORMANCE]

    @property
    def harness_errors(self):
        return [b for b in self.bugs if b.kind == HARNESS]

    @property
    def throughput(self):
        """Fused formulas per second (the paper reports 41.5/s)."""
        if self.elapsed <= 0:
            return 0.0
        return self.fused / self.elapsed

    def summary(self):
        text = (
            f"{self.iterations} iterations, {self.fused} fused formulas, "
            f"{len(self.incorrects)} soundness, {len(self.crashes)} crash, "
            f"{len(self.performance_issues)} performance"
        )
        extras = []
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.contained_errors:
            extras.append(f"{self.contained_errors} contained errors")
        if self.quarantined:
            extras.append("quarantined: " + ", ".join(sorted(self.quarantined)))
        if extras:
            text += " (" + "; ".join(extras) + ")"
        return text

    def counters(self):
        """Deterministic summary counters (everything but wall-clock).

        Field names are part of the journal format (``fused`` counts
        successful mutants of *any* strategy, ``fusion_failures`` counts
        :class:`~repro.errors.MutationError` draws) — renaming them
        would break byte-compatibility with existing journals.
        """
        return {
            "iterations": self.iterations,
            "fused": self.fused,
            "fusion_failures": self.fusion_failures,
            "unknowns": self.unknowns,
            "soundness": len(self.incorrects),
            "crash": len(self.crashes),
            "performance": len(self.performance_issues),
            "bugs": len(self.bugs),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "contained_errors": self.contained_errors,
            "quarantine_skips": self.quarantine_skips,
            "unknowns_budget": self.unknowns_budget,
            "unknowns_genuine": self.unknowns_genuine,
        }


def merge_shard_reports(reports):
    """Merge per-shard reports into one, independent of the sharding.

    Counters are summed, ``elapsed`` is the slowest shard (shards run
    concurrently), and bug records are re-ordered by their global
    iteration id — so merging the shards of any worker count yields the
    exact report a single worker would have produced (modulo
    wall-clock).
    """
    merged = YinYangReport()
    for report in reports:
        merged.iterations += report.iterations
        merged.fused += report.fused
        merged.elapsed = max(merged.elapsed, report.elapsed)
        merged.bugs.extend(report.bugs)
        merged.fusion_failures += report.fusion_failures
        merged.unknowns += report.unknowns
        merged.retries += report.retries
        merged.timeouts += report.timeouts
        merged.contained_errors += report.contained_errors
        merged.quarantine_skips += report.quarantine_skips
        merged.quarantined |= report.quarantined
        merged.unknowns_budget += report.unknowns_budget
        merged.unknowns_genuine += report.unknowns_genuine
    merged.bugs.sort(key=lambda b: b.iteration)  # stable: intra-iteration order kept
    return merged


def shard_indices(iterations, shard, of):
    """The iteration ids shard ``shard`` of ``of`` runs (strided, balanced)."""
    return range(shard, iterations, of)


class YinYang:
    """The YinYang testing tool.

    ``solvers`` is one solver or a list; each must expose ``name`` and
    ``check_script(script, directive=None, session=None) ->
    CheckOutcome`` and may raise
    :class:`~repro.solver.result.SolverCrash`.

    ``strategy`` selects the mutation workload: ``None`` (the default
    Semantic Fusion strategy, built from ``config.fusion``), a registry
    name such as ``"fusion"``/``"concatfuzz"``/``"opfuzz"``, or a
    ready :class:`~repro.strategies.base.MutationStrategy` instance.

    ``policy`` (a :class:`~repro.robustness.policy.ResiliencePolicy`)
    wraps every solver in a
    :class:`~repro.robustness.guard.GuardedSolver`: per-check watchdog
    deadlines, transient-failure retries, containment of unexpected
    exceptions as harness-error bug records, and quarantine of solvers
    that crash repeatedly. Without a policy the loop behaves exactly as
    before (no guard overhead).

    ``theory_memo`` is the campaign's theory memo (a dict): with
    ``config.incremental`` on, every session this tool builds and the
    strategy's oracle memoize theory checks in it. Campaigns pass one
    memo to all their tools; ``None`` gives the tool its own. With
    incremental off the tool builds no memo and ignores this argument.
    """

    def __init__(
        self,
        solvers,
        config=None,
        performance_threshold=None,
        policy=None,
        telemetry=None,
        strategy=None,
        theory_memo=None,
    ):
        solvers = solvers if isinstance(solvers, (list, tuple)) else [solvers]
        if policy is not None:
            # Imported lazily: repro.robustness imports this module.
            from repro.robustness.guard import GuardedSolver

            solvers = [
                s if isinstance(s, GuardedSolver) else GuardedSolver(s, policy)
                for s in solvers
            ]
        self.solvers = list(solvers)
        self.config = config or YinYangConfig()
        self.performance_threshold = performance_threshold
        self.policy = policy
        if strategy is None:
            strategy = FusionStrategy(self.config.fusion)
        elif isinstance(strategy, str):
            strategy = make_strategy(strategy, self.config.fusion)
        self.strategy = strategy
        # Telemetry observes and never steers: it draws no randomness
        # and the loop's control flow is identical with it on or off.
        # The null singleton keeps the hot path branch-free.
        self.telemetry = telemetry
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if telemetry is not None:
            attach_telemetry(self.solvers, telemetry)
        self._triage = None
        if self.config.triage:
            # Imported lazily: the triage policy lives in the campaign
            # layer, which imports this module.
            from repro.campaign.triage import TriagePolicy

            self._triage = TriagePolicy()
        self._theory_memo = None
        if self.config.incremental:
            self._theory_memo = {} if theory_memo is None else theory_memo
        strategy.attach_theory_memo(self._theory_memo, self._tel)

    # -- Algorithm 1 -----------------------------------------------------

    def test(
        self,
        oracle,
        seeds,
        iterations=None,
        mode="serial",
        workers=1,
        solver_factory=None,
    ):
        """Run the main loop over ``seeds`` (all labeled ``oracle``).

        ``seeds`` is a list of Scripts or
        :class:`~repro.core.oracle.LabeledSeed`. Returns a
        :class:`YinYangReport`.

        ``mode`` is ``"serial"`` or ``"process"`` (see the module
        docstring); ``workers`` is the shard count. Both modes and
        every worker count yield identical bug records for a fixed
        config seed. ``process`` mode needs ``solver_factory`` — a
        picklable zero-argument callable returning the solver list —
        because live solver objects (locks, caches) do not cross a
        spawn boundary; the strategy crosses it as its registry name.

        A process run is a one-cell campaign without a journal, through
        the same supervised
        :class:`~repro.distributed.coordinator.Coordinator` path as a
        process campaign: a worker death is healed by retry, and an
        iteration that keeps failing its worker is bisected out. The
        cell names no solver, so every solver ``solver_factory`` builds
        checks each mutant. With no journal to quarantine a poisoned
        iteration in, it is raised as a
        :class:`~repro.errors.ReproError` once every other shard is done.
        """
        scripts = [getattr(s, "script", s) for s in seeds]
        logics = [getattr(s, "logic", "") for s in seeds]
        if len(scripts) < 1:
            raise ValueError("need at least one seed")
        iterations = iterations if iterations is not None else self.config.max_iterations
        if mode == "serial":
            work = self.strategy.prepare(oracle, scripts, logics)
            return self._run_prepared(self.strategy, work, range(iterations))
        if mode != "process":
            raise ValueError(f"mode must be 'serial' or 'process', got {mode!r}")
        # Imported lazily: the campaign and distributed layers import
        # this module.
        from repro.campaign.runner import CampaignResult
        from repro.distributed.coordinator import Coordinator

        spec = CampaignSpec(
            config=self.config,
            iterations_per_cell=iterations,
            strategy=self.strategy.name,
            performance_threshold=self.performance_threshold,
            policy=self.policy,
            solver_factory=solver_factory,
            mode="process",
            workers=workers,
        )
        key = (None, None, oracle)
        result = CampaignResult()
        start = time.perf_counter()
        with Coordinator(spec, telemetry=self.telemetry) as coordinator:
            coordinator.run_cells(result, [(key, None, seeds)])
        if result.poisoned:
            detail = ", ".join(
                f"{p.iteration} ({p.classification})" for p in result.poisoned
            )
            raise ReproError(f"iterations kept failing their worker: {detail}")
        report = result.reports[key]
        report.elapsed = time.perf_counter() - start
        return report

    def run_iterations(
        self, oracle, scripts, logics, indices, seed=None, work=None, session=None
    ):
        """Run the iterations whose global ids are in ``indices``.

        This is the sharding primitive: a full run is
        ``run_iterations(..., range(n))``, and any partition of
        ``range(n)`` across workers merges back (via
        :func:`merge_shard_reports`) to the same report. Callers that
        split one shard into many small index batches (the supervised
        per-iteration loop) pass a pre-built ``work`` item so the
        strategy's preparation cost is paid once, not per batch — and,
        with incremental solving on, a pre-built ``session`` so the
        cell's solver session outlives the batches (its lifetime is the
        lease, see :mod:`repro.core.parallel`).
        """
        if work is None:
            work = self.strategy.prepare(oracle, scripts, logics)
        return self._run_prepared(self.strategy, work, indices, seed, session)

    def prepare_work(self, oracle, scripts, logics):
        """Pre-build the strategy work item for repeated ``run_iterations``."""
        return self.strategy.prepare(oracle, scripts, logics)

    def make_session(self, work):
        """Build the cell's :class:`~repro.solver.session.SolverSession`,
        or ``None`` when ``config.incremental`` is off.

        The session is seeded from the work item's scripts (for mixed
        fusion, both pools): those are the assertions every mutant of
        the cell is built from, hence the reusable vocabulary. Its
        theory checks go to the tool's theory memo.
        """
        if not self.config.incremental:
            return None
        # Imported lazily: the session layer is optional and pulls in
        # the solver stack, which the core driver otherwise doesn't.
        from repro.solver.session import SolverSession

        scripts = list(getattr(work, "scripts", ()) or ())
        scripts += list(getattr(work, "unsat_scripts", None) or ())
        return SolverSession(
            scripts, telemetry=self._tel, theory_memo=self._theory_memo
        )

    def _run_prepared(self, strategy, work, indices, seed=None, session=None):
        """The shared shard loop: run ``indices`` of ``strategy`` over a
        prepared work item and fold the outcomes into one report."""
        seed = self.config.seed if seed is None else seed
        mutant_counter = "mutants." + strategy.name
        report = YinYangReport()
        start = time.perf_counter()
        if session is None:
            # Incremental off -> None; on -> a session scoped to this
            # shard (serial runs: the whole cell). Leased callers pass
            # their own so it spans the lease, not one index batch.
            session = self.make_session(work)
        for index in indices:
            self._one_iteration(
                strategy, work, index, seed, report, mutant_counter, session
            )
        for solver in self.solvers:
            if getattr(solver, "quarantined", False):
                report.quarantined.add(solver.name)
        report.elapsed = time.perf_counter() - start
        # Profiling samples happen at shard boundaries, never per
        # iteration — the hot path stays counter-increments only.
        self._tel.sample_term_tables()
        self._tel.sample_guards(self.solvers)
        self._tel.sample_session(session)
        return report

    def _one_iteration(
        self, strategy, work, index, seed, report, mutant_counter, session=None
    ):
        tel = self._tel
        rng = iteration_rng(seed, index)
        report.iterations += 1
        tel.count("iterations")
        # The fresh-name scope makes the mutated script a pure function
        # of (strategy, seed, index): gensyms restart at 0 for every
        # iteration instead of accumulating across the run, so shard
        # boundaries can never shift them.
        with fresh_scope():
            try:
                mutant = strategy.mutate(rng, work, tel)
            except MutationError:
                # "fusion_failures" counts failed mutation draws of any
                # strategy; the name is journal-format legacy.
                report.fusion_failures += 1
                tel.count("fusion_failures")
                return
            report.fused += 1
            tel.count("fused")
            tel.count(mutant_counter)
            if not mutant.oracle:
                # Differential strategy whose ground truth could not be
                # established: nothing to compare against, skip checks.
                report.unknowns += 1
                tel.count("oracle_unresolved")
                return
            directive = None
            triage = self._triage
            if triage is not None:
                # Routing is a pure function of the mutant's formula
                # (plus an optional strategy-stamped feature hint), so
                # every worker computes the same tier for the same
                # iteration — shard shapes stay invisible.
                tier, directive = triage.route(
                    mutant.script, hint=getattr(mutant, "difficulty", None)
                )
                tel.count("triage.routed")
                tel.count("triage.tier." + tier)
            check_mutant(
                self.solvers,
                mutant,
                report,
                tel,
                performance_threshold=self.performance_threshold,
                unknown_is_crash=self.config.unknown_is_crash,
                iteration=index,
                directive=directive,
                session=session,
            )

    def test_mixed(self, want, sat_seeds, unsat_seeds, iterations=None):
        """Mixed fusion mode (paper Section 3.2): one satisfiable and one
        unsatisfiable seed per iteration; ``want`` selects whether the
        fused formula is satisfiable (disjunction) or unsatisfiable
        (conjunction plus fusion constraints)."""
        strategy = MixedFusionStrategy(want, self.config.fusion)
        sat_scripts = [getattr(s, "script", s) for s in sat_seeds]
        unsat_scripts = [getattr(s, "script", s) for s in unsat_seeds]
        if not sat_scripts or not unsat_scripts:
            raise ValueError("mixed fusion needs seeds of both labels")
        iterations = (
            iterations if iterations is not None else self.config.max_iterations
        )
        work = strategy.prepare_pools(sat_scripts, unsat_scripts)
        return self._run_prepared(strategy, work, range(iterations))

    # -- single-shot helpers --------------------------------------------------

    def fuse_once(self, oracle, phi1, phi2, seed=0):
        """Fuse one pair (for examples and debugging)."""
        rng = random.Random(seed)
        strategy = (
            self.strategy
            if isinstance(self.strategy, FusionStrategy)
            else FusionStrategy(self.config.fusion)
        )
        return strategy.fuse_pair(oracle, phi1, phi2, rng)
