"""The cell runner every campaign process owns, and the worker side of a lease.

The paper's Algorithm 1 is one loop, mutate then check, and every
campaign runs it through one object: a :class:`CellRunner`. A serial
campaign builds one from the caller's solvers and runs each remaining
cell through it; a process campaign shards each cell's iteration
index space over worker processes (:mod:`repro.distributed`: a
:class:`~repro.distributed.endpoint.TcpFleet` of ``yinyang worker``
processes, by default on 127.0.0.1), and every worker
builds one at startup (:func:`install_worker_state`) and runs each of
its leases through it. A runner owns, for its process's lifetime:

- the **solvers under test**, guarded under the spec's resilience
  policy and indexed by name, built once (a worker builds them from the
  spec's picklable ``solver_factory``: live solvers hold locks and
  caches and must not cross a process boundary);
- **one strategy instance**, so its caches keep earning across cells;
- the **theory memo**, shared by every cell's session and the
  strategy's oracle (a memo hit replays the miss exactly, so which
  process ran which cell before cannot show in any journal byte);
- a **parse cache** for seed formulas: seeds travel to workers as
  SMT-LIB text and are parsed (which typechecks) at most once per
  worker, however many cells and shards reuse them.

Every iteration runs inside its own ``fresh_scope()`` with its own RNG,
so a fused script is a pure function of ``(seed, iteration index)``
and shard boundaries can never shift a gensym. Merging the shards of
any worker count therefore reproduces the serial report bit-for-bit
(see ``tests/test_parallel_determinism.py``). The one deliberate
exception is quarantine: a circuit breaker trips on *consecutive*
failures, an order-dependent notion, so the parent aggregates
quarantined names from merged shard reports and re-broadcasts them to
workers via
:meth:`~repro.robustness.guard.GuardedSolver.force_quarantine`.

Every shard is a **lease** run under a
:class:`~repro.robustness.supervisor.Supervisor`. A lease runs the
same cell loop (:meth:`~repro.core.yinyang.YinYang.run_cell`) with two
additions: a per-iteration hook, through which the worker sends its
``beat`` frame and fires planned chaos faults, and a crash-safe
:class:`~repro.robustness.journal.ShardProgress` log that checkpoints
every completed iteration when the campaign has a journal. Because
each iteration is a pure function of ``(strategy, seed, index)``, a
lease re-executed on a respawned worker replays its checkpoints and
re-runs only the missing iterations — the merged report (and therefore
the campaign journal) is byte-identical to a failure-free run. The
same replay carries a campaign across a crash of the parent: a resumed
campaign leases its unjournaled cells again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.yinyang import YinYang, iteration_rng, shard_indices
from repro.strategies.registry import make_strategy


@dataclass(frozen=True)
class ShardTask:
    """One lease of one cell: shard ``shard`` of the cell's iterations.

    The campaign constants (seed, strategy, iterations per cell, shard
    count) are not here: the worker reads them from its
    :class:`~repro.core.config.CampaignSpec`, which it receives once.
    A root lease runs ``range(shard, spec.iterations_per_cell,
    spec.workers)``.
    """

    oracle: str
    seed_texts: tuple
    logics: tuple
    shard: int
    cell: tuple | None = None  # the leased (family, oracle)
    solver_names: tuple | None = None  # None = all of the worker's solvers
    quarantined: tuple = ()  # names to pre-quarantine (cross-worker breaker)
    # Lease fields (stamped by the Supervisor). ``indices`` overrides
    # the strided index set — bisected child leases carry an explicit
    # slice of the parent shard's iterations. ``lease_id`` names the
    # lease in its worker's beat frames; ``progress_path`` is its
    # crash-safe checkpoint log; ``attempt`` gates planned chaos faults
    # so injected deaths stop on retry.
    indices: tuple | None = None
    attempt: int = 0
    lease_id: int | None = None
    progress_path: str | None = None


def serialize_seeds(seeds):
    """Seeds as (SMT-LIB texts, logics) — the picklable wire format."""
    from repro.smtlib.printer import print_script

    texts, logics = [], []
    for seed in seeds:
        script = getattr(seed, "script", seed)
        texts.append(print_script(script))
        logics.append(getattr(seed, "logic", ""))
    return tuple(texts), tuple(logics)


class CellRunner:
    """What one campaign process owns for its whole lifetime.

    Built from the campaign ``spec`` and the solvers under test (a
    solver or a list); see the module docstring for what it keeps.
    """

    def __init__(self, spec, solvers):
        solvers = list(solvers) if isinstance(solvers, (list, tuple)) else [solvers]
        if spec.policy is not None:
            from repro.robustness.guard import GuardedSolver

            solvers = [
                s if isinstance(s, GuardedSolver) else GuardedSolver(s, spec.policy)
                for s in solvers
            ]
        self.spec = spec
        self.solvers = solvers
        self.by_name = {s.name: s for s in solvers}
        self.strategy = make_strategy(spec.strategy, spec.config.fusion)
        self.theory_memo = {} if spec.config.incremental else None
        self.parse_cache = {}

    def scripts_for(self, seed_texts):
        """Parse (and thereby typecheck) seed texts, cached per runner."""
        scripts = []
        for text in seed_texts:
            script = self.parse_cache.get(text)
            if script is None:
                from repro.smtlib.parser import parse_script

                script = self.parse_cache[text] = parse_script(text)
            scripts.append(script)
        return scripts

    def run(
        self,
        oracle,
        scripts,
        logics,
        indices,
        solvers,
        telemetry=None,
        hook=None,
        progress=None,
    ):
        """Run iterations ``indices`` of one cell checked by ``solvers``
        (some of this runner's); return the cell or lease report of each
        solver, in ``solvers`` order.

        ``telemetry`` observes this one cell or lease; ``hook`` and
        ``progress`` are the lease additions of
        :meth:`~repro.core.yinyang.YinYang.run_cell` (a serial campaign
        passes neither).
        """
        tool = YinYang(
            solvers,
            self.spec.config,
            performance_threshold=self.spec.performance_threshold,
            telemetry=telemetry,
            strategy=self.strategy,
            theory_memo=self.theory_memo,
        )
        work = self.strategy.prepare(oracle, scripts, list(logics))
        return tool.run_cell(work, indices, hook=hook, progress=progress)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_STATE = None  # (CellRunner, TelemetryConfig | None), set by install_worker_state


def install_worker_state(spec, telemetry=None):
    """Adopt the calling process as a worker of campaign ``spec``.

    A fleet worker (:mod:`repro.distributed.worker`) calls it once,
    after receiving its spec frame, and ends up with a
    :class:`CellRunner` over the solvers ``spec.solver_factory``
    builds. Besides the spec, a worker needs only what it cannot derive
    from it: ``telemetry``, a picklable
    :class:`~repro.observability.telemetry.TelemetryConfig` (live
    registries must not cross a process boundary; each lease builds its
    own Telemetry and ships a snapshot back with its results).
    """
    global _STATE
    if spec.containment is not None:
        # Before anything else allocates: the rlimits bound the whole
        # worker lifetime, solver construction included.
        spec.containment.apply()
    _STATE = (CellRunner(spec, spec.solver_factory()), telemetry)


def run_worker_task(task, hook=None):
    """Run one :class:`ShardTask` lease in this worker; return its payload.

    The entry point of every fleet worker's leases; ``hook(index)`` is
    called before each iteration the lease runs (not before replayed
    ones). The payload is JSON-clean: it crosses socket frames as it is.
    """
    from repro.observability.telemetry import Telemetry
    from repro.robustness.journal import ShardProgress, serialize_report

    runner, telemetry_config = _STATE
    spec = runner.spec
    if task.solver_names is None:
        solvers = runner.solvers
    else:
        solvers = [runner.by_name[name] for name in task.solver_names]
    for name in task.quarantined:
        solver = runner.by_name.get(name)
        if solver is not None and hasattr(solver, "force_quarantine"):
            solver.force_quarantine()
    indices = task.indices
    if indices is None:
        indices = shard_indices(spec.iterations_per_cell, task.shard, spec.workers)
    progress = None
    if task.progress_path:
        # The campaign's full lease meta: a log of any other campaign
        # (another partition, or any setting flipped) is discarded.
        progress = ShardProgress(
            task.progress_path, meta=dict(spec.describe()[1], shard=task.shard)
        )
    # One Telemetry per lease (not per worker): each payload carries a
    # clean per-lease snapshot, so the parent's merge — which sums
    # counters like it sums shard reports — never double-counts a
    # long-lived worker's history.
    telemetry = Telemetry.from_config(telemetry_config)
    try:
        reports = runner.run(
            task.oracle,
            runner.scripts_for(task.seed_texts),
            task.logics,
            indices,
            solvers,
            telemetry=telemetry,
            hook=hook,
            progress=progress,
        )
        telemetry_snapshot = telemetry.snapshot() if telemetry is not None else None
    finally:
        if telemetry is not None:
            telemetry.close()
    return {
        # (name, report) pairs in solver order: frames sort dict keys.
        "reports": [
            [solver.name, serialize_report(report, unknown_split=True)]
            for solver, report in zip(solvers, reports)
        ],
        "elapsed": reports[0].elapsed,
        "pid": os.getpid(),
        "telemetry": telemetry_snapshot,
        "guards": [
            s.guard_state() for s in solvers if hasattr(s, "guard_state")
        ],
    }


def reconstruct_iteration_script(spec, task, index):
    """Rebuild iteration ``index``'s mutated script text in the parent.

    Used for poison artifacts: the killer iteration's formula is a pure
    function of ``(strategy, seed, index)`` over the task's seeds, so
    the coordinator can regenerate it without any worker — mutation
    needs no solvers. Returns ``None`` when the iteration's mutation
    draw failed (such an iteration runs no solver and can only die to
    injected chaos).
    """
    from repro.errors import MutationError
    from repro.observability.telemetry import NULL_TELEMETRY
    from repro.smtlib.ast import fresh_scope
    from repro.smtlib.parser import parse_script
    from repro.smtlib.printer import print_script

    strat = make_strategy(spec.strategy, spec.config.fusion)
    scripts = [parse_script(text) for text in task.seed_texts]
    work = strat.prepare(task.oracle, scripts, list(task.logics))
    rng = iteration_rng(spec.seed, index)
    with fresh_scope():
        try:
            mutant = strat.mutate(rng, work, NULL_TELEMETRY)
        except MutationError:
            return None
        return print_script(mutant.script)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def collect_shard(payload):
    """Deserialize a worker payload back into ``{solver name:
    YinYangReport}``, in solver order.

    The reports' scripts come back as SMT-LIB text (exactly what the
    journal stores); ``elapsed`` — excluded from the deterministic
    serialization — is restored from the payload side-channel so
    throughput accounting still works.
    """
    from repro.robustness.journal import deserialize_report

    reports = {}
    for name, data in payload["reports"]:
        report = reports[name] = deserialize_report(data)
        report.elapsed = payload["elapsed"]
    return reports
