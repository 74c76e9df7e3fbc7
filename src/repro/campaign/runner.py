"""The campaign runner: YinYang against buggy solvers over all corpora.

This is the offline equivalent of the paper's four-month testing
campaign, compressed: for each (solver, corpus, oracle) cell the runner
fuses seed pairs and records every bug-triggering formula, then triage
(:mod:`repro.campaign.classify`) maps records to catalog faults.

A long campaign is expected to be interrupted and to meet misbehaving
solvers; ``run_campaign`` therefore accepts a
:class:`~repro.robustness.policy.ResiliencePolicy` (guarded execution)
and a :class:`~repro.robustness.journal.CampaignJournal` (crash-safe
per-cell journaling with ``resume=True`` skipping completed cells).

Campaigns run in one of three execution modes:

- ``serial`` — one process, one thread (the default);
- ``process`` — each cell's iterations sharded over a persistent
  spawn-safe worker pool (:mod:`repro.core.parallel`): per-worker
  solver instances, parse caches, and crash-safe sidecar journals the
  parent merges into the main journal;
- ``tcp`` — each cell's iterations leased to a socket worker fleet
  (:mod:`repro.distributed`): separate ``yinyang worker`` processes
  pull leases by work stealing, and the coordinator merges their
  shipped shard payloads (plus a coordinator-side fleet sidecar for
  resume).

Process and tcp campaigns take one path: every shard is a lease that
the :class:`~repro.distributed.coordinator.Coordinator` drives through
a :class:`~repro.robustness.supervisor.Supervisor`, so dead or hung
workers are always healed. All modes and worker counts produce
identical bug records and identical journal bytes for a fixed seed;
sharding is invisible to the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.classify import collect_found_faults, found_fault_objects
from repro.campaign.triage import TRIAGE_SPEC
from repro.core.config import FusionConfig, YinYangConfig
from repro.core.yinyang import YinYang
from repro.faults.catalog import bv_fault_catalog, cvc4_like_catalog, z3_like_catalog
from repro.faults.faulty_solver import FaultySolver
from repro.observability.telemetry import NULL_TELEMETRY
from repro.robustness.journal import (
    CampaignJournal,
    load_sidecar_shards,
    remove_sidecars,
)
from repro.robustness.supervisor import SupervisorPolicy
from repro.solver.session import SESSION_SPEC
from repro.solver.solver import ReferenceSolver, SolverConfig
from repro.strategies.registry import make_strategy

#: The modes ``run_campaign`` accepts: ``YinYang.test``'s two plus the
#: distributed socket fleet (campaign-level only — a fleet needs the
#: campaign's lease machinery).
CAMPAIGN_MODES = ("serial", "process", "tcp")


def default_solvers(release="trunk", base_config=None):
    """The two solvers under test, with their catalogs attached.

    The base solver runs with the fast (short-timeout) configuration,
    the standard fuzzing setup for real solvers too. Also the default
    ``solver_factory`` of process-mode campaigns: it is a picklable
    module-level callable, so every worker can build its own instances.
    """
    base = ReferenceSolver(base_config or SolverConfig.fast())
    z3 = FaultySolver(base, z3_like_catalog(), "z3-like", release=release)
    cvc4 = FaultySolver(base, cvc4_like_catalog(), "cvc4-like", release=release)
    return [z3, cvc4]


def deterministic_solvers(release="trunk"):
    """:func:`default_solvers` with all wall-clock dependence removed.

    The fast configuration's 1.5 s deadline makes borderline checks
    flip between a real answer and ``unknown`` with machine load; the
    purely step-counted budgets (DPLL rounds, nonlinear enumeration,
    string assignments) still bound every check, but identically in
    every run. They are tightened here to compensate for the missing
    deadline, so hard inputs answer ``unknown`` by running out of steps
    instead of out of time. This is the factory behind
    ``--deterministic`` campaigns whose journals must be reproducible
    byte-for-byte across machines, modes and worker counts.
    """
    return default_solvers(release=release, base_config=SolverConfig.deterministic())


def bv_solvers(release="trunk", base_config=None):
    """The two solvers under test with the QF_BV fault catalogs.

    The paper-shaped catalogs (44/13 faults) never fire on QF_BV
    formulas — their triggers require arithmetic or string logics — so
    BV campaigns attach :func:`~repro.faults.catalog.bv_fault_catalog`
    instead, keeping ``result.catalogs`` (and "found every fault"
    accounting) exact. Picklable, like :func:`default_solvers`.
    """
    base = ReferenceSolver(base_config or SolverConfig.fast())
    z3 = FaultySolver(base, bv_fault_catalog("z3-like"), "z3-like", release=release)
    cvc4 = FaultySolver(
        base, bv_fault_catalog("cvc4-like"), "cvc4-like", release=release
    )
    return [z3, cvc4]


def deterministic_bv_solvers(release="trunk"):
    """:func:`bv_solvers` with all wall-clock dependence removed (the
    QF_BV analogue of :func:`deterministic_solvers`)."""
    return bv_solvers(release=release, base_config=SolverConfig.deterministic())


def solver_factory_for_logic(logic, deterministic=False):
    """The picklable campaign solver factory for ``logic``.

    ``None`` (the default corpora) keeps the paper catalogs; ``QF_BV``
    swaps in the BV catalogs. Factories must be module-level callables:
    process/tcp campaigns ship them across the spawn boundary.
    """
    if logic == "QF_BV":
        return deterministic_bv_solvers if deterministic else bv_solvers
    return deterministic_solvers if deterministic else default_solvers


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    records: list = field(default_factory=list)  # all BugRecords
    reports: dict = field(default_factory=dict)  # (solver, corpus, oracle) -> report
    catalogs: dict = field(default_factory=dict)  # solver name -> fault list
    fused_total: int = 0
    elapsed_total: float = 0.0
    mode: str = "serial"
    workers: int = 1
    strategy: str = "fusion"  # the mutation strategy's registry name
    # (solver, corpus, oracle) -> [per-shard counter dicts] (process mode)
    shard_counters: dict = field(default_factory=dict)
    # Process/tcp modes: quarantined poison-iteration artifacts
    # (PoisonedIteration records) and the supervisor's counters
    # (restarts / retries / requeues / bisections / poisoned / ...).
    poisoned: list = field(default_factory=list)
    supervision: dict = field(default_factory=dict)

    def found_faults(self):
        """{solver: {fault_id: [records]}} via triage."""
        return collect_found_faults(self.records, self.catalogs)

    def found_fault_objects(self):
        return found_fault_objects(self.found_faults(), self.catalogs)

    def resilience_counters(self):
        """Aggregated guard counters across all cell reports."""
        totals = {
            "retries": 0,
            "timeouts": 0,
            "contained_errors": 0,
            "quarantine_skips": 0,
        }
        quarantined = set()
        for report in self.reports.values():
            for key in totals:
                totals[key] += getattr(report, key, 0)
            quarantined |= getattr(report, "quarantined", set())
        totals["quarantined"] = sorted(quarantined)
        return totals

    def summary_counters(self):
        """Deterministic campaign-level counters, for determinism checks
        and the per-shard table's totals row."""
        totals = {}
        for report in self.reports.values():
            for key, value in report.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def summary(self):
        found = self.found_faults()
        parts = [f"{self.fused_total} fused formulas"]
        if self.strategy != "fusion":
            parts.append(f"strategy {self.strategy}")
        if self.mode != "serial":
            parts.append(f"mode {self.mode} x{self.workers}")
        for solver_name, faults in found.items():
            parts.append(f"{solver_name}: {len(faults)} distinct faults")
        counters = self.resilience_counters()
        if counters["retries"]:
            parts.append(f"{counters['retries']} retries")
        if counters["timeouts"]:
            parts.append(f"{counters['timeouts']} timeouts")
        if counters["contained_errors"]:
            parts.append(f"{counters['contained_errors']} contained errors")
        if counters["quarantined"]:
            parts.append("quarantined: " + "/".join(counters["quarantined"]))
        if self.supervision.get("restarts"):
            parts.append(f"{self.supervision['restarts']} worker restarts")
        if self.poisoned:
            parts.append(
                "poisoned: "
                + "/".join(f"{p.iteration} ({p.classification})" for p in self.poisoned)
            )
        return ", ".join(parts)


def _campaign_cells(solvers, corpora):
    """The campaign's cells in their canonical (journal) order."""
    cells = []
    for solver in solvers:
        for family, corpus in corpora.items():
            for oracle in ("sat", "unsat"):
                seeds = corpus.by_oracle(oracle)
                if len(seeds) < 1:
                    continue
                cells.append(((solver.name, family, oracle), solver, seeds))
    return cells


def _absorb_cell(result, key, report, journal, telemetry=None):
    """Fold one completed cell into the result and the journal."""
    result.reports[key] = report
    result.records.extend(report.bugs)
    result.fused_total += report.fused
    result.elapsed_total += report.elapsed
    if telemetry is not None:
        telemetry.count("cells")
    if journal is not None:
        # The print/journal phase: serializing bug scripts back to
        # SMT-LIB and committing the cell durably. Timed only —
        # telemetry never writes into the journal itself.
        with (telemetry or NULL_TELEMETRY).phase("journal_write"):
            journal.record_cell(key, report)


def run_campaign(
    corpora,
    solvers=None,
    iterations_per_cell=120,
    seed=0,
    fusion_config=None,
    performance_threshold=0.3,
    policy=None,
    journal=None,
    resume=False,
    mode="serial",
    workers=1,
    solver_factory=None,
    telemetry=None,
    strategy="fusion",
    supervise=None,
    containment=None,
    chaos_process=None,
    triage=False,
    incremental=False,
    logic=None,
    steal_seed=0,
    listen=None,
    spawn_workers=None,
    net_chaos=None,
):
    """Run the full campaign.

    ``corpora`` maps family name to
    :class:`~repro.core.oracle.SeedCorpus`. Returns a
    :class:`CampaignResult`.

    ``policy`` wraps every solver in a
    :class:`~repro.robustness.guard.GuardedSolver` (watchdog, retries,
    error containment, quarantine). ``journal`` (a path or a
    :class:`~repro.robustness.journal.CampaignJournal`) durably records
    each completed (solver, corpus, oracle) cell; with ``resume=True``
    completed cells are loaded from the journal instead of re-run, so a
    campaign interrupted by ^C or a crash continues where it stopped.
    Cells are deterministic given ``seed``, so an interrupted-and-
    resumed campaign produces the same records as an uninterrupted one
    — even when the resume uses a different ``mode`` or ``workers``
    than the original run.

    ``logic`` names the campaign's logic restriction (e.g. ``"QF_BV"``)
    for the journal header; like ``strategy``, it is stamped into the
    journal meta only when set, so default-campaign journal bytes are
    unchanged, and a resume refuses to mix logics.

    ``mode`` / ``workers`` select the execution mode (see the module
    docstring). ``solver_factory`` is a picklable zero-argument
    callable building the solvers under test; process mode requires it
    (it defaults to :func:`default_solvers` when ``solvers`` is not
    given) because live solver objects cannot cross a spawn boundary.

    ``telemetry`` (a :class:`~repro.observability.Telemetry`) collects
    metrics/traces/profiles for the whole campaign. It is strictly an
    observer: it draws no randomness, and journal bytes are identical
    with telemetry off, on, or traced (see
    ``tests/test_parallel_determinism.py``). In process mode each
    worker runs its own telemetry and the parent merges per-shard
    snapshots, exactly like sidecar journals.

    ``strategy`` selects the mutation workload by registry name
    (``"fusion"``, ``"concatfuzz"``, ``"opfuzz"``, ...) or as a ready
    :class:`~repro.strategies.base.MutationStrategy` instance; the
    journal records it (non-default strategies only, to keep fusion
    journal bytes stable) and a resume refuses to mix strategies.

    Process and tcp campaigns always run under the self-healing
    coordinator: dead or hung workers are respawned, their shard leases
    resume from crash-safe checkpoints, and an iteration that keeps
    killing (or raising in) its worker is bisected out and quarantined
    as a reproduction artifact (``result.poisoned`` / journal
    ``poison`` entries) instead of failing the campaign. ``supervise``
    is the :class:`~repro.robustness.supervisor.SupervisorPolicy` it
    runs under (``None``: the default policy). ``containment`` (a
    :class:`~repro.robustness.containment.ContainmentPolicy`) applies
    rlimits inside every worker; ``chaos_process`` (a
    :class:`~repro.robustness.chaos.ProcessChaos`) injects planned
    worker-level faults for recovery testing. All three only act at
    the worker boundary, so serial campaigns do not consult them.

    ``triage=True`` routes each mutant to a solve-budget tier before
    checking (:class:`~repro.campaign.triage.TriagePolicy`). Routing is
    a pure function of the mutant's formula, so journals stay identical
    across modes and worker counts; the journal records the tier spec
    and the unknown-kind split, and a resume refuses to mix triage and
    non-triage shards. ``False`` keeps journal bytes identical to the
    pre-triage campaign.

    ``mode="tcp"`` runs the campaign over a socket worker fleet
    (:class:`~repro.distributed.endpoint.TcpFleet`):
    ``listen`` is the coordinator's ``(host, port)`` (default
    127.0.0.1 on an ephemeral port), ``spawn_workers`` the number of
    local ``yinyang worker`` processes to start (default ``workers``;
    0 to serve only externally-connected workers), ``steal_seed``
    seeds the work-stealing permutation (any seed must merge to
    identical journal bytes — that invariant is the product), and
    ``net_chaos`` (a :class:`~repro.distributed.netchaos.NetChaos`)
    injects planned disconnects and seeded frame faults for recovery
    testing.

    ``incremental=True`` switches on incremental solving: each
    cell/shard builds a
    :class:`~repro.solver.session.SolverSession` from its seed pool —
    an outcome cache plus assumption-guarded warm SAT starts — over one
    theory memo per campaign process (serial: the campaign; process or
    tcp: each worker), which opfuzz's oracle shares too. All reuse is
    answer-invariant by construction, so journals stay byte-identical
    across modes and worker counts (the journal records the session
    spec; a resume refuses to mix incremental and cold shards).
    ``False`` keeps the cold solve path and pre-session journal bytes.
    A non-bool ``triage`` or ``incremental`` raises :class:`TypeError`.
    """
    if mode not in CAMPAIGN_MODES:
        raise ValueError(f"mode must be one of {CAMPAIGN_MODES}, got {mode!r}")
    if supervise is not None and not isinstance(supervise, SupervisorPolicy):
        raise TypeError(
            f"supervise must be a SupervisorPolicy or None, got {supervise!r}"
        )
    if net_chaos is not None and mode != "tcp":
        raise ValueError("net_chaos needs mode='tcp': it faults the wire")
    config = YinYangConfig(
        fusion=fusion_config or FusionConfig(),
        seed=seed,
        triage=triage,
        incremental=incremental,
    )
    workers = max(1, workers)
    strategy_name = strategy if isinstance(strategy, str) else strategy.name
    if mode != "serial" and solver_factory is None and solvers is not None:
        raise ValueError(
            f"{mode} mode needs solver_factory (a picklable callable); "
            "live solver objects cannot be shipped to worker processes"
        )
    solver_factory = solver_factory or default_solvers
    if solvers is None:
        solvers = solver_factory()
    if journal is not None and not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    # Solvers outside the fault-injected family (ProcessSolver, a bare
    # ReferenceSolver, chaos wrappers around one) have no fault catalog.
    result = CampaignResult(
        catalogs={
            s.name: getattr(s, "active_faults", lambda: [])() for s in solvers
        },
        mode=mode,
        workers=workers,
        strategy=strategy_name,
    )
    journal_meta, sidecar_meta = _campaign_meta(
        config, iterations_per_cell, strategy_name, logic, workers
    )
    completed = {}
    if journal is not None:
        if triage:
            # The split counters ride every cell report of a triage run.
            journal.unknown_split = True
        journal.ensure_meta(**journal_meta)
        journal.ensure_strategy(strategy_name)
        if resume:
            completed = journal.completed_cells()
    cells = _campaign_cells(solvers, corpora)
    # Resumed cells are folded in first, in canonical order, so the
    # in-memory result (not just the journal) is shard- and
    # interruption-independent.
    remaining = []
    for key, solver, seeds in cells:
        if key in completed:
            _absorb_cell(result, key, completed[key], journal=None)
        else:
            remaining.append((key, solver, seeds))
    if mode in ("process", "tcp"):
        _run_cells_supervised(
            result,
            remaining,
            config=config,
            iterations_per_cell=iterations_per_cell,
            performance_threshold=performance_threshold,
            policy=policy,
            solver_factory=solver_factory,
            journal=journal,
            resume=resume,
            workers=workers,
            telemetry=telemetry,
            strategy=strategy_name,
            sidecar_meta=sidecar_meta,
            supervise=supervise,
            containment=containment,
            chaos_process=chaos_process,
            mode=mode,
            steal_seed=steal_seed,
            listen=listen,
            spawn_workers=spawn_workers,
            net_chaos=net_chaos,
        )
        return result
    # One strategy instance shared across all cells and solvers: its
    # caches (e.g. opfuzz's reference solver) keep earning, and mutants
    # stay a pure function of (strategy, seed, index) regardless.
    strategy_obj = (
        make_strategy(strategy_name, config.fusion)
        if isinstance(strategy, str)
        else strategy
    )
    # One theory memo for the whole serial campaign: every cell's
    # session and the strategy's oracle replay each other's theory
    # checks (cells of different solvers draw the same mutants).
    theory_memo = {} if incremental else None
    tools = {}
    for key, solver, seeds in remaining:
        tool = tools.get(key[0])
        if tool is None:
            tool = tools[key[0]] = YinYang(
                solver,
                config,
                performance_threshold=performance_threshold,
                policy=policy,
                telemetry=telemetry,
                strategy=strategy_obj,
                theory_memo=theory_memo,
            )
        report = tool.test(key[2], seeds, iterations=iterations_per_cell)
        _absorb_cell(result, key, report, journal, telemetry)
    return result


def _campaign_meta(config, iterations_per_cell, strategy, logic, workers):
    """The campaign parameters a journal and its sidecars are stamped
    with: ``(journal_meta, sidecar_meta)``.

    Opt-in features (triage, incremental sessions, a logic restriction)
    stamp their spec only when on, so default-campaign journal bytes
    stay stable while a resume that would mix budgets, warm and cold
    shards, or catalogs mismatches and is refused. Fusion journals
    predate strategies and omit the strategy key. Sidecars are
    transient (removed once the campaign lands in the main journal), so
    they always carry the strategy, plus the worker count their shard
    partition depends on.
    """
    meta = {"seed": config.seed, "iterations_per_cell": iterations_per_cell}
    if config.triage:
        meta["triage"] = TRIAGE_SPEC
    if config.incremental:
        meta["incremental"] = SESSION_SPEC
    if logic:
        meta["logic"] = logic
    sidecar_meta = dict(meta, strategy=strategy, workers=workers)
    if strategy != "fusion":
        meta["strategy"] = strategy
    return meta, sidecar_meta


def _run_cells_supervised(
    result,
    remaining,
    config,
    iterations_per_cell,
    performance_threshold,
    policy,
    solver_factory,
    journal,
    resume,
    workers,
    telemetry,
    strategy,
    sidecar_meta,
    supervise,
    containment,
    chaos_process,
    mode,
    steal_seed,
    listen,
    spawn_workers,
    net_chaos,
):
    """Run the remaining cells as supervised shard leases.

    Builds the lease backend for ``mode`` — the in-process
    :class:`~repro.core.parallel.SupervisedPoolBackend` or a socket
    :class:`~repro.distributed.endpoint.TcpFleet` — and hands the cell
    loop to the :class:`~repro.distributed.coordinator.Coordinator`:
    one supervisor spans the campaign (restart budget and counters are
    campaign-global), cells run one at a time in canonical order (each
    sharded ``workers`` ways) and are journaled exactly as a serial run
    would, each shard's checkpoints live in a lease progress file next
    to the journal, and a lease re-executed after a worker death
    replays its completed iterations — the merged cell report, and
    therefore the journal, matches a failure-free run byte for byte.
    Poisoned iterations are journaled as ``poison`` entries and
    collected on ``result.poisoned``.
    """
    from repro.core.parallel import (
        SupervisedPoolBackend,
        WorkerSpec,
        reconstruct_iteration_script,
    )
    from repro.distributed.coordinator import Coordinator

    partials = {}
    if journal is not None and resume:
        partials = load_sidecar_shards(journal.path, sidecar_meta)
    spec = WorkerSpec(
        solver_factory=solver_factory,
        config=config,
        performance_threshold=performance_threshold,
        policy=policy,
        # tcp workers never see the journal's host path — the
        # coordinator records fleet shards in its own sidecar instead.
        journal_path=(
            journal.path if journal is not None and mode == "process" else None
        ),
        journal_meta=sidecar_meta if mode == "process" else {},
        telemetry=telemetry.config() if telemetry is not None else None,
        containment=containment,
        chaos_process=chaos_process,
    )

    def poison_artifact(task, index):
        return reconstruct_iteration_script(
            config,
            task.strategy,
            task.oracle,
            task.seed_texts,
            task.logics,
            task.seed,
            index,
        )

    def on_poison(record):
        if journal is not None and record.cell is not None:
            journal.record_poison(tuple(record.cell), record.as_dict())

    if mode == "tcp":
        from repro.distributed.endpoint import TcpFleet

        backend = TcpFleet(
            workers,
            spec,
            listen=listen or ("127.0.0.1", 0),
            steal_seed=steal_seed,
            spawn_workers=spawn_workers,
            net_chaos=net_chaos,
            telemetry=telemetry,
        )
    else:
        backend = SupervisedPoolBackend(workers, spec)
    with backend:
        coordinator = Coordinator(
            backend,
            policy=supervise,
            containment=containment,
            telemetry=telemetry,
            poison_artifact=poison_artifact,
            on_poison=on_poison,
        )
        coordinator.run_cells(
            result,
            remaining,
            spec=spec,
            iterations_per_cell=iterations_per_cell,
            journal=journal,
            partials=partials,
            workers=workers,
            strategy=strategy,
            sidecar_meta=sidecar_meta,
            fleet_sidecar=(mode == "tcp"),
        )
    if journal is not None:
        # Every cell is durably in the main journal now; the sidecar
        # partials and lease checkpoints have served their purpose.
        remove_sidecars(journal.path)
