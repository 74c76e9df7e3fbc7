"""The campaign runner: YinYang against buggy solvers over all corpora.

This is the offline equivalent of the paper's four-month testing
campaign, compressed: for each (corpus, oracle) cell the runner fuses
seed pairs, checks each mutant against every solver under test and
records every bug-triggering formula (journaled per solver), then triage
(:mod:`repro.campaign.classify`) maps records to catalog faults.

A long campaign is expected to be interrupted and to meet misbehaving
solvers; ``run_campaign`` therefore accepts a
:class:`~repro.robustness.policy.ResiliencePolicy` (guarded execution)
and a :class:`~repro.robustness.journal.CampaignJournal` (crash-safe
per-cell journaling with ``resume=True`` skipping completed cells).

``run_campaign`` validates its keyword arguments once, into a frozen
:class:`~repro.core.config.CampaignSpec`, and hands only the spec
down. Campaigns run in one of two execution modes:

- ``serial`` — one process, one thread (the default): one
  :class:`~repro.core.parallel.CellRunner` runs every cell whole;
- ``process`` — each cell's iterations leased to a socket fleet of
  worker processes, each with a runner of its own
  (:mod:`repro.distributed`): by default ``workers`` local processes
  on 127.0.0.1; it can also listen elsewhere and serve
  ``yinyang worker`` processes started by hand.

Both modes run their cells through the same per-process runner and
cell loop. A process campaign splits each cell into leases:
every shard is a lease that
the :class:`~repro.distributed.coordinator.Coordinator` hands to a
socket worker fleet through a
:class:`~repro.robustness.supervisor.Supervisor`, so dead or hung
workers are always healed. Every lease of a journaled campaign
checkpoints its iterations to a lease progress log next to the
journal; a resume leases the cells some solver lacks again, for those
solvers, and replays those logs, so no completed iteration is solved
twice. All modes and worker
counts produce identical bug records and identical journal bytes for a
fixed seed; sharding is invisible to the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.campaign.classify import collect_found_faults, found_fault_objects
from repro.core.config import CampaignSpec, FusionConfig, YinYangConfig
from repro.core.parallel import CellRunner
from repro.faults.catalog import bv_fault_catalog, cvc4_like_catalog, z3_like_catalog
from repro.faults.faulty_solver import FaultySolver
from repro.observability.telemetry import NULL_TELEMETRY
from repro.robustness.journal import CampaignJournal, JournalError, remove_lease_logs
from repro.solver.solver import ReferenceSolver, SolverConfig


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
    process campaigns ship them to their worker processes.
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
    # (corpus, oracle) -> [per-shard counter dicts] (process mode)
    shard_counters: dict = field(default_factory=dict)
    # Process mode: quarantined poison-iteration artifacts
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


def _campaign_cells(corpora):
    """The campaign's cells, one per (family, oracle), in canonical order."""
    cells = []
    for family, corpus in corpora.items():
        for oracle in ("sat", "unsat"):
            seeds = corpus.by_oracle(oracle)
            if len(seeds) >= 1:
                cells.append(((family, oracle), seeds))
    return cells


def _absorb_cell(result, key, report, journal, telemetry=None):
    """Fold one solver's completed cell into the result and the journal."""
    result.reports[key] = report
    result.records.extend(report.bugs)
    result.fused_total += report.fused
    if telemetry is not None:
        telemetry.count("cells")
    if journal is not None:
        # The print/journal phase: serializing bug scripts back to
        # SMT-LIB text and committing the cell durably. Timed only —
        # telemetry never writes into the journal itself.
        with (telemetry or NULL_TELEMETRY).phase("journal_write"):
            journal.record_cell(key, report)


def _committer(result, keys, journal, telemetry):
    """``commit(cell, [(solver name, report)])`` for the cell loops: a
    cell yields every solver's report at once, and each is held until
    every journal key before it (``keys`` run solver-major) is committed,
    so the journal and the result read as if each solver ran alone."""
    held = {}
    waiting = deque(keys)

    def commit(cell, pairs):
        pairs = list(pairs)
        # Every solver's report of one cell run shares its wall time.
        result.elapsed_total += max((r.elapsed for _n, r in pairs), default=0.0)
        held.update(((name, *cell), report) for name, report in pairs)
        while waiting and waiting[0] in held:
            key = waiting.popleft()
            _absorb_cell(result, key, held.pop(key), journal, telemetry)

    return commit


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
    each solver's completed (solver, corpus, oracle) cell; with
    ``resume=True`` completed cells are loaded from the journal and a
    cell runs again only for the solvers that lack it, so a campaign
    interrupted by ^C or a crash continues where it stopped.
    A journal is refused (:class:`~repro.robustness.journal.JournalError`)
    when it was written with other campaign settings, or when it holds
    completed work and ``resume`` is False (a second run would journal
    every cell twice).
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
    given) because live solver objects cannot cross a process
    boundary. Spawned workers load the calling script as
    ``__mp_main__``, so a factory defined there works too.

    ``telemetry`` (a :class:`~repro.observability.Telemetry`) collects
    metrics/traces/profiles for the whole campaign. It is strictly an
    observer: it draws no randomness, and journal bytes are identical
    with telemetry off, on, or traced (see
    ``tests/test_parallel_determinism.py``). In process mode each
    worker runs its own telemetry and the parent merges per-shard
    snapshots, exactly like shard reports.

    ``strategy`` selects the mutation workload by registry name
    (``"fusion"``, ``"concatfuzz"``, ``"opfuzz"``, ...); the journal
    records it (non-default strategies only, to keep fusion journal
    bytes stable) and a resume refuses to mix strategies.

    Process campaigns always run under the self-healing
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
    worker-level faults for recovery testing.

    ``triage=True`` routes each mutant to a solve-budget tier before
    checking (:class:`~repro.campaign.triage.TriagePolicy`). Routing is
    a pure function of the mutant's formula, so journals stay identical
    across modes and worker counts; the journal records the tier spec
    and the unknown-kind split, and a resume refuses to mix triage and
    non-triage shards. ``False`` keeps journal bytes identical to the
    pre-triage campaign.

    A process campaign's worker fleet
    (:class:`~repro.distributed.endpoint.TcpFleet`) takes four more
    settings: ``listen`` is the coordinator's ``(host, port)``
    (default 127.0.0.1 on an ephemeral port), ``spawn_workers`` the
    number of local ``yinyang worker`` processes to start (default
    ``workers``; 0 to serve only externally-connected workers),
    ``steal_seed`` seeds the work-stealing permutation (any seed must
    merge to identical journal bytes — that invariant is the
    product), and ``net_chaos`` (a
    :class:`~repro.distributed.netchaos.NetChaos`) injects seeded
    frame faults for recovery testing.

    ``incremental=True`` switches on incremental solving: each
    cell/shard builds a
    :class:`~repro.solver.session.SolverSession` — an outcome cache —
    over one theory memo per campaign process (serial: the campaign;
    process: each worker), which opfuzz's oracle shares too.
    Both replay exact answers, so an incremental campaign journals the
    same cells as a cold one, in every mode and at every worker count;
    only the meta line differs (it records the session spec, and a
    resume refuses to mix incremental and cold shards).

    Every argument but ``corpora``, ``solvers``, ``journal``,
    ``resume`` and ``telemetry`` goes into one frozen
    :class:`~repro.core.config.CampaignSpec`, validated before any
    work starts. It raises :class:`~repro.errors.CampaignSpecError` (a
    :class:`ValueError`) for an unknown ``mode``, ``workers < 1``, a
    process campaign without a ``solver_factory`` (when ``solvers``
    is given), and any setting a serial campaign would ignore:
    ``workers > 1``, ``supervise``, ``containment``,
    ``chaos_process``, ``steal_seed``, ``listen``, ``spawn_workers``
    or ``net_chaos``. A
    ``supervise`` that is not a ``SupervisorPolicy``, a strategy that
    is not a registry name, and a non-bool ``triage`` or
    ``incremental`` raise :class:`TypeError`.
    """
    if solver_factory is None and solvers is None:
        solver_factory = default_solvers
    spec = CampaignSpec(
        config=YinYangConfig(
            fusion=fusion_config or FusionConfig(),
            seed=seed,
            triage=triage,
            incremental=incremental,
        ),
        iterations_per_cell=iterations_per_cell,
        strategy=strategy,
        logic=logic,
        performance_threshold=performance_threshold,
        policy=policy,
        solver_factory=solver_factory,
        mode=mode,
        workers=workers,
        supervise=supervise,
        containment=containment,
        chaos_process=chaos_process,
        steal_seed=steal_seed,
        listen=listen,
        spawn_workers=spawn_workers,
        net_chaos=net_chaos,
    )
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
        strategy=strategy,
    )
    completed = {}
    if journal is not None:
        if triage:
            # The split counters ride every cell report of a triage run.
            journal.unknown_split = True
        journal.ensure_meta(**spec.describe()[0])
        if resume:
            completed = journal.completed_cells()
        elif any(e.get("type") in ("cell", "poison") for e in journal.entries):
            raise JournalError(
                f"journal {journal.path} already holds completed cells; "
                "resume it or start a new journal"
            )
    cells = _campaign_cells(corpora)
    names = [solver.name for solver in solvers]
    keys = [(name, *cell) for name in names for cell, _seeds in cells]
    # Resumed cells are folded in first, in canonical order, so the
    # in-memory result (not just the journal) is shard- and
    # interruption-independent. A cell runs again only for the solvers
    # that lack its report.
    for key in keys:
        if key in completed:
            _absorb_cell(result, key, completed[key], journal=None)
    commit = _committer(
        result, [key for key in keys if key not in completed], journal, telemetry
    )
    remaining = []
    for cell, seeds in cells:
        missing = tuple(name for name in names if (name, *cell) not in completed)
        if missing:
            remaining.append((cell, seeds, missing))
    if mode != "serial":
        # Imported lazily: the distributed layer imports this module.
        from repro.distributed.coordinator import Coordinator

        with Coordinator(spec, journal, telemetry) as coordinator:
            coordinator.run_cells(result, remaining, commit)
    else:
        # A serial campaign is the one-process case of the fleet's cell
        # loop: one runner owns the guarded solvers, the strategy and
        # the theory memo, and runs each cell whole, with no hook and
        # no log.
        runner = CellRunner(spec, solvers)
        for cell, seeds, missing in remaining:
            reports = runner.run(
                cell[1],
                [getattr(seed, "script", seed) for seed in seeds],
                [getattr(seed, "logic", "") for seed in seeds],
                range(iterations_per_cell),
                [runner.by_name[name] for name in missing],
                telemetry=telemetry,
            )
            commit(cell, zip(missing, reports))
    if journal is not None:
        # Every cell is durably journaled: the lease logs (also those
        # of an interrupted fleet run resumed here) are spent.
        remove_lease_logs(journal.path)
    return result
