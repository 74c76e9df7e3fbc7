"""The campaign-plan owner: cells → shard leases → a supervised fleet.

Every process campaign runs through here, on one lease backend: a
socket :class:`~repro.distributed.endpoint.TcpFleet` (by default on
127.0.0.1, spawning its own workers).
The coordinator owns exactly three responsibilities:

1. **planning** — each remaining (family, oracle) cell becomes
   ``workers`` strided shard leases for the solvers that lack its
   report, each with a crash-safe progress log next to the journal;
2. **supervision** — one :class:`~repro.robustness.supervisor.Supervisor`
   spans the whole campaign (restart budget and counters are
   campaign-global) and drives every lease to completion through
   retries, bisection and poison quarantine, whatever the transport;
3. **merging** — shard payloads come home in *completion* order, from
   any worker, possibly as several bisected fragments per shard; the
   stable-global-id merge reassembles them into each solver's
   canonical cell report, so the journal's bytes are a pure function of
   the plan, not of scheduling.

Resume needs nothing from the coordinator beyond the plan: a cell the
journal lacks for some solver is leased again for those solvers, and
each of its leases replays the
iterations its progress log already holds — whichever worker wrote
them.
"""

from __future__ import annotations

from functools import partial

from repro.core.parallel import (
    ShardTask,
    collect_shard,
    reconstruct_iteration_script,
    serialize_seeds,
)
from repro.core.yinyang import (
    combine_solver_reports,
    merge_shard_reports,
    shard_indices,
)
from repro.distributed.endpoint import TcpFleet
from repro.observability.telemetry import NULL_TELEMETRY
from repro.robustness.journal import lease_progress_path
from repro.robustness.supervisor import Supervisor


class Coordinator:
    """Runs the cells of campaign ``spec`` as supervised shard leases.

    Builds the campaign's worker fleet and the one supervisor that
    drives it; leaving the ``with`` block closes the fleet, whose shape
    (``spec.listen``, ``spec.spawn_workers``, ``spec.steal_seed``,
    ``spec.net_chaos``) the coordinator never reads. With a
    ``journal``, cells are committed
    to it, poisoned iterations are journaled as ``poison`` entries, and
    leases checkpoint next to it; without one (``YinYang.test``) the
    caller reads the cells off the result.
    """

    def __init__(self, spec, journal=None, telemetry=None):
        self.spec = spec
        self.journal = journal
        self.telemetry = telemetry
        self.backend = TcpFleet(spec, telemetry=telemetry)
        self.supervisor = Supervisor(
            self.backend,
            spec,
            telemetry=telemetry,
            poison_artifact=partial(reconstruct_iteration_script, spec),
            on_poison=self._on_poison,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.backend.close()
        return False

    def _on_poison(self, record):
        if self.journal is not None:
            self.journal.record_poison(record.cell, record.as_dict())

    # -- planning ---------------------------------------------------------

    def plan_cell(self, cell, texts, logics, solver_names, quarantined):
        """The shard leases of one (family, oracle) ``cell``, checked by
        ``solver_names`` (``None``: every solver the workers build)."""
        workers = self.spec.workers
        leases = []
        for shard in range(workers):
            indices = shard_indices(self.spec.iterations_per_cell, shard, workers)
            if len(indices) == 0:
                continue
            progress_path = None
            if self.journal is not None:
                progress_path = lease_progress_path(
                    self.journal.path, cell, shard, workers
                )
            task = ShardTask(
                oracle=cell[1],
                seed_texts=texts,
                logics=logics,
                shard=shard,
                cell=cell,
                solver_names=solver_names,
                quarantined=tuple(sorted(quarantined)),
                progress_path=progress_path,
            )
            leases.append(self.supervisor.lease((cell, shard), task, indices))
        return leases

    # -- the cell loop ----------------------------------------------------

    def run_cells(self, result, remaining, commit):
        """Drive every remaining ``(cell, seeds, solver_names)`` to
        completion, in canonical order, one at a time; hand each cell's
        merged ``[(solver name, report)]`` to ``commit(cell, pairs)``.

        Per-shard counters go to ``result.shard_counters[cell]``. Once
        any shard's breaker trips for a solver, later cells pre-quarantine
        it everywhere, as one guard object spans a serial campaign.
        """
        telemetry = self.telemetry
        workers = self.spec.workers
        quarantined = set()
        for cell, seeds, solver_names in remaining:
            # The print phase: seeds cross to workers as SMT-LIB text.
            with (telemetry or NULL_TELEMETRY).phase("print"):
                texts, logics = serialize_seeds(seeds)
            leases = self.plan_cell(cell, texts, logics, solver_names, quarantined)
            outcome = self.supervisor.run(leases)
            # Bisected fragments and shards merge per solver; merging
            # orders bugs by iteration, so completion order is invisible.
            per_solver = {}
            counters = []
            for (_cell, shard), pairs in sorted(outcome.items()):
                shard_fragments = [collect_shard(p) for _lease, p in pairs]
                for _lease, payload in pairs:
                    if telemetry is not None and payload.get("telemetry") is not None:
                        telemetry.merge_snapshot(payload["telemetry"])
                if solver_names is None:
                    solver_names = list(shard_fragments[0])
                reports = [
                    merge_shard_reports([f[name] for f in shard_fragments])
                    for name in solver_names
                ]
                counters.append(
                    {
                        "shard": shard,
                        "of": workers,
                        "pid": pairs[-1][1]["pid"],
                        **combine_solver_reports(reports).counters(),
                        "elapsed": reports[0].elapsed,
                    }
                )
                for name, report in zip(solver_names, reports):
                    per_solver.setdefault(name, []).append(report)
            merged = [
                (name, merge_shard_reports(per_solver.get(name, [])))
                for name in solver_names or ()
            ]
            for _name, report in merged:
                quarantined |= report.quarantined
            result.shard_counters[cell] = counters
            commit(cell, merged)
        result.poisoned = list(self.supervisor.poisoned)
        result.supervision = dict(self.supervisor.counters)
        return result
