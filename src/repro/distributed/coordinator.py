"""The campaign-plan owner: cells → shard leases → a supervised fleet.

Every process and tcp campaign runs through here, on one lease
backend: a socket :class:`~repro.distributed.endpoint.TcpFleet` (for a
process campaign, a fleet on 127.0.0.1 that spawns its own workers).
The coordinator owns exactly three responsibilities:

1. **planning** — each remaining (solver, family, oracle) cell becomes
   ``workers`` strided shard leases, each with a crash-safe progress
   log next to the journal;
2. **supervision** — one :class:`~repro.robustness.supervisor.Supervisor`
   spans the whole campaign (restart budget and counters are
   campaign-global) and drives every lease to completion through
   retries, bisection and poison quarantine, whatever the transport;
3. **merging** — shard payloads come home in *completion* order, from
   any worker, possibly as several bisected fragments per shard; the
   stable-global-id merge reassembles them into the canonical cell
   report, so the journal's bytes are a pure function of the plan, not
   of scheduling.

Resume needs nothing from the coordinator beyond the plan: a cell the
journal lacks is leased again, and each of its leases replays the
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
from repro.core.yinyang import merge_shard_reports, shard_indices
from repro.distributed.endpoint import TcpFleet
from repro.observability.telemetry import NULL_TELEMETRY
from repro.robustness.journal import lease_progress_path
from repro.robustness.supervisor import Supervisor


class Coordinator:
    """Runs the cells of campaign ``spec`` as supervised shard leases.

    Builds the campaign's worker fleet and the one supervisor that
    drives it; leaving the ``with`` block closes the fleet. The mode
    only shapes the fleet (``spec.listen``, ``spec.spawn_workers`` and
    ``spec.net_chaos`` are tcp settings; a process campaign keeps their
    defaults). With a ``journal``, cells are committed
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
            self.journal.record_poison(tuple(record.cell), record.as_dict())

    # -- planning ---------------------------------------------------------

    def plan_cell(self, key, texts, logics, quarantined):
        """The cell's shard leases.

        A cell whose key names no solver (``YinYang.test``'s one cell)
        is checked by every solver the workers build.
        """
        workers = self.spec.workers
        leases = []
        for shard in range(workers):
            indices = shard_indices(self.spec.iterations_per_cell, shard, workers)
            if len(indices) == 0:
                continue
            progress_path = None
            if self.journal is not None:
                progress_path = lease_progress_path(
                    self.journal.path, key, shard, workers
                )
            task = ShardTask(
                oracle=key[2],
                seed_texts=texts,
                logics=logics,
                shard=shard,
                cell=key,
                solver_names=None if key[0] is None else (key[0],),
                quarantined=tuple(sorted(quarantined)),
                progress_path=progress_path,
            )
            leases.append(self.supervisor.lease((key, shard), task, indices))
        return leases

    # -- the cell loop ----------------------------------------------------

    def run_cells(self, result, remaining):
        """Drive every remaining cell to completion; fold into ``result``.

        Cells run in canonical order, one at a time, with per-shard
        counters, quarantine aggregation between cells (once any
        shard's breaker trips for a solver, later cells pre-quarantine
        it everywhere, mirroring serial mode where one guard object
        spans the campaign) and a journal commit per completed cell.
        """
        from repro.campaign.runner import _absorb_cell

        telemetry = self.telemetry
        workers = self.spec.workers
        journal = self.journal
        quarantined = set()
        seed_text_cache = {}
        for key, _solver, seeds in remaining:
            cache_key = (key[1], key[2])
            if cache_key not in seed_text_cache:
                # The print phase: seeds cross to workers as SMT-LIB text.
                with (telemetry or NULL_TELEMETRY).phase("print"):
                    seed_text_cache[cache_key] = serialize_seeds(seeds)
            texts, logics = seed_text_cache[cache_key]
            leases = self.plan_cell(key, texts, logics, quarantined)
            outcome = self.supervisor.run(leases)
            shard_reports = {}
            counters = {}
            for (_cell, shard), pairs in outcome.items():
                reports = []
                pid = None
                for _lease, payload in pairs:
                    reports.append(collect_shard(payload))
                    pid = payload["pid"]
                    if telemetry is not None and payload.get("telemetry") is not None:
                        telemetry.merge_snapshot(payload["telemetry"])
                report = shard_reports[shard] = (
                    reports[0] if len(reports) == 1 else merge_shard_reports(reports)
                )
                counters[shard] = {
                    "shard": shard,
                    "of": workers,
                    "pid": pid,
                    **report.counters(),
                    "elapsed": report.elapsed,
                }
            merged = merge_shard_reports(
                [shard_reports[shard] for shard in sorted(shard_reports)]
            )
            quarantined |= merged.quarantined
            result.shard_counters[key] = [counters[shard] for shard in sorted(counters)]
            _absorb_cell(result, key, merged, journal, telemetry)
        result.poisoned = list(self.supervisor.poisoned)
        result.supervision = dict(self.supervisor.counters)
        return result
