"""Process-mode campaign tests: resume across worker counts, resume
from lease progress logs, and cross-worker quarantine aggregation.

The resume contract under test: a journal written at one worker count
must resume correctly at *any* other worker count — no cell duplicated,
none skipped — because the main journal is keyed by cell (worker-count
independent) while lease progress logs carry the campaign's full lease
meta and are discarded whenever it does not match (another partition,
or any other setting).
"""

import json

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.observability.telemetry import Telemetry
from repro.robustness import ResiliencePolicy, ShardProgress
from repro.robustness.journal import (
    lease_progress_path,
    lease_progress_paths,
    serialize_bug_record,
)
from repro.seeds import build_corpus
from repro.solver.result import SolverCrash

# deterministic_solvers: no wall-clock solver deadline, so resume
# equality cannot be broken by a borderline check timing out in only
# one of the compared runs.
CAMPAIGN = dict(
    iterations_per_cell=8,
    seed=6,
    performance_threshold=None,
    solver_factory=deterministic_solvers,
)


@pytest.fixture(scope="module")
def corpora():
    return {
        "QF_S": build_corpus("QF_S", scale=0.0015, seed=5),
        "QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5),
    }


@pytest.fixture(scope="module")
def baseline(corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "baseline.jsonl"
    result = run_campaign(corpora, journal=path, **CAMPAIGN)
    return result, path.read_bytes()


def serialized(records):
    return [json.dumps(serialize_bug_record(r), sort_keys=True) for r in records]


def _interrupt_after_cells(corpora, path, after_cells, **kwargs):
    """Run a journaled campaign that dies after ``after_cells`` cells.

    The interrupt fires in the parent as the (after_cells+1)-th cell is
    being folded in — by then its workers have already checkpointed
    every iteration to their lease logs, exactly the crash window
    lease-log resume exists for.
    """
    import repro.campaign.runner as runner_mod

    original = runner_mod._absorb_cell
    state = {"cells": 0}

    def interrupting(result, key, report, journal, telemetry=None):
        if state["cells"] >= after_cells:
            raise KeyboardInterrupt
        state["cells"] += 1
        return original(result, key, report, journal, telemetry)

    runner_mod._absorb_cell = interrupting
    try:
        with pytest.raises(KeyboardInterrupt):
            run_campaign(corpora, journal=path, **CAMPAIGN, **kwargs)
    finally:
        runner_mod._absorb_cell = original


def _cell_keys_in_journal(path):
    keys = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        if entry.get("type") == "cell":
            keys.append((entry["solver"], entry["family"], entry["oracle"]))
    return keys


class TestResumeAcrossWorkerCounts:
    def test_serial_interrupt_resumes_in_process_mode(
        self, corpora, baseline, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(corpora, path, after_cells=3)
        resumed = run_campaign(
            corpora, journal=path, resume=True, mode="process", workers=3, **CAMPAIGN
        )
        assert serialized(resumed.records) == serialized(baseline[0].records)
        assert path.read_bytes() == baseline[1]

    def test_process_interrupt_resumes_at_different_worker_count(
        self, corpora, baseline, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=2, mode="process", workers=2
        )
        resumed = run_campaign(
            corpora, journal=path, resume=True, mode="process", workers=3, **CAMPAIGN
        )
        assert serialized(resumed.records) == serialized(baseline[0].records)
        assert path.read_bytes() == baseline[1]
        # No duplicated and no skipped cells, despite the mismatched
        # sidecar partition from the workers=2 run.
        keys = _cell_keys_in_journal(path)
        assert len(keys) == len(set(keys)) == len(baseline[0].reports)

    def test_process_interrupt_resumes_serially(self, corpora, baseline, tmp_path):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=3, mode="process", workers=2
        )
        resumed = run_campaign(corpora, journal=path, resume=True, **CAMPAIGN)
        assert serialized(resumed.records) == serialized(baseline[0].records)
        assert path.read_bytes() == baseline[1]
        # The serial run finished the journal, so the interrupted
        # process run's lease logs are spent and removed too.
        assert _leftovers(path) == []


def _logged_iterations(path):
    """Iteration ids recorded in one lease log (read-only: opening a
    :class:`ShardProgress` with the wrong meta would reset the file)."""
    with open(path, encoding="utf-8") as handle:
        return {json.loads(line)["i"] for line in list(handle)[1:]}


def _leftovers(path):
    """Every transient file next to the journal (lease logs, ``.tmp``)."""
    return sorted(path.parent.glob(path.name + ".*"))


def _counted_iterations(telemetry):
    """Iterations run (each checks its mutant against every solver)."""
    return telemetry.snapshot()["counters"]["iterations"]


def _cell_count(keys):
    """The (family, oracle) cells behind ``(solver, family, oracle)`` keys."""
    return len({key[1:] for key in keys})


#: Lease meta as ``CampaignSpec.describe`` stamps it (plus the shard).
LEASE_META = {"seed": 1, "iterations_per_cell": 8, "strategy": "fusion", "workers": 2}


class TestLeaseLogResume:
    def test_iterations_replayed_at_same_worker_count(
        self, corpora, baseline, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=2, mode="process", workers=2
        )
        # The interrupted cell's iterations reached its lease logs even
        # though the cell never reached the main journal.
        keys = list(baseline[0].reports)
        assert keys[2] not in _cell_keys_in_journal(path)
        cell = keys[2][1:]  # the leased (family, oracle) cell
        logged = set()
        for shard in range(2):
            logged |= _logged_iterations(lease_progress_path(path, cell, shard, 2))
        assert logged == set(range(CAMPAIGN["iterations_per_cell"]))

        telemetry = Telemetry()
        resumed = run_campaign(
            corpora,
            journal=path,
            resume=True,
            mode="process",
            workers=2,
            telemetry=telemetry,
            **CAMPAIGN,
        )
        # The three cells that ran are replayed from their lease logs,
        # which hold every solver's reports (the two journaled cells
        # still lacked their second solver's). Only the last cell ran.
        per_cell = CAMPAIGN["iterations_per_cell"]
        assert _counted_iterations(telemetry) == (_cell_count(keys) - 3) * per_cell
        assert resumed.summary_counters() == baseline[0].summary_counters()
        assert serialized(resumed.records) == serialized(baseline[0].records)
        assert path.read_bytes() == baseline[1]
        assert _leftovers(path) == []  # cleaned up after success

    def test_mismatched_lease_log_meta_discarded(self, tmp_path):
        path = tmp_path / "campaign.jsonl.lease-s-f-sat-0of2.jsonl"
        meta = dict(LEASE_META, shard=0)
        ShardProgress(path, meta=meta).record(0, {"iterations": 1})
        assert ShardProgress(path, meta=meta).completed == {0: {"iterations": 1}}
        for stale in (
            dict(meta, workers=3),  # another partition
            dict(meta, seed=2),
            dict(meta, triage="hard@4:1/2,hopeless@9:1/8"),  # extra key
            {k: v for k, v in meta.items() if k != "strategy"},  # missing key
            {},  # empty meta
        ):
            ShardProgress(path, meta=stale).record(0, {"iterations": 1})
            assert ShardProgress(path, meta=meta).completed == {}

    def test_unreadable_lease_log_costs_only_rework(
        self, corpora, baseline, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=2, mode="process", workers=2
        )
        logs = lease_progress_paths(path)
        assert logs
        for log in logs:
            with open(log, "w", encoding="utf-8") as handle:
                handle.write("not json at all\n")
        telemetry = Telemetry()
        run_campaign(
            corpora,
            journal=path,
            resume=True,
            mode="process",
            workers=2,
            telemetry=telemetry,
            **CAMPAIGN,
        )
        # Nothing was replayed: every cell lacking a solver's journaled
        # report ran in full, for the solvers it lacked.
        per_cell = CAMPAIGN["iterations_per_cell"]
        assert _counted_iterations(telemetry) == _cell_count(baseline[0].reports) * per_cell
        assert path.read_bytes() == baseline[1]
        assert _leftovers(path) == []

    @pytest.mark.parametrize("setting", ["triage", "incremental"])
    def test_stale_lease_log_of_another_setting_is_not_replayed(
        self, corpora, baseline, tmp_path, setting
    ):
        """A lease log left by a campaign that differs only in one
        opt-in setting (its journal since deleted) is discarded: its
        iterations ran under other budgets or sessions and must not be
        merged into this campaign's cells."""
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=0, mode="process", workers=2,
            **{setting: True},
        )
        assert lease_progress_paths(path)
        path.unlink()
        telemetry = Telemetry()
        run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            telemetry=telemetry,
            **CAMPAIGN,
        )
        per_cell = CAMPAIGN["iterations_per_cell"]
        assert _counted_iterations(telemetry) == _cell_count(baseline[0].reports) * per_cell
        assert path.read_bytes() == baseline[1]
        assert _leftovers(path) == []


class CrashingSolver:
    """Deterministically segfaults on every check (picklable by name,
    so process-mode workers can rebuild it from the factory)."""

    name = "crashy"

    def check_script(self, script, directive=None, session=None):
        raise SolverCrash("simulated segfault", kind="segfault")


def crashing_solvers():
    return [CrashingSolver()]


class TestQuarantineAggregation:
    def test_quarantine_propagates_across_workers_and_cells(self):
        corpora = {"QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5)}
        result = run_campaign(
            corpora,
            mode="process",
            workers=2,
            policy=ResiliencePolicy(quarantine_after=2),
            **dict(CAMPAIGN, solver_factory=crashing_solvers),
        )
        keys = list(result.reports)
        assert len(keys) >= 2
        first = result.reports[keys[0]]
        # Both workers trip their breakers inside the first cell...
        assert "crashy" in first.quarantined
        assert any(b.kind == "crash" for b in first.bugs)
        # ...and the parent pre-quarantines the solver everywhere after:
        # later cells skip every check and record no further crashes.
        for key in keys[1:]:
            report = result.reports[key]
            assert report.quarantine_skips > 0
            assert not report.bugs
            assert "crashy" in report.quarantined
