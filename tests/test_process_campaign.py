"""Process-mode campaign tests: resume across worker counts, sidecar
shard journals, and cross-worker quarantine aggregation.

The resume contract under test (satellite of the sharded-execution
work): a journal written at one worker count must resume correctly at
*any* other worker count — no cell duplicated, none skipped — because
the main journal is keyed by cell (worker-count independent) while
partial-shard sidecars carry their own meta and are discarded whenever
the partition would not line up.
"""

import json

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.yinyang import YinYangReport
from repro.robustness import CampaignJournal, ResiliencePolicy
from repro.robustness.journal import (
    load_sidecar_shards,
    serialize_bug_record,
    sidecar_path,
    sidecar_paths,
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
    being folded in — by then its workers have already journaled their
    shards to sidecars, exactly the crash window sidecar resume exists
    for.
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


class TestSidecarResume:
    def test_completed_shards_reused_at_same_worker_count(
        self, corpora, baseline, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        _interrupt_after_cells(
            corpora, path, after_cells=2, mode="process", workers=2
        )
        # The interrupted cell's shards reached the sidecars even
        # though the cell never reached the main journal.
        assert sidecar_paths(path)
        meta = dict(seed=CAMPAIGN["seed"],
                    iterations_per_cell=CAMPAIGN["iterations_per_cell"],
                    workers=2)
        partials = load_sidecar_shards(path, meta)
        journaled = set(_cell_keys_in_journal(path))
        assert any(key not in journaled for key in partials)

        resumed = run_campaign(
            corpora, journal=path, resume=True, mode="process", workers=2, **CAMPAIGN
        )
        reused = [
            key
            for key, shards in resumed.shard_counters.items()
            if shards and all(c["resumed"] for c in shards)
        ]
        assert reused  # at least the interrupted cell came from sidecars
        assert serialized(resumed.records) == serialized(baseline[0].records)
        assert path.read_bytes() == baseline[1]
        assert sidecar_paths(path) == []  # cleaned up after success

    def test_mismatched_sidecar_meta_ignored(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        side = CampaignJournal(sidecar_path(path, 7))
        side.ensure_meta(seed=1, iterations_per_cell=8, workers=2)
        side.record_shard(("s", "f", "sat"), 0, 2, YinYangReport(iterations=4))
        meta = dict(seed=1, iterations_per_cell=8, workers=2)
        assert ("s", "f", "sat") in load_sidecar_shards(path, meta)
        assert load_sidecar_shards(path, dict(meta, workers=3)) == {}
        assert load_sidecar_shards(path, dict(meta, seed=2)) == {}

    def test_unreadable_sidecar_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with open(sidecar_path(path, 3), "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        meta = dict(seed=1, iterations_per_cell=8, workers=2)
        assert load_sidecar_shards(path, meta) == {}


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
