"""Tests for crash-safe campaign journaling and resume.

The acceptance test here: a campaign interrupted mid-run (simulated
``KeyboardInterrupt`` after k cells) resumes from its journal, skips
the k completed cells, and the merged :class:`CampaignResult` equals an
uninterrupted run byte-for-byte on serialized bug records.
"""

import json
import os

import pytest

from repro.campaign.runner import run_campaign
from repro.core.yinyang import BugRecord, YinYangReport
from repro.robustness import CampaignJournal, JournalError
from repro.robustness.journal import (
    deserialize_bug_record,
    deserialize_report,
    serialize_bug_record,
    serialize_report,
)
from repro.seeds import build_corpus
from repro.smtlib.parser import parse_script


def serialized(records):
    return [json.dumps(serialize_bug_record(r), sort_keys=True) for r in records]


@pytest.fixture(scope="module")
def corpora():
    return {
        "QF_S": build_corpus("QF_S", scale=0.0015, seed=5),
        "QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5),
    }


# The resume-equality contract is about bug *identity*, so the
# campaign runs without the wall-clock performance threshold (a
# performance record's payload is a timing measurement, which no
# journal can replay byte-for-byte).
CAMPAIGN = dict(iterations_per_cell=8, seed=6, performance_threshold=None)


class TestSerialization:
    def _record(self):
        return BugRecord(
            kind="soundness",
            solver="z3-like",
            oracle="unsat",
            reported="sat",
            script=parse_script(
                "(declare-fun x () Int)(assert (> x 0))(check-sat)"
            ),
            seed_indices=(3, 5),
            schemes=("int-sum",),
            logic="QF_LIA",
            elapsed=1.25,
            note="fault:z3-soundness-014",
        )

    def test_record_round_trips(self):
        record = self._record()
        data = serialize_bug_record(record)
        back = deserialize_bug_record(data)
        assert serialize_bug_record(back) == data
        assert back.kind == record.kind
        assert back.seed_indices == (3, 5)
        assert "declare-fun x" in back.script  # stored as SMT-LIB text

    def test_elapsed_excluded_from_serialization(self):
        data = serialize_bug_record(self._record())
        assert "elapsed" not in data

    def test_report_round_trips_with_counters(self):
        report = YinYangReport(
            iterations=10,
            fused=9,
            fusion_failures=1,
            unknowns=2,
            retries=3,
            timeouts=1,
            contained_errors=2,
            quarantine_skips=4,
        )
        report.quarantined = {"z3-like"}
        report.bugs = [self._record()]
        back = deserialize_report(serialize_report(report))
        assert back.iterations == 10
        assert back.retries == 3
        assert back.contained_errors == 2
        assert back.quarantined == {"z3-like"}
        assert len(back.bugs) == 1

    def test_none_script_survives(self):
        record = BugRecord(
            kind="crash", solver="s", oracle="sat", reported="x", script=None
        )
        assert deserialize_bug_record(serialize_bug_record(record)).script is None


class TestJournalFile:
    def test_journal_file_is_always_valid_jsonl(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.ensure_meta(seed=1, iterations_per_cell=4)
        journal.record_cell(("s", "f", "sat"), YinYangReport(iterations=4))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every committed line parses

    def test_reload_sees_recorded_cells(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.record_cell(("s", "f", "sat"), YinYangReport(iterations=4, fused=3))
        reloaded = CampaignJournal(path)
        cells = reloaded.completed_cells()
        assert cells[("s", "f", "sat")].fused == 3

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.record_cell(("s", "f", "sat"), YinYangReport(iterations=4))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "solver": "tr')  # torn write
        cells = CampaignJournal(path).completed_cells()
        assert len(cells) == 1  # the complete entry survives

    def test_meta_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal(path).ensure_meta(seed=1, iterations_per_cell=4)
        journal = CampaignJournal(path)
        with pytest.raises(JournalError):
            journal.ensure_meta(seed=2, iterations_per_cell=4)

    def test_bad_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "meta", "version": 999}\n')
        with pytest.raises(JournalError):
            CampaignJournal(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.record_cell(("s", "f", "sat"), YinYangReport())
        assert os.listdir(tmp_path) == ["j.jsonl"]


class TestCampaignResume:
    def _interrupted_campaign(self, corpora, path, after_cells):
        """Run a journaled campaign that dies after ``after_cells`` cells."""
        from repro.core.yinyang import YinYang

        original = YinYang.test
        state = {"cells": 0}

        def interrupting(self, *args, **kwargs):
            if state["cells"] >= after_cells:
                raise KeyboardInterrupt
            state["cells"] += 1
            return original(self, *args, **kwargs)

        YinYang.test = interrupting
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(corpora, journal=path, **CAMPAIGN)
        finally:
            YinYang.test = original

    def test_interrupted_campaign_resumes_byte_for_byte(self, corpora, tmp_path):
        baseline = run_campaign(corpora, **CAMPAIGN)
        assert baseline.records, "campaign must find bugs for this test to bite"

        path = tmp_path / "campaign.jsonl"
        self._interrupted_campaign(corpora, path, after_cells=3)
        journaled = CampaignJournal(path).completed_cells()
        assert len(journaled) == 3  # exactly the cells that finished

        resumed = run_campaign(corpora, journal=path, resume=True, **CAMPAIGN)
        assert len(resumed.reports) == len(baseline.reports)
        assert serialized(resumed.records) == serialized(baseline.records)

    def test_resume_skips_completed_cells(self, corpora, tmp_path):
        path = tmp_path / "campaign.jsonl"
        self._interrupted_campaign(corpora, path, after_cells=3)

        from repro.core.yinyang import YinYang

        original = YinYang.test
        ran = []

        def counting(self, *args, **kwargs):
            ran.append(1)
            return original(self, *args, **kwargs)

        YinYang.test = counting
        try:
            result = run_campaign(corpora, journal=path, resume=True, **CAMPAIGN)
        finally:
            YinYang.test = original
        total_cells = len(result.reports)
        assert sum(ran) == total_cells - 3  # the 3 journaled cells skipped

    def test_fully_journaled_campaign_runs_nothing(self, corpora, tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = run_campaign(corpora, journal=path, **CAMPAIGN)
        from repro.core.yinyang import YinYang

        original = YinYang.test
        ran = []
        YinYang.test = lambda self, *a, **k: ran.append(1) or original(self, *a, **k)
        try:
            again = run_campaign(corpora, journal=path, resume=True, **CAMPAIGN)
        finally:
            YinYang.test = original
        assert ran == []
        assert serialized(again.records) == serialized(first.records)

    def test_resume_with_wrong_params_refused(self, corpora, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(corpora, journal=path, **CAMPAIGN)
        with pytest.raises(JournalError):
            run_campaign(
                corpora,
                journal=path,
                resume=True,
                iterations_per_cell=99,
                seed=6,
                performance_threshold=None,
            )


class TestJournalRefusals:
    """A journal is appended to only by the campaign that wrote it, and
    only when that campaign resumes it."""

    TINY = dict(iterations_per_cell=1, seed=6, performance_threshold=None)

    @pytest.fixture(scope="class")
    def lia(self):
        return {"QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5)}

    @pytest.mark.parametrize(
        "setting",
        [("triage", True), ("incremental", True), ("logic", "QF_LIA")],
        ids=["triage", "incremental", "logic"],
    )
    @pytest.mark.parametrize("written_with", [True, False], ids=["on-off", "off-on"])
    def test_resume_refuses_a_flipped_setting(self, lia, tmp_path, setting, written_with):
        # Opt-in settings are stamped only when on, so one direction of
        # each flip leaves the key on one side of the comparison only.
        path = tmp_path / "campaign.jsonl"
        key, value = setting
        on = {key: value}
        run_campaign(lia, journal=path, **self.TINY, **(on if written_with else {}))
        blob = path.read_bytes()
        with pytest.raises(JournalError, match=key):
            run_campaign(
                lia, journal=path, resume=True, **self.TINY,
                **({} if written_with else on),
            )
        assert path.read_bytes() == blob

    def test_second_run_without_resume_refused(self, lia, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(lia, journal=path, **self.TINY)
        blob = path.read_bytes()
        with pytest.raises(JournalError, match="resume"):
            run_campaign(lia, journal=path, **self.TINY)
        assert path.read_bytes() == blob  # no cell journaled twice

    def test_poison_entry_alone_refuses_a_fresh_run(self, lia, tmp_path):
        path = tmp_path / "campaign.jsonl"
        journal = CampaignJournal(path)
        journal.ensure_meta(seed=6, iterations_per_cell=1)
        journal.record_poison(("z3-like", "QF_LIA", "sat"), {"iteration": 0})
        with pytest.raises(JournalError, match="resume"):
            run_campaign(lia, journal=path, **self.TINY)

    def test_meta_only_journal_runs_without_resume(self, lia, tmp_path):
        # Interrupted before its first cell: nothing to duplicate.
        path = tmp_path / "campaign.jsonl"
        CampaignJournal(path).ensure_meta(seed=6, iterations_per_cell=1)
        result = run_campaign(lia, journal=path, **self.TINY)
        assert len(CampaignJournal(path).completed_cells()) == len(result.reports)
