"""Tests for the reduce, campaign, stats and telemetry CLI surface."""

import json

import pytest

from repro.cli import main
from repro.smtlib.parser import parse_script


@pytest.fixture()
def bug_file(tmp_path):
    """A small formula that triggers z3-soundness-014 (to-int-of-term)."""
    path = tmp_path / "bug.smt2"
    path.write_text(
        "(declare-fun a () String)\n"
        '(assert (>= (str.to.int (str.++ a "x")) 0))\n'
        '(assert (= a ""))\n'
        "(assert (< (str.len a) 0))\n"
        "(check-sat)\n"
    )
    return str(path)


class TestReduceCommand:
    def test_reduce_soundness_bug(self, bug_file, capsys):
        code = main(
            ["reduce", bug_file, "--solver", "z3-like", "--expect", "unsat"]
        )
        out = capsys.readouterr().out
        assert code == 0
        reduced = parse_script(out)
        # Reduction keeps a bug-triggering core, smaller than the input.
        assert 1 <= len(reduced.asserts) <= 3

    def test_reduce_crash_bug(self, tmp_path, capsys):
        from repro.faults.paper_samples import sample_by_figure

        path = tmp_path / "crash.smt2"
        path.write_text(sample_by_figure("13f").smt2)
        code = main(
            ["reduce", str(path), "--solver", "z3-like", "--expect", "crash"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(check-sat)" in out

    def test_reduce_rejects_non_bug(self, tmp_path):
        path = tmp_path / "fine.smt2"
        path.write_text("(declare-fun x () Int)(assert (> x 0))(check-sat)\n")
        from repro.errors import ReductionError

        with pytest.raises(ReductionError):
            main(["reduce", str(path), "--solver", "z3-like", "--expect", "unsat"])


class TestCampaignCommand:
    def test_campaign_prints_tables(self, capsys):
        code = main(["campaign", "--scale", "0.0005", "--iterations", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 8a" in out and "Figure 8c" in out
        assert "Reported" in out

class TestResilienceFlags:
    def test_test_command_accepts_hardening_flags(self, capsys):
        code = main(
            [
                "test",
                "--oracle",
                "sat",
                "--corpus",
                "QF_LIA",
                "--scale",
                "0.003",
                "--iterations",
                "4",
                "--retries",
                "2",
                "--check-timeout",
                "30",
                "--quarantine-after",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations" in out

    def test_campaign_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        args = [
            "campaign",
            "--scale",
            "0.0005",
            "--iterations",
            "3",
            "--journal",
            journal,
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Second run resumes: every cell is journaled, nothing re-runs,
        # and the summary still renders from the journal alone.
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "fused formulas" in out

    def test_campaign_rerun_without_resume_exits_2(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        args = ["campaign", "--scale", "0.0005", "--iterations", "1",
                "--journal", journal]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: journal ") and "resume" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_resume_without_journal_rejected(self, capsys):
        code = main(["campaign", "--resume"])
        assert code == 2
        assert "requires --journal" in capsys.readouterr().err


_TINY_CAMPAIGN = ["campaign", "--scale", "0.0005", "--iterations", "3",
                  "--deterministic"]


class TestTelemetryCli:
    def test_metrics_sidecar_leaves_journal_alone(self, tmp_path, capsys):
        plain = tmp_path / "plain.jsonl"
        assert main(_TINY_CAMPAIGN + ["--journal", str(plain)]) == 0
        metered = tmp_path / "metered.jsonl"
        sidecar = tmp_path / "metrics.json"
        assert (
            main(
                _TINY_CAMPAIGN
                + ["--journal", str(metered), "--metrics", str(sidecar), "--trace"]
            )
            == 0
        )
        capsys.readouterr()
        # The metered journal is byte-identical: metrics went out-of-band.
        assert metered.read_bytes() == plain.read_bytes()
        snapshot = json.loads(sidecar.read_text())
        assert snapshot["counters"]["iterations"] > 0
        assert any(name.startswith("phase.") for name in snapshot["histograms"])

    def test_trace_without_sidecar_prints_profile(self, capsys):
        assert main(_TINY_CAMPAIGN + ["--trace"]) == 0
        assert "Phase profile" in capsys.readouterr().out

    def test_coverage_flag_fills_coverage_sets(self, tmp_path, capsys):
        sidecar = tmp_path / "metrics.json"
        args = _TINY_CAMPAIGN + ["--metrics", str(sidecar), "--coverage"]
        assert main(args) == 0
        capsys.readouterr()
        snapshot = json.loads(sidecar.read_text())
        assert snapshot["sets"]["coverage.line.fired"]
        assert snapshot["gauges"]["coverage.line.registered"] > 0

    def test_test_subcommand_writes_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "metrics.json"
        code = main(
            [
                "test", "--oracle", "sat", "--corpus", "QF_LIA",
                "--scale", "0.003", "--iterations", "4",
                "--metrics", str(sidecar),
            ]
        )
        capsys.readouterr()
        assert code == 0
        snapshot = json.loads(sidecar.read_text())
        assert snapshot["counters"]["iterations"] == 4


class TestStatsCommand:
    @pytest.fixture()
    def campaign_artifacts(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        sidecar = tmp_path / "metrics.json"
        assert (
            main(
                _TINY_CAMPAIGN
                + ["--journal", str(journal), "--metrics", str(sidecar), "--trace"]
            )
            == 0
        )
        capsys.readouterr()
        return str(journal), str(sidecar)

    def test_stats_with_metrics(self, campaign_artifacts, capsys):
        journal, sidecar = campaign_artifacts
        assert main(["stats", "--journal", journal, "--metrics", sidecar]) == 0
        out = capsys.readouterr().out
        assert "Per-cell results" in out
        assert "Bugs by kind" in out
        assert "Metrics" in out
        assert "Phase profile" in out

    def test_stats_journal_only(self, campaign_artifacts, capsys):
        journal, _ = campaign_artifacts
        assert main(["stats", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "Per-cell results" in out
        assert "Phase profile" not in out
