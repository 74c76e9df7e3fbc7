"""Tests for the probe-based coverage layer (the Gcov stand-in)."""

from repro.campaign.runner import deterministic_bv_solvers, run_campaign
from repro.coverage.probes import (
    CoverageSession,
    branch_probe,
    coverage_session,
    declare_probes,
    function_probe,
    line_probe,
    registry_snapshot,
)
from repro.coverage.report import CoverageReport, average_reports
from repro.seeds import build_corpus
from repro.solver.bitblast import BitBlaster
from repro.solver.sat import SatSolver


class TestProbes:
    def test_probe_outside_session_is_noop(self):
        line_probe("test.noop")  # must not raise

    def test_session_collects_fired(self):
        with coverage_session("t") as session:
            line_probe("test.fired.1")
            function_probe("test.func.1")
        assert "test.fired.1" in session.fired["line"]
        assert "test.func.1" in session.fired["function"]

    def test_unfired_probes_count_in_denominator(self):
        declare_probes("line", ["test.never.fired.a", "test.never.fired.b"])
        with coverage_session("t") as session:
            line_probe("test.fired.2")
        fired, registered = session.counts()["line"]
        assert fired == 1
        assert registered >= 3

    def test_branch_declares_both_arms(self):
        with coverage_session("t") as session:
            taken = branch_probe("test.branch.1", True)
        assert taken is True
        assert "test.branch.1:T" in session.fired["branch"]
        snapshot = registry_snapshot()
        assert snapshot["branch"] >= 2  # both arms registered

    def test_branch_returns_condition(self):
        with coverage_session("t"):
            assert branch_probe("test.branch.2", False) is False

    def test_nested_sessions_both_collect(self):
        with coverage_session("outer") as outer:
            with coverage_session("inner") as inner:
                line_probe("test.nested")
        assert "test.nested" in outer.fired["line"]
        assert "test.nested" in inner.fired["line"]

    def test_merge(self):
        a = CoverageSession()
        b = CoverageSession()
        a.fired["line"].add("x")
        b.fired["line"].add("y")
        a.merge(b)
        assert a.fired["line"] == {"x", "y"}

    def test_percentages_monotone_in_fired(self):
        with coverage_session("small") as small:
            line_probe("test.mono.1")
        with coverage_session("big") as big:
            line_probe("test.mono.1")
            line_probe("test.mono.2")
        assert big.percentages()["line"] >= small.percentages()["line"]


class TestSolverInstrumentation:
    def test_solver_run_fires_probes(self, solver):
        with coverage_session("solve") as session:
            solver.check("(declare-fun x () Int)(assert (> x 0))(check-sat)")
        assert session.counts()["line"][0] > 0
        assert session.counts()["function"][0] > 0
        assert session.counts()["branch"][0] > 0

    def test_string_logic_reaches_string_probes(self, solver):
        with coverage_session("arith") as arith:
            solver.check("(declare-fun x () Int)(assert (> x 0))(check-sat)")
        with coverage_session("strings") as strings:
            solver.check(
                '(declare-fun s () String)(assert (= (str.len s) 1))(check-sat)'
            )
        string_only = {
            p for p in strings.fired["function"] if p.startswith("strings.")
        }
        assert string_only
        assert not any(p.startswith("strings.") for p in arith.fired["function"])

    def test_coverage_far_below_total(self, solver):
        # One easy formula touches a small slice of the solver — the
        # paper's "mostly below 30%" observation for single-logic runs.
        with coverage_session("one") as session:
            solver.check("(declare-fun x () Int)(assert (= x 1))(check-sat)")
        assert session.percentages()["line"] < 60.0


class TestReports:
    def test_report_from_session(self):
        with coverage_session("t") as session:
            line_probe("test.report.1")
        report = CoverageReport.from_session(session, "label")
        assert report.label == "label"
        assert 0 <= report.line <= 100

    def test_dominates(self):
        a = CoverageReport("a", 10, 10, 10)
        b = CoverageReport("b", 9, 10, 8)
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_average(self):
        avg = average_reports(
            [CoverageReport("a", 10, 20, 30), CoverageReport("b", 20, 40, 50)], "avg"
        )
        assert (avg.line, avg.function, avg.branch) == (15, 30, 40)

    def test_average_empty(self):
        avg = average_reports([], "none")
        assert avg.line == 0.0

    def test_row_rounding(self):
        report = CoverageReport("r", 12.345, 67.891, 0.049)
        assert report.row() == (12.3, 67.9, 0.0)


class TestSatKernelProbes:
    """Figure 11 counts fired probes: kernel speed-ups must not move them.

    The expected set was recorded with the straightforward CDCL kernel
    (per-literal ``add_clause``, linear branching scan); a faster kernel
    that searches identically must fire exactly the same probes. Since
    the blaster folds and shares its gates it hands the kernel fewer
    clauses, which changes the search on blasted instances; the set of
    fired probes still holds.
    """

    EXPECTED = {
        "bitblast.check_bv",
        "bitblast.sat",
        "bitblast.unsat",
        "sat.add_clause",
        "sat.analyze",
        "sat.propagate",
        "sat.propagate.conflict",
        "sat.propagate.moved_watch",
        "sat.solve",
        "sat.solve.sat",
        "sat.solve.toplevel_conflict:F",
        "sat.solve.toplevel_conflict:T",
    }

    def test_bv_opfuzz_campaign_fires_the_recorded_kernel_probes(self):
        corpora = {"QF_BV": build_corpus("QF_BV", scale=0.02, seed=0)}
        with coverage_session("bv-opfuzz") as session:
            run_campaign(
                corpora,
                iterations_per_cell=20,
                seed=0,
                performance_threshold=None,
                solver_factory=deterministic_bv_solvers,
                logic="QF_BV",
                strategy="opfuzz",
                triage=True,
                incremental=True,
            )
        fired = {
            probe
            for probes in session.fired.values()
            for probe in probes
            if probe.startswith(("sat.", "bitblast."))
        }
        assert fired == self.EXPECTED

    def test_gate_clauses_fire_add_clause(self):
        sat = SatSolver()
        blaster = BitBlaster(sat)
        a, b = sat.new_var(), sat.new_var()
        with coverage_session("gate") as session:
            blaster._and(a, b)
        assert session.fired["function"] == {"sat.add_clause"}
