"""Integration tests for the YinYang loop (Algorithm 1) and ConcatFuzz."""

import pytest

from repro.core.concatfuzz import concat_scripts
from repro.core.config import FusionConfig, YinYangConfig
from repro.core.yinyang import YinYang
from repro.smtlib.parser import parse_script
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

SAT_SEEDS = [
    parse_script("(declare-fun x () Int)(assert (> x 0))(check-sat)"),
    parse_script("(declare-fun y () Int)(assert (< y 9))(check-sat)"),
    parse_script("(declare-fun w () Int)(assert (= w 4))(check-sat)"),
]
UNSAT_SEEDS = [
    parse_script("(declare-fun x () Int)(assert (> x 0))(assert (< x 0))(check-sat)"),
    parse_script("(declare-fun y () Int)(assert (distinct y y))(check-sat)"),
]


class _StubSolver:
    """A scriptable solver for exercising Algorithm 1's branches."""

    name = "stub"

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = 0

    def check_script(self, script, directive=None, session=None):
        self.calls += 1
        mode = self.behavior
        if mode == "crash":
            raise SolverCrash("boom", kind="segfault")
        if mode == "always-sat":
            return CheckOutcome(SolverResult.SAT)
        if mode == "always-unsat":
            return CheckOutcome(SolverResult.UNSAT)
        if mode == "error-unknown":
            return CheckOutcome(SolverResult.UNKNOWN, reason="error: internal")
        return CheckOutcome(SolverResult.UNKNOWN)


class TestAlgorithmOne:
    def test_consistent_solver_reports_nothing(self):
        tool = YinYang(_StubSolver("always-sat"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=10)
        assert report.bugs == []
        assert report.fused == 10

    def test_wrong_answer_recorded_as_soundness(self):
        tool = YinYang(_StubSolver("always-unsat"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=8)
        assert len(report.incorrects) == 8
        assert all(b.kind == "soundness" for b in report.bugs)
        assert all(b.oracle == "sat" and b.reported == "unsat" for b in report.bugs)

    def test_crash_recorded(self):
        tool = YinYang(_StubSolver("crash"), YinYangConfig(seed=1))
        report = tool.test("unsat", UNSAT_SEEDS, iterations=5)
        assert len(report.crashes) == 5

    def test_plain_unknown_ignored_by_default(self):
        tool = YinYang(_StubSolver("unknown"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=6)
        assert report.bugs == []
        assert report.unknowns == 6

    def test_unknown_as_crash_policy(self):
        config = YinYangConfig(seed=1, unknown_is_crash=True)
        tool = YinYang(_StubSolver("unknown"), config)
        report = tool.test("sat", SAT_SEEDS, iterations=4)
        assert len(report.bugs) == 4
        assert all(b.kind == "unknown" for b in report.bugs)

    def test_internal_error_unknown_always_recorded(self):
        tool = YinYang(_StubSolver("error-unknown"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=3)
        assert len(report.bugs) == 3
        assert all(b.note.startswith("error:") for b in report.bugs)

    def test_multiple_solvers_checked_per_formula(self):
        a, c = _StubSolver("always-sat"), _StubSolver("always-sat")
        tool = YinYang([a, c], YinYangConfig(seed=2))
        tool.test("sat", SAT_SEEDS, iterations=7)
        assert a.calls == c.calls == 7

    def test_thread_mode_is_gone(self):
        # Threads bought nothing under the GIL; parallel runs go through
        # supervised process leases instead.
        tool = YinYang(_StubSolver("always-sat"), YinYangConfig(seed=3))
        with pytest.raises(TypeError):
            tool.test("sat", SAT_SEEDS, iterations=4, threads=2)
        with pytest.raises(ValueError, match="mode"):
            tool.test("sat", SAT_SEEDS, iterations=4, mode="thread", workers=2)

    def test_throughput_positive(self):
        tool = YinYang(_StubSolver("always-sat"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=5)
        assert report.throughput > 0

    def test_requires_seeds(self):
        tool = YinYang(_StubSolver("always-sat"))
        with pytest.raises(ValueError):
            tool.test("sat", [], iterations=1)

    def test_labeled_seeds_accepted(self):
        from repro.core.oracle import LabeledSeed

        seeds = [LabeledSeed(s, "sat", "QF_LIA") for s in SAT_SEEDS]
        tool = YinYang(_StubSolver("always-unsat"), YinYangConfig(seed=1))
        report = tool.test("sat", seeds, iterations=3)
        assert all(b.logic == "QF_LIA" for b in report.bugs)

    def test_fuse_once_helper(self):
        tool = YinYang(_StubSolver("always-sat"))
        result = tool.fuse_once("sat", SAT_SEEDS[0], SAT_SEEDS[1], seed=4)
        assert result.oracle == "sat"
        assert result.triplets


class TestConcatFuzz:
    def test_sat_concat_is_conjunction(self, solver):
        script = concat_scripts("sat", SAT_SEEDS[0], SAT_SEEDS[1])
        assert len(script.asserts) == 2
        assert str(solver.check_script(script).result) == "sat"

    def test_unsat_concat_is_disjunction(self, solver):
        script = concat_scripts("unsat", UNSAT_SEEDS[0], UNSAT_SEEDS[1])
        assert len(script.asserts) == 1
        assert str(solver.check_script(script).result) == "unsat"

    def test_concat_renames_collisions(self, solver):
        clone = parse_script("(declare-fun x () Int)(assert (< x 5))(check-sat)")
        script = concat_scripts("sat", SAT_SEEDS[0], clone)
        names = [v.name for v in script.free_variables()]
        assert len(names) == len(set(names)) == 2

    def test_concat_introduces_no_fresh_variables(self):
        script = concat_scripts("sat", SAT_SEEDS[0], SAT_SEEDS[1])
        assert {v.name for v in script.free_variables()} == {"x", "y"}

    def test_bad_oracle(self):
        from repro.errors import FusionError

        with pytest.raises(FusionError):
            concat_scripts("nope", SAT_SEEDS[0], SAT_SEEDS[1])


class TestReportObject:
    def test_summary_format(self):
        tool = YinYang(_StubSolver("always-unsat"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=2)
        text = report.summary()
        assert "2 iterations" in text and "soundness" in text

    def test_bug_record_str(self):
        tool = YinYang(_StubSolver("always-unsat"), YinYangConfig(seed=1))
        report = tool.test("sat", SAT_SEEDS, iterations=1)
        assert "expected sat, got unsat" in str(report.bugs[0])


class TestMixedFusionMode:
    def test_mixed_sat_mode(self, solver):
        tool = YinYang(solver, YinYangConfig(seed=5))
        report = tool.test_mixed("sat", SAT_SEEDS, UNSAT_SEEDS, iterations=5)
        assert report.fused == 5
        assert report.incorrects == []  # the reference solver is sound

    def test_mixed_unsat_mode(self, solver):
        tool = YinYang(solver, YinYangConfig(seed=5))
        report = tool.test_mixed("unsat", SAT_SEEDS, UNSAT_SEEDS, iterations=5)
        assert report.fused == 5
        assert report.incorrects == []

    def test_mixed_detects_wrong_answers(self):
        tool = YinYang(_StubSolver("always-unsat"), YinYangConfig(seed=5))
        report = tool.test_mixed("sat", SAT_SEEDS, UNSAT_SEEDS, iterations=4)
        assert len(report.incorrects) == 4

    def test_mixed_requires_both_labels(self):
        tool = YinYang(_StubSolver("always-sat"))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tool.test_mixed("sat", SAT_SEEDS, [], iterations=1)
