"""Tests for the fault model, catalogs, and the faulty solver wrapper."""

from collections import Counter

import pytest

from repro.cli import make_solver
from repro.faults.catalog import (
    cvc4_like_catalog,
    demo_rewrite_faults,
    z3_like_catalog,
)
from repro.faults.fault import Fault, analyze_script
from repro.faults.faulty_solver import FaultySolver
from repro.faults.releases import PAPER_RELEASE_IMPACT, release_impact
from repro.faults.tracker import (
    CVC4_SOUNDNESS_PER_YEAR,
    Z3_SOUNDNESS_PER_YEAR,
    found_share,
)
from repro.smtlib.parser import parse_script
from repro.solver.result import SolverCrash
from repro.solver.solver import ReferenceSolver


class TestAnalyze:
    def test_logic_inference_arith(self):
        script = parse_script("(declare-fun x () Int)(assert (> x 0))(check-sat)")
        assert analyze_script(script).logic_family == "QF_LIA"

    def test_logic_inference_nonlinear_via_fusion_artifacts(self):
        script = parse_script(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (> (div z y) 0))(check-sat)"
        )
        assert analyze_script(script).logic_family == "QF_NIA"

    def test_logic_inference_quantified(self):
        script = parse_script(
            "(declare-fun r () Real)(assert (exists ((h Real)) (> (* h r) 0.0)))(check-sat)"
        )
        assert analyze_script(script).logic_family == "NRA"

    def test_logic_strings(self):
        script = parse_script(
            '(declare-fun s () String)(assert (= (str.len s) 1))(check-sat)'
        )
        assert analyze_script(script).logic_family == "QF_S"

    def test_logic_slia_needs_int_variable(self):
        script = parse_script(
            "(declare-fun s () String)(declare-fun i () Int)"
            "(assert (= i (str.len s)))(check-sat)"
        )
        assert analyze_script(script).logic_family == "QF_SLIA"

    def test_patterns_detected(self):
        script = parse_script(
            "(declare-fun z () String)(declare-fun x () String)"
            '(assert (= x (str.substr z 0 (str.len x))))(check-sat)'
        )
        info = analyze_script(script)
        assert info.has("substr-by-len")
        assert info.has("concat-definition") is False

    def test_nested_replace_pattern(self):
        script = parse_script(
            '(declare-fun a () String)'
            '(assert (= "" (str.replace (str.replace a "b" "") "c" "")))(check-sat)'
        )
        info = analyze_script(script)
        assert info.has("nested-replace")
        assert info.has("replace-with-empty")


class TestCatalogShape:
    def test_counts_match_figure8a(self):
        z3 = z3_like_catalog()
        cvc4 = cvc4_like_catalog()
        assert len(z3) == 44 and len(cvc4) == 13
        z3_status = Counter(f.status for f in z3)
        assert z3_status["fixed"] == 35
        assert z3_status["fixed"] + z3_status["confirmed"] == 37
        assert z3_status["duplicate"] == 4
        assert z3_status["wontfix"] == 2
        cvc4_status = Counter(f.status for f in cvc4)
        assert cvc4_status["fixed"] == 6
        assert cvc4_status["fixed"] + cvc4_status["confirmed"] == 8
        assert cvc4_status["duplicate"] == 1

    def test_kinds_match_figure8b(self):
        confirmed = [
            f for f in z3_like_catalog() if f.status in ("fixed", "confirmed")
        ]
        kinds = Counter(f.kind for f in confirmed)
        assert kinds == {"soundness": 24, "crash": 11, "performance": 1, "unknown": 1}

    def test_logics_match_figure8c(self):
        confirmed = [
            f for f in z3_like_catalog() if f.status in ("fixed", "confirmed")
        ]
        logics = Counter(f.logic for f in confirmed)
        assert logics["NRA"] == 15 and logics["QF_S"] == 15
        assert logics["QF_SLIA"] == 3 and logics["NIA"] == 2 and logics["QF_NRA"] == 2

    def test_release_windows_match_figure10(self):
        confirmed = [
            f
            for f in z3_like_catalog() + cvc4_like_catalog()
            if f.kind == "soundness" and f.status in ("fixed", "confirmed")
        ]
        assert release_impact(confirmed, "z3-like") == PAPER_RELEASE_IMPACT["z3-like"]
        assert release_impact(confirmed, "cvc4-like") == PAPER_RELEASE_IMPACT["cvc4-like"]

    def test_unique_fault_ids(self):
        ids = [f.fault_id for f in z3_like_catalog() + cvc4_like_catalog()]
        assert len(ids) == len(set(ids))

    def test_duplicates_reference_existing_roots(self):
        z3 = {f.fault_id: f for f in z3_like_catalog()}
        for fault in z3.values():
            if fault.status == "duplicate":
                assert fault.duplicate_of in z3

    def test_tracker_totals(self):
        assert sum(Z3_SOUNDNESS_PER_YEAR.values()) == 146
        assert sum(CVC4_SOUNDNESS_PER_YEAR.values()) == 42

    def test_found_share_rq2(self):
        confirmed = [
            f
            for f in z3_like_catalog() + cvc4_like_catalog()
            if f.kind == "soundness" and f.status in ("fixed", "confirmed")
        ]
        assert found_share(confirmed, "z3-like") == (24, 146)
        assert found_share(confirmed, "cvc4-like") == (5, 42)


class TestFaultySolver:
    def test_transparent_without_trigger(self, solver):
        buggy = make_solver("z3-like")
        text = "(declare-fun x () Int)(assert (> x 0))(check-sat)"
        assert str(buggy.check_result(text)) == "sat"

    def test_answer_fault_gives_wrong_result(self):
        buggy = make_solver("z3-like")
        # QF_S to-int-of-term (figure-13a fault): unsat formula, buggy says sat.
        text = (
            '(declare-fun a () String)'
            '(assert (>= (str.to.int (str.++ a "x")) 0))'
            '(assert (= a ""))'
            '(assert (< (str.len a) 0))(check-sat)'
        )
        assert str(buggy.check_result(text)) == "sat"

    def test_crash_fault_raises_with_signature(self):
        buggy = make_solver("z3-like")
        from repro.faults.paper_samples import sample_by_figure

        script = parse_script(sample_by_figure("13f").smt2)
        with pytest.raises(SolverCrash) as excinfo:
            buggy.check_script(script)
        assert "segmentation fault" in str(excinfo.value)
        assert excinfo.value.fault_id.startswith("z3-crash")

    def test_release_filter(self):
        trunk = make_solver("z3-like", release="trunk")
        old = make_solver("z3-like", release="4.6.0")
        assert len(old.active_faults()) < len(trunk.active_faults())
        for fault in old.active_faults():
            assert "4.6.0" in fault.affected_releases

    def test_triggered_faults_listing(self):
        buggy = make_solver("cvc4-like")
        from repro.faults.paper_samples import sample_by_figure

        script = parse_script(sample_by_figure("13b").smt2)
        ids = [f.fault_id for f in buggy.triggered_faults(script)]
        assert "cvc4-soundness-003" in ids

    def test_bogus_model_attached_to_wrong_sat(self):
        buggy = make_solver("z3-like")
        from repro.faults.paper_samples import sample_by_figure

        script = parse_script(sample_by_figure("13a").smt2)
        outcome = buggy.check_script(script)
        assert str(outcome.result) == "sat"
        assert outcome.model is not None  # the paper shows bogus models too


class TestDemoRewriteFaults:
    def test_toint_empty_rewrite_changes_verdict(self):
        faults = demo_rewrite_faults()
        buggy = FaultySolver(ReferenceSolver(), faults, "demo")
        # unsat via str.to.int("") = -1; the rewrite treats it as 0.
        text = (
            "(declare-fun s () String)"
            "(assert (= s \"\"))"
            "(assert (= 0 (str.to.int (str.replace s s s))))(check-sat)"
        )
        reference = ReferenceSolver()
        assert str(reference.check_result(text)) == "unsat"
        assert str(buggy.check_result(text)) == "sat"

    def test_rewrite_notes_fault_id(self):
        faults = demo_rewrite_faults()
        buggy = FaultySolver(ReferenceSolver(), faults, "demo")
        text = (
            "(declare-fun s () String)"
            "(assert (= s \"\"))"
            "(assert (= 0 (str.to.int (str.replace s s s))))(check-sat)"
        )
        outcome = buggy.check(text)
        assert outcome.reason.startswith("fault:demo-")
        assert "demo-toint-empty" in outcome.stats["rewrite_faults"]

class TestThreadSafety:
    def test_last_triggered_is_per_thread(self):
        """Threads sharing one FaultySolver must each see their own
        trigger list (a guard's watchdog can leave an abandoned check
        running on its helper thread while the next check starts)."""
        import threading

        from repro.faults.paper_samples import sample_by_figure

        buggy = make_solver("cvc4-like")
        triggering = parse_script(sample_by_figure("13b").smt2)
        benign = parse_script(
            "(declare-fun q () Int)(assert (> q 0))(check-sat)"
        )
        mismatches = []
        barrier = threading.Barrier(2)

        def worker(script, expect_triggered):
            barrier.wait()
            for _ in range(50):
                try:
                    buggy.check_script(script)
                except SolverCrash:
                    pass
                triggered = bool(buggy.last_triggered)
                if triggered != expect_triggered:
                    mismatches.append((script, triggered))

        threads = [
            threading.Thread(target=worker, args=(triggering, True)),
            threading.Thread(target=worker, args=(benign, False)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []

    def test_last_triggered_empty_before_any_check(self):
        assert make_solver("z3-like").last_triggered == []
