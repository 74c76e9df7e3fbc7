"""Tests for GuardedSolver: watchdog, retries, containment, quarantine."""

import threading
import time

import pytest

from repro.core.config import YinYangConfig
from repro.core.yinyang import HARNESS, YinYang
from repro.robustness import (
    GuardedSolver,
    HarnessError,
    ResiliencePolicy,
    SolverQuarantined,
)
from repro.smtlib.parser import parse_script
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

SCRIPT = parse_script("(declare-fun x () Int)(assert (> x 0))(check-sat)")
SAT_SEEDS = [
    SCRIPT,
    parse_script("(declare-fun y () Int)(assert (< y 9))(check-sat)"),
]

NO_SLEEP = {"sleep": lambda seconds: None}


class ScriptableSolver:
    """Runs a scripted list of behaviors, then answers sat forever."""

    name = "scripted"

    def __init__(self, *behaviors):
        self.behaviors = list(behaviors)
        self.calls = 0

    def check_script(self, script, directive=None, session=None):
        self.calls += 1
        action = self.behaviors.pop(0) if self.behaviors else "sat"
        if action == "sat":
            return CheckOutcome(SolverResult.SAT)
        if action == "hang":
            time.sleep(10)
            return CheckOutcome(SolverResult.SAT)
        if isinstance(action, BaseException):
            raise action
        raise AssertionError(f"unknown scripted action {action!r}")

    def active_faults(self):
        return ["delegated"]


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(check_timeout=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(quarantine_after=0)

    def test_backoff_is_capped_exponential(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(10) == pytest.approx(0.5)  # capped


class TestDelegation:
    def test_name_and_unknown_attrs_delegate(self):
        guard = GuardedSolver(ScriptableSolver())
        assert guard.name == "scripted"
        assert guard.active_faults() == ["delegated"]

    def test_clean_outcome_passes_through(self):
        guard = GuardedSolver(ScriptableSolver())
        outcome = guard.check_script(SCRIPT)
        assert outcome.result is SolverResult.SAT
        assert "guard_retries" not in outcome.stats


class TestWatchdog:
    def test_hung_check_times_out_as_unknown(self):
        guard = GuardedSolver(
            ScriptableSolver("hang"), ResiliencePolicy(check_timeout=0.2)
        )
        began = time.perf_counter()
        outcome = guard.check_script(SCRIPT)
        assert time.perf_counter() - began < 5  # did not wait out the hang
        assert outcome.result is SolverResult.UNKNOWN
        assert "deadline" in outcome.reason
        assert outcome.stats["guard_timeout"] is True
        assert guard.stats["timeouts"] == 1

    def test_solver_recovers_after_timeout(self):
        guard = GuardedSolver(
            ScriptableSolver("hang"), ResiliencePolicy(check_timeout=0.2)
        )
        assert guard.check_script(SCRIPT).result is SolverResult.UNKNOWN
        # The watchdog abandoned the hung helper; the next check gets a
        # fresh one and succeeds.
        assert guard.check_script(SCRIPT).result is SolverResult.SAT

    def test_no_timeout_means_no_watchdog_thread(self):
        before = threading.active_count()
        guard = GuardedSolver(ScriptableSolver())
        for _ in range(3):
            guard.check_script(SCRIPT)
        assert threading.active_count() == before

    def test_crash_inside_watchdog_propagates(self):
        guard = GuardedSolver(
            ScriptableSolver(SolverCrash("boom", kind="segfault")),
            ResiliencePolicy(check_timeout=5.0),
        )
        with pytest.raises(SolverCrash) as excinfo:
            guard.check_script(SCRIPT)
        assert excinfo.value.kind == "segfault"


class TestRetries:
    def test_transient_spawn_failures_retried(self):
        solver = ScriptableSolver(
            SolverCrash("no exec", kind="spawn"),
            SolverCrash("no exec", kind="spawn"),
            "sat",
        )
        guard = GuardedSolver(solver, ResiliencePolicy(retries=3, **NO_SLEEP))
        outcome = guard.check_script(SCRIPT)
        assert outcome.result is SolverResult.SAT
        assert outcome.stats["guard_retries"] == 2
        assert guard.stats["retries"] == 2

    def test_oserror_is_transient(self):
        solver = ScriptableSolver(OSError("fork failed"), "sat")
        guard = GuardedSolver(solver, ResiliencePolicy(retries=1, **NO_SLEEP))
        assert guard.check_script(SCRIPT).result is SolverResult.SAT

    def test_retries_exhausted_raises_with_count(self):
        solver = ScriptableSolver(*[SolverCrash("x", kind="spawn")] * 5)
        guard = GuardedSolver(solver, ResiliencePolicy(retries=2, **NO_SLEEP))
        with pytest.raises(SolverCrash) as excinfo:
            guard.check_script(SCRIPT)
        assert excinfo.value.retries == 2
        assert solver.calls == 3  # initial try + 2 retries

    def test_nontransient_crash_not_retried(self):
        solver = ScriptableSolver(SolverCrash("boom", kind="segfault"), "sat")
        guard = GuardedSolver(solver, ResiliencePolicy(retries=3, **NO_SLEEP))
        with pytest.raises(SolverCrash):
            guard.check_script(SCRIPT)
        assert solver.calls == 1

    def test_backoff_sleeps_between_retries(self):
        naps = []
        solver = ScriptableSolver(
            SolverCrash("x", kind="spawn"), SolverCrash("x", kind="spawn"), "sat"
        )
        policy = ResiliencePolicy(
            retries=2, backoff_base=0.1, backoff_cap=1.0, sleep=naps.append
        )
        GuardedSolver(solver, policy).check_script(SCRIPT)
        assert naps == [pytest.approx(0.1), pytest.approx(0.2)]


class TestContainment:
    def test_unexpected_exception_contained(self):
        guard = GuardedSolver(
            ScriptableSolver(ValueError("glue code blew up"))
        )
        with pytest.raises(HarnessError) as excinfo:
            guard.check_script(SCRIPT)
        assert excinfo.value.kind == "harness-error"
        assert isinstance(excinfo.value.original, ValueError)
        assert guard.stats["contained"] == 1

    def test_containment_can_be_disabled(self):
        guard = GuardedSolver(
            ScriptableSolver(ValueError("boom")),
            ResiliencePolicy(contain_errors=False),
        )
        with pytest.raises(ValueError):
            guard.check_script(SCRIPT)

    def test_keyboard_interrupt_never_contained(self):
        guard = GuardedSolver(ScriptableSolver(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            guard.check_script(SCRIPT)


class TestQuarantine:
    def test_consecutive_crashes_trip_the_breaker(self):
        crashes = [SolverCrash("boom", kind="segfault")] * 3
        guard = GuardedSolver(
            ScriptableSolver(*crashes), ResiliencePolicy(quarantine_after=3)
        )
        for _ in range(3):
            with pytest.raises(SolverCrash):
                guard.check_script(SCRIPT)
        assert guard.quarantined
        with pytest.raises(SolverQuarantined):
            guard.check_script(SCRIPT)

    def test_success_resets_the_streak(self):
        behaviors = [
            SolverCrash("a", kind="segfault"),
            SolverCrash("b", kind="segfault"),
            "sat",
            SolverCrash("c", kind="segfault"),
            SolverCrash("d", kind="segfault"),
            "sat",
        ]
        guard = GuardedSolver(
            ScriptableSolver(*behaviors), ResiliencePolicy(quarantine_after=3)
        )
        for _ in behaviors:
            try:
                guard.check_script(SCRIPT)
            except SolverCrash:
                pass
        assert not guard.quarantined

    def test_timeouts_count_toward_quarantine(self):
        guard = GuardedSolver(
            ScriptableSolver("hang", "hang"),
            ResiliencePolicy(check_timeout=0.1, quarantine_after=2),
        )
        guard.check_script(SCRIPT)
        guard.check_script(SCRIPT)
        assert guard.quarantined


class TestYinYangIntegration:
    def test_policy_wraps_solvers(self):
        tool = YinYang(ScriptableSolver(), policy=ResiliencePolicy())
        assert isinstance(tool.solvers[0], GuardedSolver)

    def test_no_policy_means_no_wrapping(self):
        solver = ScriptableSolver()
        tool = YinYang(solver)
        assert tool.solvers[0] is solver

    def test_contained_error_becomes_harness_bug_record(self):
        solver = ScriptableSolver(*[ValueError("boom")] * 6)
        tool = YinYang(solver, YinYangConfig(seed=1), policy=ResiliencePolicy())
        report = tool.test("sat", SAT_SEEDS, iterations=6)
        assert report.contained_errors == 6
        assert all(b.kind == HARNESS for b in report.bugs)
        assert report.harness_errors == report.bugs
        assert "contained errors" in report.summary()

    def test_quarantined_solver_skipped_and_surfaced(self):
        crashes = [SolverCrash("boom", kind="segfault")] * 2
        solver = ScriptableSolver(*crashes)
        policy = ResiliencePolicy(quarantine_after=2)
        tool = YinYang(solver, YinYangConfig(seed=1), policy=policy)
        report = tool.test("sat", SAT_SEEDS, iterations=10)
        assert len(report.crashes) == 2
        assert report.quarantine_skips == 8
        assert report.quarantined == {"scripted"}
        assert solver.calls == 2  # never called after the breaker trips
        assert "quarantined: scripted" in report.summary()

    def test_campaign_degrades_to_remaining_solvers(self):
        dying = ScriptableSolver(*[SolverCrash("boom", kind="segfault")] * 2)
        healthy = ScriptableSolver()
        healthy.name = "healthy"
        policy = ResiliencePolicy(quarantine_after=2)
        tool = YinYang([dying, healthy], YinYangConfig(seed=1), policy=policy)
        report = tool.test("sat", SAT_SEEDS, iterations=8)
        assert report.quarantined == {"scripted"}
        assert healthy.calls == 8

    def test_retry_counter_reaches_report(self):
        behaviors = [SolverCrash("x", kind="spawn"), "sat"] * 4
        solver = ScriptableSolver(*behaviors)
        policy = ResiliencePolicy(retries=1, **NO_SLEEP)
        tool = YinYang(solver, YinYangConfig(seed=1), policy=policy)
        report = tool.test("sat", SAT_SEEDS, iterations=4)
        assert report.retries == 4
        assert report.bugs == []
        assert "4 retries" in report.summary()

    def test_report_merge_carries_counters(self):
        from repro.core.yinyang import YinYangReport, merge_shard_reports

        a = YinYangReport(retries=1, timeouts=2, contained_errors=3)
        a.quarantined = {"s1"}
        b = YinYangReport(retries=10, quarantine_skips=4)
        b.quarantined = {"s2"}
        a = merge_shard_reports([a, b])
        assert a.retries == 11
        assert a.timeouts == 2
        assert a.contained_errors == 3
        assert a.quarantine_skips == 4
        assert a.quarantined == {"s1", "s2"}
