"""Chaos engineering for the harness: ChaosSolver unit tests + the soak.

The soak test is the acceptance test for the hardened campaign
harness: a campaign over a solver that hangs, crashes, prints garbage,
answers wrongly, and raises unexpected exceptions must run to
completion with no uncaught exception, quarantine that solver after
the configured threshold, and report the contained errors. Everything
is seeded, so the storm replays identically every run (the ``chaos``
marker tags it as such).
"""

import time

import pytest

from repro.campaign.runner import run_campaign
from repro.robustness import ChaosError, ChaosSolver, ResiliencePolicy
from repro.smtlib.parser import parse_script
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

SEEDS = [
    parse_script("(declare-fun x () Int)(assert (> x 0))(check-sat)"),
    parse_script("(declare-fun y () Int)(assert (< y 9))(check-sat)"),
    parse_script("(declare-fun w () Int)(assert (= w 4))(check-sat)"),
]


class SteadySolver:
    """Instant, deterministic, always right (for sat-only corpora)."""

    name = "steady"

    def active_faults(self):
        return []

    def check_script(self, script, directive=None, session=None):
        return CheckOutcome(SolverResult.SAT)


class ToyCorpus:
    """A sat-only corpus so SteadySolver's answer is always correct."""

    def by_oracle(self, oracle):
        return SEEDS if oracle == "sat" else []


class TestChaosSolver:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            ChaosSolver(SteadySolver(), p_crash=1.5)

    def test_zero_probabilities_are_transparent(self):
        chaos = ChaosSolver(SteadySolver(), seed=1)
        for script in SEEDS:
            assert chaos.check_script(script).result is SolverResult.SAT
        assert all(count == 0 for count in chaos.injected.values())

    def test_deterministic_given_seed(self):
        def storm(seed):
            chaos = ChaosSolver(
                SteadySolver(), seed=seed, p_crash=0.3, p_garbage=0.3, p_wrong=0.3
            )
            outcomes = []
            for _ in range(40):
                try:
                    outcomes.append(str(chaos.check_script(SEEDS[0]).result))
                except SolverCrash:
                    outcomes.append("crash")
            return outcomes

        assert storm(7) == storm(7)
        assert storm(7) != storm(8)

    def test_injected_crash_is_solver_crash(self):
        chaos = ChaosSolver(SteadySolver(), seed=0, p_crash=1.0)
        with pytest.raises(SolverCrash) as excinfo:
            chaos.check_script(SEEDS[0])
        assert excinfo.value.kind == "segfault"
        assert chaos.injected["crash"] == 1

    def test_injected_exception_is_not_a_solver_crash(self):
        chaos = ChaosSolver(SteadySolver(), seed=0, p_exception=1.0)
        with pytest.raises(ChaosError):
            chaos.check_script(SEEDS[0])

    def test_garbage_is_unknown_with_noise(self):
        chaos = ChaosSolver(SteadySolver(), seed=0, p_garbage=1.0)
        outcome = chaos.check_script(SEEDS[0])
        assert outcome.result is SolverResult.UNKNOWN
        assert outcome.reason.startswith("garbage output:")

    def test_wrong_answer_flips_the_verdict(self):
        chaos = ChaosSolver(SteadySolver(), seed=0, p_wrong=1.0)
        assert chaos.check_script(SEEDS[0]).result is SolverResult.UNSAT

    def test_hang_sleeps_then_answers(self):
        chaos = ChaosSolver(
            SteadySolver(), seed=0, p_hang=1.0, hang_seconds=0.1
        )
        began = time.perf_counter()
        outcome = chaos.check_script(SEEDS[0])
        assert time.perf_counter() - began >= 0.1
        assert outcome.result is SolverResult.SAT

    def test_delegates_unknown_attrs(self):
        chaos = ChaosSolver(SteadySolver(), seed=0)
        assert chaos.name == "chaos(steady)"
        assert chaos.active_faults() == []


@pytest.mark.chaos
class TestChaosSoak:
    """The harness survives a deterministic storm of solver failures."""

    QUARANTINE_AFTER = 4

    @pytest.fixture(scope="class")
    def soak(self):
        chaotic = ChaosSolver(
            SteadySolver(),
            seed=27,
            p_hang=0.12,
            p_crash=0.3,
            p_garbage=0.1,
            p_wrong=0.15,
            p_exception=0.2,
            hang_seconds=5.0,
        )
        policy = ResiliencePolicy(
            check_timeout=0.5, quarantine_after=self.QUARANTINE_AFTER
        )
        result = run_campaign(
            {"toy": ToyCorpus()},
            solvers=[chaotic, SteadySolver()],
            iterations_per_cell=30,
            seed=3,
            policy=policy,
        )
        return chaotic, result

    def test_campaign_completes_despite_every_failure_mode(self, soak):
        chaotic, result = soak
        # Every chaos mode actually fired (seed 27 is chosen for that).
        assert all(count >= 1 for count in chaotic.injected.values())
        assert result.fused_total == 60  # both solvers' cells completed

    def test_chaotic_solver_quarantined_after_threshold(self, soak):
        chaotic, result = soak
        counters = result.resilience_counters()
        assert counters["quarantined"] == ["chaos(steady)"]
        assert counters["quarantine_skips"] > 0

    def test_contained_errors_reported_in_summary(self, soak):
        _, result = soak
        counters = result.resilience_counters()
        assert counters["contained_errors"] >= 1
        assert counters["timeouts"] >= 1
        assert "contained errors" in result.summary()
        assert "quarantined: chaos(steady)" in result.summary()

    def test_healthy_solver_untouched(self, soak):
        _, result = soak
        steady = result.reports[("steady", "toy", "sat")]
        assert steady.iterations == 30
        assert steady.bugs == []
        assert "steady" not in result.resilience_counters()["quarantined"]

    def test_soak_is_deterministic(self, soak):
        chaotic, _ = soak
        replay = ChaosSolver(
            SteadySolver(),
            seed=27,
            p_hang=0.12,
            p_crash=0.3,
            p_garbage=0.1,
            p_wrong=0.15,
            p_exception=0.2,
            hang_seconds=5.0,
        )
        policy = ResiliencePolicy(
            check_timeout=0.5, quarantine_after=self.QUARANTINE_AFTER
        )
        result = run_campaign(
            {"toy": ToyCorpus()},
            solvers=[replay, SteadySolver()],
            iterations_per_cell=30,
            seed=3,
            policy=policy,
        )
        assert replay.injected == chaotic.injected
        assert result.resilience_counters()["quarantined"] == ["chaos(steady)"]
