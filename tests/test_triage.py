"""Triage test harness: verdict equivalence, bug-finding power, and
the difficulty predictor's contract.

Three guarantees make tiered solve budgets safe to leave on:

1. **Verdict equivalence** — on the deterministic campaign corpus,
   every definite verdict (``sat``/``unsat``) the full budget produces
   is reproduced under the default tier policy. Only ``unknown``
   results may move, and only toward definite answers (a cheap fast
   path answering what the full crawl also answers). A single lost
   definite verdict is a lost oracle check, so this suite fails on the
   first one.

2. **Bug-finding power** (the paper's Fig. 8 / RQ4 concern: efficiency
   must not cost detections) — a fault-injected campaign finds exactly
   the same faults, in the same iterations, with triage on and off.

3. **Predictor purity** — the structural difficulty score is a pure,
   total function of the formula, unchanged by fresh-name scopes,
   pickling (the process-pool spawn boundary), interning state, or
   print/parse round trips. This is what makes triaged journals
   byte-identical across worker counts.
"""

import json
import pickle
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.campaign.triage import (
    EASY_TIER,
    HARD_AT,
    HARD_TIER,
    HOPELESS_AT,
    HOPELESS_TIER,
    TRIAGE_SPEC,
    TriagePolicy,
    difficulty_score,
    script_features,
    term_features,
)
from repro.core.checker import (
    UNKNOWN_BUDGET,
    UNKNOWN_GENUINE,
    unknown_kind,
)
from repro.core.yinyang import iteration_rng
from repro.seeds import build_corpus
from repro.smtlib import builder as b
from repro.smtlib.ast import Assert, DeclareFun, Script, SetLogic, fresh_scope
from repro.smtlib.parser import parse_script
from repro.smtlib.printer import print_script
from repro.solver.budget import WorkMeter, scale_int
from repro.solver.solver import SolverConfig
from repro.strategies import make_strategy

# The deterministic-campaign cell parameters shared with
# tests/test_parallel_determinism.py: no wall-clock deadlines, so a
# loaded CI machine cannot flip a verdict in one configuration only.
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


# ---------------------------------------------------------------------------
# 1. Verdict equivalence: full budget vs. the default tier policy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def equivalence_sweep(corpora):
    """Every fusion mutant of the campaign corpus solved twice: once at
    full budget, once through the default policy's tier directive."""
    from dataclasses import replace

    from repro.solver.solver import ReferenceSolver, SolverConfig
    from repro.solver.strings import StringConfig

    # The deterministic campaign config, without fault injection: the
    # sweep compares the *reference* verdicts, not faulty ones.
    config = replace(
        SolverConfig.fast(),
        timeout_seconds=0.0,
        max_rounds=30,
        nonlinear_budget=120,
        strings=StringConfig(max_assignments=600, max_len_per_var=3, max_total_len=6),
    )
    solver = ReferenceSolver(config)
    policy = TriagePolicy()
    rows = []
    for logic in ("QF_S", "QF_LIA"):
        corpus = corpora[logic]
        strategy = make_strategy("fusion")
        for oracle in ("sat", "unsat"):
            seeds = corpus.by_oracle(oracle)
            if not seeds:
                continue
            work = strategy.prepare(
                oracle,
                [s.script for s in seeds],
                [s.logic for s in seeds],
            )
            for index in range(CAMPAIGN["iterations_per_cell"]):
                with fresh_scope():
                    mutant = strategy.mutate(
                        iteration_rng(CAMPAIGN["seed"], index), work
                    )
                    tier, directive = policy.route(mutant.script)
                    full = str(solver.check_script(mutant.script).result)
                    tiered = str(
                        solver.check_script(
                            mutant.script, directive=directive
                        ).result
                    )
                rows.append((logic, oracle, index, tier, full, tiered))
    return rows


class TestVerdictEquivalence:
    def test_no_definite_verdict_lost(self, equivalence_sweep):
        losses = [
            row
            for row in equivalence_sweep
            if row[4] in ("sat", "unsat") and row[5] == "unknown"
        ]
        assert losses == [], f"tiering lost definite verdicts: {losses}"

    def test_no_definite_verdict_flipped(self, equivalence_sweep):
        flips = [
            row
            for row in equivalence_sweep
            if row[4] in ("sat", "unsat")
            and row[5] in ("sat", "unsat")
            and row[4] != row[5]
        ]
        assert flips == [], f"tiering flipped definite verdicts: {flips}"

    def test_only_unknowns_may_improve(self, equivalence_sweep):
        # Any remaining difference is unknown -> definite: a fast path
        # answering something the full budget could not. That is a
        # strict improvement, never a lost check.
        for _, _, _, _, full, tiered in equivalence_sweep:
            if full != tiered:
                assert full == "unknown" and tiered in ("sat", "unsat")

    def test_sweep_is_not_vacuous(self, equivalence_sweep):
        # The corpus must actually exercise a reduced tier, otherwise
        # the equivalence above proves nothing about tiering.
        tiers = {row[3] for row in equivalence_sweep}
        assert "easy" in tiers
        assert tiers & {"hard", "hopeless"}, (
            "no mutant was routed to a reduced tier; "
            "the equivalence sweep is vacuous"
        )

    def test_definite_verdicts_exist_on_both_sides(self, equivalence_sweep):
        definite = [r for r in equivalence_sweep if r[4] in ("sat", "unsat")]
        assert definite, "sweep produced no definite full-budget verdicts"


# ---------------------------------------------------------------------------
# 2. Bug-finding power: fault-injected campaigns with and without triage
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_pair(corpora, tmp_path_factory):
    root = tmp_path_factory.mktemp("triage_campaigns")
    base = run_campaign(
        corpora, journal=root / "base.jsonl", **CAMPAIGN
    )
    triaged = run_campaign(
        corpora,
        journal=root / "triaged.jsonl",
        triage=True,
        **CAMPAIGN,
    )
    return base, triaged, root


def _fault_ids(result):
    return {
        solver: sorted(faults) for solver, faults in result.found_faults().items()
    }


class TestBugFindingPower:
    def test_same_faults_found(self, campaign_pair):
        base, triaged, _ = campaign_pair
        assert _fault_ids(base) == _fault_ids(triaged)

    def test_same_bug_records(self, campaign_pair):
        base, triaged, _ = campaign_pair
        key = lambda r: (r.solver, r.kind, r.oracle, r.iteration, r.reported)
        assert [key(r) for r in base.records] == [key(r) for r in triaged.records]
        assert base.records, "fault-injected campaign found no bugs at all"

    def test_triage_meta_and_counters_stamped(self, campaign_pair):
        _, _, root = campaign_pair
        lines = [
            json.loads(line)
            for line in (root / "triaged.jsonl").read_text().splitlines()
        ]
        meta = lines[0]
        assert meta["type"] == "meta"
        assert meta["triage"] == "hard@4:1/2,hopeless@9:1/8"
        base_meta = json.loads(
            (root / "base.jsonl").read_text().splitlines()[0]
        )
        assert "triage" not in base_meta

    def test_unknown_split_counters_consistent(self, campaign_pair):
        base, triaged, _ = campaign_pair
        for result in (base, triaged):
            for report in result.reports.values():
                assert report.unknowns_budget >= 0
                assert report.unknowns_genuine >= 0
                assert (
                    report.unknowns_budget + report.unknowns_genuine
                    <= report.unknowns
                )


# ---------------------------------------------------------------------------
# 3. Triage determinism: journals byte-identical across worker counts
# ---------------------------------------------------------------------------


class TestTriageDeterminism:
    @pytest.fixture(scope="class")
    def journals(self, corpora, tmp_path_factory):
        root = tmp_path_factory.mktemp("triage_journals")
        paths = {}
        for workers in (1, 2, 4):
            path = root / f"w{workers}.jsonl"
            run_campaign(
                corpora,
                journal=path,
                triage=True,
                mode="process" if workers > 1 else "serial",
                workers=workers,
                **CAMPAIGN,
            )
            paths[workers] = path
        return paths

    @pytest.mark.parametrize("workers", [2, 4])
    def test_journal_bytes_identical(self, journals, workers):
        assert (
            journals[workers].read_bytes() == journals[1].read_bytes()
        ), f"triage journal diverged at {workers} process workers"

    def test_policy_survives_pickling(self, corpora):
        # The spawn boundary: a policy pickled to a process worker must
        # route every mutant exactly as the parent would.
        policy = TriagePolicy()
        clone = pickle.loads(pickle.dumps(policy))
        strategy = make_strategy("fusion")
        seeds = corpora["QF_LIA"].by_oracle("sat")
        work = strategy.prepare(
            "sat", [s.script for s in seeds], [s.logic for s in seeds]
        )
        for index in range(6):
            with fresh_scope():
                mutant = strategy.mutate(iteration_rng(6, index), work)
                assert policy.route(mutant.script) == clone.route(mutant.script)

    def test_spec_string_round_trips(self):
        # The journalled spec must describe the tiers the policy runs.
        assert TRIAGE_SPEC == (
            f"hard@{HARD_AT}:{HARD_TIER.rounds[0]}/{HARD_TIER.rounds[1]},"
            f"hopeless@{HOPELESS_AT}:"
            f"{HOPELESS_TIER.rounds[0]}/{HOPELESS_TIER.rounds[1]}"
        )

    def test_non_bool_switch_rejected(self, corpora):
        with pytest.raises(TypeError, match="triage"):
            run_campaign(corpora, triage="hard@4:1/2", **CAMPAIGN)

    def test_budget_tiers_flag_removed(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--budget-tiers", "x"])
        assert exit_info.value.code == 2

    def test_tier_rounds_never_floor_below_refutation(self):
        # Regression guard for the one verdict the harness ever lost:
        # the hopeless tier must leave an eliminated unsat-fusion
        # mutant enough DPLL rounds to propagate its contradiction.
        # At the deterministic config's 30 rounds, 1/16 floors to a
        # single round and loses unsat verdicts; 1/8 keeps 3.
        config = SolverConfig.deterministic()
        assert config.max_rounds == 30
        assert WorkMeter.for_check(config, HOPELESS_TIER).rounds >= 3
        assert WorkMeter.for_check(config, HARD_TIER).rounds >= 15
        assert WorkMeter.for_check(config, EASY_TIER).rounds == 30

    @pytest.mark.parametrize(
        "tier", [EASY_TIER, HARD_TIER, HOPELESS_TIER], ids=lambda tier: tier.tier
    )
    @pytest.mark.parametrize("make_config", ["deterministic", "fast", "thorough"])
    def test_meter_limits_are_the_tier_scaled_config(self, tier, make_config):
        config = getattr(SolverConfig, make_config)()
        started = time.monotonic()
        meter = WorkMeter.for_check(config, tier)
        finished = time.monotonic()
        assert meter.rounds == scale_int(config.max_rounds, tier.rounds)
        assert meter.enumeration == scale_int(config.nonlinear_budget, tier.nonlinear)
        assert meter.probes == max(1, meter.enumeration // 4)
        assert meter.assignments == scale_int(
            config.strings.max_assignments, tier.strings
        )
        assert meter.splits == 64
        seconds = config.timeout_seconds * tier.timeout
        if seconds > 0:
            assert started + seconds <= meter.deadline <= finished + seconds
        else:
            assert meter.deadline is None


# ---------------------------------------------------------------------------
# 4. The difficulty predictor: pure, total, monotone
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_INT_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "z"]).map(b.int_var),
    st.integers(min_value=-9, max_value=9).map(b.lift),
)
_STR_VARS = st.sampled_from(["s", "t"]).map(b.string_var)

_int_terms = st.recursive(
    _INT_LEAVES,
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda p: b.add(*p)),
        st.tuples(child, child).map(lambda p: b.mul(*p)),
        st.tuples(child, child).map(lambda p: b.sub(*p)),
        st.tuples(child, child).map(lambda p: b.idiv(*p)),
        st.tuples(child, child).map(lambda p: b.mod(*p)),
        _STR_VARS.map(b.length),
    ),
    max_leaves=12,
)

_bool_terms = st.recursive(
    st.one_of(
        st.tuples(_int_terms, _int_terms).map(lambda p: b.le(*p)),
        st.tuples(_int_terms, _int_terms).map(lambda p: b.eq(*p)),
        st.tuples(_STR_VARS, _STR_VARS).map(lambda p: b.contains(*p)),
    ),
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda p: b.and_(*p)),
        st.tuples(child, child).map(lambda p: b.or_(*p)),
        child.map(b.not_),
        child.map(lambda body: b.forall([b.int_var("q")], body)),
    ),
    max_leaves=8,
)


def _script_of(term):
    decls = [
        DeclareFun(var.name, (), var.sort)
        for var in sorted(
            {v for v in _free_vars(term)}, key=lambda v: v.name
        )
    ]
    return Script([SetLogic("ALL"), *decls, Assert(term)])


def _free_vars(term):
    from repro.smtlib.ast import Var

    seen = []
    stack = [term]
    bound = set()
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.name not in bound:
                seen.append(node)
        elif hasattr(node, "args"):
            stack.extend(node.args)
        if hasattr(node, "body"):
            bound.update(name for name, _ in node.bindings)
            stack.append(node.body)
    return seen


class TestPredictorProperties:
    @_SETTINGS
    @given(term=_bool_terms)
    def test_total_and_nonnegative(self, term):
        features = term_features(term)
        assert features.nonlinear >= 0
        assert features.quant_depth >= 0
        assert features.string_ops >= 0
        assert features.node_count >= 1
        assert difficulty_score(features) >= 0

    @_SETTINGS
    @given(term=_bool_terms)
    def test_pure_across_print_parse(self, term):
        script = _script_of(term)
        reparsed = parse_script(print_script(script))
        assert script_features(reparsed) == script_features(script)

    @_SETTINGS
    @given(term=_bool_terms)
    def test_pure_across_pickle_and_fresh_scope(self, term):
        before = term_features(term)
        clone = pickle.loads(pickle.dumps(term))
        assert term_features(clone) == before
        with fresh_scope():
            # A fresh interning scope must not perturb the features of
            # a term built outside it (nor of its pickled clone).
            assert term_features(term) == before
            assert term_features(pickle.loads(pickle.dumps(term))) == before

    @_SETTINGS
    @given(term=_bool_terms)
    def test_monotone_in_nonlinear_count(self, term):
        # Conjoining one more nonlinear constraint strictly increases
        # the score: the predictor can never rank a formula easier
        # because it got *more* nonlinear.
        base_features = term_features(term)
        harder = b.and_(
            term, b.eq(b.mul(b.int_var("x"), b.int_var("y")), b.lift(1))
        )
        harder_features = term_features(harder)
        assert harder_features.nonlinear == base_features.nonlinear + 1
        assert difficulty_score(harder_features) > difficulty_score(
            base_features
        )

    @_SETTINGS
    @given(term=_bool_terms)
    def test_cached_and_fresh_scores_agree(self, term):
        # term_features caches per interned node; a structurally equal
        # term rebuilt from text must score identically to the cached
        # original.
        script = _script_of(term)
        first = script_features(script)
        assert script_features(script) == first  # cached path
        assert script_features(parse_script(print_script(script))) == first

    def test_score_thresholds_order_tiers(self):
        assert HARD_AT <= HOPELESS_AT


# ---------------------------------------------------------------------------
# 5. The unknown-kind split: budget exhaustion vs. genuine unknowns
# ---------------------------------------------------------------------------


class TestUnknownKindSplit:
    @pytest.mark.parametrize(
        "reason",
        ["round budget exhausted", "sat budget exhausted", "timeout"],
    )
    def test_budget_reasons(self, reason):
        assert unknown_kind(reason) == UNKNOWN_BUDGET

    def test_guard_deadline_is_budget(self):
        assert unknown_kind("guard: check exceeded 1.5s") == UNKNOWN_BUDGET

    @pytest.mark.parametrize(
        "reason", ["", "unsupported theory", "quantifier residue"]
    )
    def test_other_reasons_are_genuine(self, reason):
        assert unknown_kind(reason) == UNKNOWN_GENUINE

    def test_stamped_kind_wins_over_reason(self):
        # The reference solver's own stamp takes precedence over the
        # reason-string fallback in both directions.
        assert (
            unknown_kind("timeout", {"unknown_kind": "genuine"})
            == UNKNOWN_GENUINE
        )
        assert (
            unknown_kind("unsupported", {"unknown_kind": "budget"})
            == UNKNOWN_BUDGET
        )

    def test_missing_stamp_falls_back_to_reason(self):
        assert unknown_kind("timeout", {"other": 1}) == UNKNOWN_BUDGET

    def test_reference_solver_stamps_budget_unknown(self):
        # A nonlinear mutant squeezed to one DPLL round answers unknown
        # for budget reasons, and says so.
        from repro.solver.budget import SolveDirective
        from repro.solver.solver import ReferenceSolver, SolverConfig

        solver = ReferenceSolver(SolverConfig.fast())
        script = parse_script(
            """
            (set-logic QF_NIA)
            (declare-fun x () Int)
            (declare-fun y () Int)
            (declare-fun z () Int)
            (assert (= (* x y) (+ z 17)))
            (assert (= (* y z) (+ x 23)))
            (assert (> x 3))
            """
        )
        outcome = solver.check_script(
            script,
            directive=SolveDirective(
                tier="hopeless",
                rounds=(1, 1000),
                nonlinear=(1, 1000),
            ),
        )
        if str(outcome.result) == "unknown":
            assert (
                unknown_kind(outcome.reason, outcome.stats) == UNKNOWN_BUDGET
            )
