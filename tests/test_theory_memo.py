"""The campaign-scoped theory memo.

Theory-lemma answers (``dpllt._check_theory``) are memoized once per
campaign process, shared by every cell's solver session and by opfuzz's
differential oracle. A hit is an exact replay of the miss, so the memo
must be invisible in every journal byte.

The goldens below are the journal sha256s of small opfuzz campaigns as
they were before the memo was shared beyond one cell.
"""

import hashlib

import pytest

from repro.campaign.runner import (
    deterministic_bv_solvers,
    deterministic_solvers,
    run_campaign,
)
from repro.core.config import YinYangConfig
from repro.core.yinyang import YinYang, iteration_rng
from repro.errors import MutationError
from repro.observability.telemetry import NULL_TELEMETRY, Telemetry
from repro.seeds import build_corpus
from repro.smtlib.ast import fresh_name_position, fresh_scope
from repro.solver import session as session_module
from repro.solver.solver import ReferenceSolver, SolverConfig
from repro.solver.session import SolverSession
from repro.strategies.opfuzz import OpFuzzStrategy

# name -> (family, corpus scale, corpus seed, solver factory, logic,
# iterations per cell, campaign seed). LIA's preprocessing skolemizes
# and so draws gensyms: a skipped or repeated preprocess would shift
# every later fresh name of its iteration.
GOLDEN_CAMPAIGNS = {
    "QF_BV": ("QF_BV", 0.02, 0, deterministic_bv_solvers, "QF_BV", 20, 0),
    "QF_LIA": ("QF_LIA", 0.01, 5, deterministic_solvers, None, 12, 6),
    "LIA": ("LIA", 0.02, 5, deterministic_solvers, None, 12, 6),
}

# (campaign, incremental) -> journal sha256, triage on throughout.
GOLDEN_SHA256 = {
    ("QF_BV", True): "bd9076cbccdcaa0f9961254ef242a83e46e835405ef7c9c0c611c4370615a445",
    ("QF_LIA", True): "9b11e6bf99fc680c9773c00db4b9d5ebc67d41e63b26e4cbadb0ef378bbf4d27",
    ("QF_BV", False): "eb1c6af2abc1cf04ee2679cb6ea60b0f052cfb82ffaf256fa63828e54eeb795d",
    ("QF_LIA", False): "e26b3aab04d5920ab9ff0919c85d33343e620859fc28bb342376b875689369f1",
    ("LIA", True): "bab341419446840547ef96ed767fcfe82202760aaae16554361ba1d33dbd212c",
    ("LIA", False): "a3ab218dad3ca9da81dfd3df7293d6b06d57a3aa2a4ad66e0da4ec46649d5fcc",
}


def _opfuzz_inputs(name, incremental=True):
    """``(corpora, run_campaign keyword arguments)`` of a golden campaign."""
    family, scale, corpus_seed, factory, logic, iterations, seed = (
        GOLDEN_CAMPAIGNS[name]
    )
    corpora = {family: build_corpus(family, scale=scale, seed=corpus_seed)}
    return corpora, dict(
        iterations_per_cell=iterations,
        seed=seed,
        performance_threshold=None,
        solver_factory=factory,
        strategy="opfuzz",
        triage=True,
        incremental=incremental,
        logic=logic,
    )


def _opfuzz_campaign(name, incremental=True, **extra):
    corpora, kwargs = _opfuzz_inputs(name, incremental)
    return run_campaign(corpora, **kwargs, **extra)


class TestJournalGoldens:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
    def test_journal_matches_golden(self, name, incremental, tmp_path):
        path = tmp_path / "journal.jsonl"
        _opfuzz_campaign(name, journal=path, incremental=incremental)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(name, incremental)]


class TestFleetShapes:
    """A fleet worker keeps one memo for all its leases, so the
    fleet shape decides which cells and oracle solves share entries.
    The journal bytes must not notice."""

    def test_opfuzz_journal_shape_blind(self, fleet, run_fleet_campaign, tmp_path):
        path = tmp_path / "fleet.jsonl"
        corpora, kwargs = _opfuzz_inputs("QF_BV")
        run_fleet_campaign(corpora, fleet, journal=path, **kwargs)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[("QF_BV", True)]


def _oracle_stream(name, memo, telemetry=NULL_TELEMETRY, passes=2):
    """``(oracle verdict, fresh_name_position())`` after each oracle solve
    of a seeded opfuzz mutant stream, or ``None`` for a failed draw.

    The stream runs ``passes`` times over both oracle cells, as the
    cells of a campaign's solvers do, so a memo sees the repeats.
    """
    family, scale, corpus_seed, _, _, iterations, seed = GOLDEN_CAMPAIGNS[name]
    corpus = build_corpus(family, scale=scale, seed=corpus_seed)
    strategy = OpFuzzStrategy()
    strategy.attach_theory_memo(memo, telemetry)
    stream = []
    for _ in range(passes):
        for oracle in ("sat", "unsat"):
            seeds = corpus.by_oracle(oracle)
            work = strategy.prepare(
                oracle, [s.script for s in seeds], [s.logic for s in seeds]
            )
            for index in range(iterations):
                with fresh_scope():
                    try:
                        mutant = strategy.mutate(iteration_rng(seed, index), work)
                    except MutationError:
                        stream.append(None)
                        continue
                    # The oracle solve is the last step of mutate.
                    stream.append((mutant.oracle, fresh_name_position()))
    return stream


class TestPureReplay:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
    def test_oracle_verdicts_and_gensyms_match_the_cold_oracle(self, name):
        tel = Telemetry()
        cold = _oracle_stream(name, None)
        memoized = _oracle_stream(name, {}, telemetry=tel)
        assert memoized == cold
        assert any(entry and entry[0] for entry in cold), "no oracle verdicts"
        hits = tel.snapshot()["counters"].get("session.theory.hit", 0)
        assert hits > 0, "the memo never replayed a theory check"

    def test_lia_oracle_solves_draw_gensyms(self):
        # Otherwise the gensym half of the replay check would be vacuous.
        stream = _oracle_stream("LIA", None, passes=1)
        assert any(entry and entry[1] > 0 for entry in stream)


def _theory_counters(name):
    tel = Telemetry()
    _opfuzz_campaign(name, telemetry=tel)
    counters = tel.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("session.theory.")}


class TestCampaignScope:
    def test_campaigns_in_one_process_share_nothing(self):
        first = _theory_counters("QF_BV")
        second = _theory_counters("QF_BV")
        assert first == second
        assert first["session.theory.hit"] > 0

    def test_cells_and_oracle_share_one_memo(self):
        memo = {}
        strategy = OpFuzzStrategy()
        config = YinYangConfig(incremental=True)
        solver = ReferenceSolver(SolverConfig.deterministic())
        tools = [
            YinYang(solver, config, strategy=strategy, theory_memo=memo)
            for _ in range(2)
        ]
        sessions = [tool.make_session() for tool in tools]
        sessions[0].theory_store(["a"], 1, 0, None, ("sat", None, None), True)
        assert sessions[1].theory_lookup(["a"], 1, 0, None) is not None
        oracle_session = strategy._oracle_session
        assert oracle_session.theory_lookup(["a"], 1, 0, None) is not None
        # The oracle memoizes and nothing else: no warm prototype.
        assert oracle_session.warm_start([]) is None

    def test_tools_without_a_campaign_memo_get_their_own(self):
        config = YinYangConfig(incremental=True)
        solver = ReferenceSolver(SolverConfig.deterministic())
        first, second = (YinYang(solver, config) for _ in range(2))
        assert first._theory_memo == {} and second._theory_memo == {}
        assert first._theory_memo is not second._theory_memo

    def test_incremental_off_builds_no_memo(self):
        strategy = OpFuzzStrategy()
        tool = YinYang(
            ReferenceSolver(SolverConfig.deterministic()),
            YinYangConfig(incremental=False),
            strategy=strategy,
            theory_memo={},
        )
        assert tool._theory_memo is None
        assert strategy._oracle_session is None
        assert tool.make_session() is None


class TestCapAcrossCells:
    def test_insertion_order_eviction_spans_sessions(self, monkeypatch):
        monkeypatch.setattr(session_module, "THEORY_CACHE_CAP", 2)
        tel = Telemetry()
        memo = {}
        first = SolverSession(theory_memo=memo)
        second = SolverSession(telemetry=tel, theory_memo=memo)
        for literal in ("a", "b"):
            first.theory_store([literal], 1, 0, None, ("sat", None, None), True)
        second.theory_store(["c"], 1, 0, None, ("sat", None, None), True)
        assert len(memo) == 2
        # The oldest entry went first, whichever session stored it.
        assert first.theory_lookup(["a"], 1, 0, None) is None
        assert second.theory_lookup(["b"], 1, 0, None) is not None
        assert first.theory_lookup(["c"], 1, 0, None) is not None
        assert tel.snapshot()["counters"]["session.evictions"] == 1

    def test_small_cap_holds_and_journal_is_unchanged(self, monkeypatch, tmp_path):
        monkeypatch.setattr(session_module, "THEORY_CACHE_CAP", 8)
        tel = Telemetry(profile=True)
        path = tmp_path / "journal.jsonl"
        _opfuzz_campaign("QF_BV", journal=path, telemetry=tel)
        snapshot = tel.snapshot()
        assert snapshot["counters"]["session.evictions"] > 0
        assert 0 < snapshot["gauges"]["session.theory_cache"] <= 8
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[("QF_BV", True)]


class TestOneDeterministicConfig:
    def test_oracle_and_campaign_solvers_share_the_budgets(self):
        oracle = OpFuzzStrategy()._reference()
        assert oracle.config == SolverConfig.deterministic()
        for solver in deterministic_solvers() + deterministic_bv_solvers():
            assert solver.base.config == SolverConfig.deterministic()
