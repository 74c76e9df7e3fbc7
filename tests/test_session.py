"""Incremental-session test harness: verdict equivalence, bug-finding
power, determinism, and the session machinery's unit contracts.

Mirrors ``tests/test_triage.py``: the same three guarantees make
per-cell solver sessions safe to leave on:

1. **Verdict equivalence** — on the deterministic campaign corpus,
   every verdict the cold loop produces, ``unknown`` included, is
   reproduced with a session attached. A single lost definite verdict
   is a lost oracle check, so this suite fails on the first one.

2. **Bug-finding power** — a fault-injected campaign finds exactly the
   same faults, in the same iterations, with incremental solving on
   and off, and journals the same cells (meta aside) in every workload
   shape of the benchmark.

3. **Determinism** — incremental journals are byte-identical across
   worker counts: the theory memo is a pure-function memo and the
   outcome cache is iteration-scoped (see
   ``src/repro/solver/session.py``).
"""

import json
import pickle

import pytest

from repro.campaign.runner import (
    deterministic_bv_solvers,
    deterministic_solvers,
    run_campaign,
)
from repro.core.config import YinYangConfig
from repro.core.yinyang import iteration_rng
from repro.observability.telemetry import Telemetry
from repro.seeds import build_corpus
from repro.smtlib.ast import fresh_scope
from repro.solver.result import CheckOutcome, SolverResult
from repro.solver import session as session_module
from repro.solver.session import SolverSession
from repro.strategies import make_strategy

# The deterministic-campaign cell parameters shared with
# tests/test_triage.py and tests/test_parallel_determinism.py: no
# wall-clock deadlines, so a loaded CI machine cannot flip a verdict in
# one configuration only.
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
# 1. Session cache contracts
# ---------------------------------------------------------------------------


def _empty_session():
    return SolverSession()


class TestOutcomeCache:
    def test_hit_returns_an_independent_copy(self):
        session = _empty_session()
        stored = CheckOutcome(SolverResult.SAT)
        stored.stats["solver"] = "ref"
        session.store_outcome("k", stored)
        # Callers (the fault layer) stamp the outcomes they receive;
        # neither the original nor a previous hit may bleed through.
        stored.stats["triggered"] = True
        first = session.lookup_outcome("k")
        assert "triggered" not in first.stats
        first.stats["triggered"] = True
        second = session.lookup_outcome("k")
        assert "triggered" not in second.stats
        assert second is not first

    def test_begin_iteration_clears_outcomes_only(self):
        session = _empty_session()
        session.store_outcome("k", CheckOutcome(SolverResult.SAT))
        session.theory_store(["a"], 1, 0, None, ("sat", None, None), True)
        session.begin_iteration()
        assert session.lookup_outcome("k") is None
        assert session.theory_lookup(["a"], 1, 0, None) is not None

    def test_close_keeps_the_theory_memo(self):
        # The outcome cache dies with the cell's session; the theory
        # memo is the campaign's and outlives it.
        memo = {}
        session = SolverSession(theory_memo=memo)
        session.store_outcome("k", CheckOutcome(SolverResult.SAT))
        session.theory_store(["a"], 1, 0, None, ("sat", None, None), True)
        session.close()
        sizes = session.cache_sizes()
        assert sizes["outcome_cache"] == 0
        later = SolverSession(theory_memo=memo)
        assert later.theory_lookup(["a"], 1, 0, None) is not None


class TestTheoryCache:
    def test_keyed_on_ordered_tuple(self):
        # Theory search is order-sensitive; only the exact call is a
        # pure replay, so a permuted literal list must miss.
        session = _empty_session()
        session.theory_store(["a", "b"], 1, 0, None, ("unsat", None, None), True)
        assert session.theory_lookup(["a", "b"], 1, 0, None) is not None
        assert session.theory_lookup(["b", "a"], 1, 0, None) is None

    def test_budget_and_seed_partition_the_key(self):
        session = _empty_session()
        session.theory_store(["a"], 1, 0, None, ("unsat", None, None), True)
        assert session.theory_lookup(["a"], 2, 0, None) is None
        assert session.theory_lookup(["a"], 1, 9, None) is None

    def test_uncacheable_results_are_not_stored(self):
        session = _empty_session()
        session.theory_store(["a"], 1, 0, None, ("unknown", None, None), False)
        assert session.theory_lookup(["a"], 1, 0, None) is None


class TestEviction:
    # The caps are module constants; a small one keeps eviction visible.
    def test_insertion_order_eviction(self, monkeypatch):
        monkeypatch.setattr(session_module, "OUTCOME_CACHE_CAP", 2)
        session = _empty_session()
        for key in ("a", "b", "c"):
            session.store_outcome(key, CheckOutcome(SolverResult.SAT))
        assert session.lookup_outcome("a") is None  # oldest went first
        assert session.lookup_outcome("b") is not None
        assert session.lookup_outcome("c") is not None

    def test_evictions_counted(self, monkeypatch):
        monkeypatch.setattr(session_module, "OUTCOME_CACHE_CAP", 1)
        tel = Telemetry()
        session = SolverSession(telemetry=tel)
        for key in ("a", "b", "c"):
            session.store_outcome(key, CheckOutcome(SolverResult.SAT))
        counters = tel.snapshot()["counters"]
        assert counters["session.evictions"] == 2

    def test_restore_does_not_evict(self, monkeypatch):
        monkeypatch.setattr(session_module, "OUTCOME_CACHE_CAP", 2)
        session = _empty_session()
        session.store_outcome("a", CheckOutcome(SolverResult.SAT))
        session.store_outcome("b", CheckOutcome(SolverResult.SAT))
        session.store_outcome("a", CheckOutcome(SolverResult.UNSAT))
        assert session.lookup_outcome("b") is not None


class TestSessionConfig:
    def test_picklable(self):
        # Incremental solving crosses the spawn boundary as a plain
        # switch on the loop config; each worker builds its own session.
        config = YinYangConfig(incremental=True)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_describe_mentions_every_cap(self):
        # The journalled spec names the caps the session runs with
        # (``clauses=256``, ``presolve=64`` and ``warm=8`` belong to
        # retired mechanisms, kept for byte-identity with existing
        # journals).
        assert session_module.SESSION_SPEC == (
            f"outcome={session_module.OUTCOME_CACHE_CAP},"
            f"theory={session_module.THEORY_CACHE_CAP},"
            "clauses=256,presolve=64,warm=8"
        )

    def test_empty_cell_never_warms(self):
        # No session warms: warm_start stays only as a name the
        # benchmark's tracer wraps.
        session = _empty_session()
        assert session.warm_start([]) is None


# ---------------------------------------------------------------------------
# 2. Verdict equivalence: cold loop vs. session-attached solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def equivalence_sweep(corpora):
    """Every fusion mutant of the campaign corpus solved twice: once
    cold, once with the cell's session attached (full budget both ways,
    so the only delta is the session machinery itself)."""
    from dataclasses import replace

    from repro.solver.solver import ReferenceSolver, SolverConfig
    from repro.solver.strings import StringConfig

    config = replace(
        SolverConfig.fast(),
        timeout_seconds=0.0,
        max_rounds=30,
        nonlinear_budget=120,
        strings=StringConfig(max_assignments=600, max_len_per_var=3, max_total_len=6),
    )
    solver = ReferenceSolver(config)
    tel = Telemetry()
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
            session = SolverSession(telemetry=tel)
            for index in range(CAMPAIGN["iterations_per_cell"]):
                with fresh_scope():
                    mutant = strategy.mutate(
                        iteration_rng(CAMPAIGN["seed"], index), work
                    )
                    cold = str(solver.check_script(mutant.script).result)
                    session.begin_iteration()
                    incremental = str(
                        solver.check_script(
                            mutant.script, session=session
                        ).result
                    )
                rows.append((logic, oracle, index, cold, incremental))
            session.close()
    return rows, tel.snapshot()["counters"]


class TestVerdictEquivalence:
    def test_no_definite_verdict_lost(self, equivalence_sweep):
        rows, _ = equivalence_sweep
        losses = [
            row
            for row in rows
            if row[3] in ("sat", "unsat") and row[4] == "unknown"
        ]
        assert losses == [], f"sessions lost definite verdicts: {losses}"

    def test_no_definite_verdict_flipped(self, equivalence_sweep):
        rows, _ = equivalence_sweep
        flips = [
            row
            for row in rows
            if row[3] in ("sat", "unsat")
            and row[4] in ("sat", "unsat")
            and row[3] != row[4]
        ]
        assert flips == [], f"sessions flipped definite verdicts: {flips}"

    def test_verdicts_equal(self, equivalence_sweep):
        # Sessions replay exact answers, so not even an ``unknown`` may
        # move: a verdict that differs means a cache served a check it
        # does not answer.
        rows, _ = equivalence_sweep
        differ = [row for row in rows if row[3] != row[4]]
        assert differ == [], f"sessions changed verdicts: {differ}"

    def test_sweep_exercises_the_session(self, equivalence_sweep):
        # Without cache lookups the equivalence above proves nothing
        # about the session machinery.
        _, counters = equivalence_sweep
        assert counters.get("session.theory.hit", 0) > 0
        assert counters.get("session.outcome.miss", 0) > 0

    def test_definite_verdicts_exist(self, equivalence_sweep):
        rows, _ = equivalence_sweep
        assert any(row[3] in ("sat", "unsat") for row in rows)


# ---------------------------------------------------------------------------
# 3. Bug-finding power: fault campaigns with and without sessions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_pair(corpora, tmp_path_factory):
    root = tmp_path_factory.mktemp("session_campaigns")
    base = run_campaign(corpora, journal=root / "base.jsonl", **CAMPAIGN)
    incremental = run_campaign(
        corpora,
        journal=root / "incremental.jsonl",
        incremental=True,
        **CAMPAIGN,
    )
    return base, incremental, root


def _fault_ids(result):
    return {
        solver: sorted(faults) for solver, faults in result.found_faults().items()
    }


class TestBugFindingPower:
    def test_same_faults_found(self, campaign_pair):
        base, incremental, _ = campaign_pair
        assert _fault_ids(base) == _fault_ids(incremental)

    def test_same_bug_records(self, campaign_pair):
        base, incremental, _ = campaign_pair
        key = lambda r: (r.solver, r.kind, r.oracle, r.iteration, r.reported)
        assert [key(r) for r in base.records] == [
            key(r) for r in incremental.records
        ]
        assert base.records, "fault-injected campaign found no bugs at all"

    def test_same_cell_entries(self, campaign_pair):
        _, _, root = campaign_pair
        base = _cell_entries(root / "base.jsonl")
        assert base
        assert _cell_entries(root / "incremental.jsonl") == base

    def test_incremental_meta_stamped(self, campaign_pair):
        _, _, root = campaign_pair
        meta = json.loads(
            (root / "incremental.jsonl").read_text().splitlines()[0]
        )
        assert meta["type"] == "meta"
        assert (
            meta["incremental"]
            == "outcome=256,theory=4096,clauses=256,presolve=64,warm=8"
        )
        base_meta = json.loads(
            (root / "base.jsonl").read_text().splitlines()[0]
        )
        assert "incremental" not in base_meta

    def test_non_bool_switch_rejected(self, corpora):
        with pytest.raises(TypeError, match="incremental"):
            run_campaign(corpora, incremental=object(), **CAMPAIGN)


# name -> (families, corpus scale, corpus seed, strategy, logic, solver
# factory, iterations per cell): the benchmark's workload shapes, small.
JOURNAL_SHAPES = {
    "arith": (("LRA", "QF_LIA", "QF_NRA"), 0.003, 7, "fusion", None,
              deterministic_solvers, 6),
    "strings": (("QF_S",), 0.0015, 5, "fusion", None, deterministic_solvers, 6),
    "bv-fusion": (("QF_BV",), 0.02, 0, "fusion", "QF_BV",
                  deterministic_bv_solvers, 6),
    "bv-opfuzz": (("QF_BV",), 0.02, 0, "opfuzz", "QF_BV",
                  deterministic_bv_solvers, 10),
}


def _cell_entries(path):
    """The journal's lines, meta aside (only the meta names the session)."""
    return [
        line
        for line in path.read_text().splitlines()
        if json.loads(line).get("type") != "meta"
    ]


class TestJournalEquivalence:
    """Incremental and cold campaigns journal identical cells: every
    session cache replays an exact answer, so switching incremental
    solving on may change the meta line and nothing else."""

    @pytest.mark.parametrize("shape", sorted(JOURNAL_SHAPES))
    def test_cell_entries_equal(self, shape, tmp_path):
        (families, scale, corpus_seed, strategy, logic, factory,
         iterations) = JOURNAL_SHAPES[shape]
        entries = []
        for incremental in (False, True):
            path = tmp_path / f"{incremental}.jsonl"
            run_campaign(
                {
                    family: build_corpus(family, scale=scale, seed=corpus_seed)
                    for family in families
                },
                solvers=factory(),
                journal=path,
                iterations_per_cell=iterations,
                seed=corpus_seed,
                performance_threshold=None,
                strategy=strategy,
                triage=True,
                incremental=incremental,
                logic=logic,
            )
            entries.append(_cell_entries(path))
        cold, incremental = entries
        assert cold, "the campaign journaled no cells"
        assert incremental == cold


# ---------------------------------------------------------------------------
# 4. Determinism: incremental journals across worker counts
# ---------------------------------------------------------------------------


class TestSessionDeterminism:
    """Incremental journals across the fleet-shape matrix: solver
    sessions live *inside* each worker, so any shape — serial, or a
    process fleet at any worker count or steal order — partitions the cells
    into different session lifetimes. The journal bytes must not
    notice."""

    @pytest.fixture(scope="class")
    def incremental_baseline(self, corpora, tmp_path_factory):
        path = tmp_path_factory.mktemp("session_journals") / "serial.jsonl"
        run_campaign(corpora, journal=path, incremental=True, **CAMPAIGN)
        return path.read_bytes()

    def test_journal_bytes_shape_blind(
        self, corpora, incremental_baseline, tmp_path, fleet, run_fleet_campaign
    ):
        path = tmp_path / "fleet.jsonl"
        run_fleet_campaign(
            corpora, fleet, journal=path, incremental=True, **CAMPAIGN
        )
        assert path.read_bytes() == incremental_baseline

