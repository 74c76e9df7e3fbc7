"""Incremental-session test harness: verdict equivalence, bug-finding
power, determinism, and the session machinery's unit contracts.

Mirrors ``tests/test_triage.py``: the same three guarantees make
per-cell solver sessions safe to leave on:

1. **Verdict equivalence** — on the deterministic campaign corpus,
   every definite verdict (``sat``/``unsat``) the cold loop produces is
   reproduced with a session attached. Only ``unknown`` results may
   move, and only toward definite answers (a warm attempt deciding what
   the cold search could not). A single lost definite verdict is a lost
   oracle check, so this suite fails on the first one.

2. **Bug-finding power** — a fault-injected campaign finds exactly the
   same faults, in the same iterations, with incremental solving on
   and off.

3. **Determinism** — incremental journals are byte-identical across
   worker counts: the prototype is a pure function of the cell, the
   theory memo is a pure-function memo, and the outcome cache is
   iteration-scoped (see the soundness argument in
   ``src/repro/solver/session.py``).
"""

import json
import pickle

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.config import YinYangConfig
from repro.core.yinyang import iteration_rng
from repro.observability.telemetry import Telemetry
from repro.seeds import build_corpus
from repro.smtlib.ast import fresh_scope
from repro.smtlib.parser import parse_script
from repro.solver.result import CheckOutcome, SolverResult
from repro.solver.sat import SatSolver
from repro.solver import session as session_module
from repro.solver.session import SolverSession
from repro.solver.tseitin import Abstraction
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
# 1. SAT-core assumptions and cloning
# ---------------------------------------------------------------------------


class TestSatAssumptions:
    def test_assumption_drives_propagation(self):
        sat = SatSolver()
        sat.ensure_vars(2)
        sat.add_clause([1, 2])
        assert sat.solve(assumptions=(-1,)) is True
        assert sat.value(-1) is True  # the assumption held...
        assert sat.value(2) is True  # ...and forced the other literal

    def test_conflicting_assumption_returns_unsat(self):
        sat = SatSolver()
        sat.ensure_vars(1)
        sat.add_clause([1])  # unit-propagates var 1 at the root level
        assert sat.solve(assumptions=(-1,)) is False

    def test_assumptions_are_decisions_not_clauses(self):
        # An assumption constrains one solve only: the next call without
        # it is free to pick the opposite value.
        sat = SatSolver()
        sat.ensure_vars(2)
        sat.add_clause([1, 2])
        assert sat.solve(assumptions=(-1, -2)) is False
        assert sat.solve() is True

    def test_assumption_order_fixes_both_vars(self):
        sat = SatSolver()
        sat.ensure_vars(3)
        sat.add_clause([1, 2, 3])
        assert sat.solve(assumptions=(-1, -2)) is True
        assert sat.value(3) is True

    def test_clone_is_independent(self):
        sat = SatSolver()
        sat.ensure_vars(2)
        sat.add_clause([1, 2])
        clone = sat.clone()
        clone.add_clause([-1])
        clone.add_clause([-2])
        assert clone.solve() is False
        assert sat.solve() is True
        assert len(sat.clauses) == 1

    def test_clone_starts_with_clean_trail(self):
        sat = SatSolver()
        sat.ensure_vars(2)
        sat.add_clause([1, 2])
        assert sat.solve() is True
        clone = sat.clone()
        assert clone.trail == []
        assert clone.solve(assumptions=(-1,)) is True
        assert clone.value(2) is True


class TestSelectorGuard:
    def _atom_session(self):
        script = parse_script(
            "(set-logic QF_LIA)(declare-fun x () Int)"
            "(assert (> x 0))(check-sat)"
        )
        return script.asserts[0]

    def test_term_enforced_only_under_selector(self):
        with fresh_scope():
            term = self._atom_session()
            sat = SatSolver()
            abstraction = Abstraction(sat)
            selector = sat.new_var()
            abstraction.assert_term_under(term, selector)
            lit = abstraction.literal(term)
            # Under the selector the atom literal is forced true...
            assert sat.solve(assumptions=(selector, -lit)) is False
            # ...without it the encoding leaves the atom free.
            assert sat.solve(assumptions=(-lit,)) is True

    def test_clone_onto_shares_atom_maps(self):
        with fresh_scope():
            term = self._atom_session()
            sat = SatSolver()
            abstraction = Abstraction(sat)
            selector = sat.new_var()
            abstraction.assert_term_under(term, selector)
            clone_sat = sat.clone()
            clone = abstraction.clone_onto(clone_sat)
            assert clone.atom_to_var == abstraction.atom_to_var
            # The clone writes to its own solver, not the prototype's.
            clone.block([abstraction.literal(term)])
            assert len(clone_sat.clauses) == len(sat.clauses) + 1


# ---------------------------------------------------------------------------
# 2. Session cache contracts
# ---------------------------------------------------------------------------


def _empty_session():
    return SolverSession([])


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

    def test_close_drops_everything(self):
        session = _empty_session()
        session.store_outcome("k", CheckOutcome(SolverResult.SAT))
        session.theory_store(["a"], 1, 0, None, ("sat", None, None), True)
        session.close()
        assert all(size == 0 for size in session.cache_sizes().values())


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
        session = SolverSession([], telemetry=tel)
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
        # (``clauses=256`` is the retired clause store's, kept for
        # byte-identity with existing journals).
        assert session_module.SESSION_SPEC == (
            f"outcome={session_module.OUTCOME_CACHE_CAP},"
            f"theory={session_module.THEORY_CACHE_CAP},"
            "clauses=256,"
            f"presolve={session_module.PRESOLVE_CONFLICTS},"
            f"warm={session_module.WARM_ROUNDS}"
        )

    def test_should_warm_gates_on_round_budget(self):
        assert session_module.WARM_ROUNDS == 8
        session = _empty_session()
        # At or below the warm cap a warm attempt costs as much as the
        # search it would prefilter; only larger budgets warrant one.
        assert not session.should_warm(8)
        assert not session.should_warm(3)
        assert session.should_warm(9)

    def test_empty_cell_never_warms(self):
        session = _empty_session()
        assert session.warm_start([]) is None


# ---------------------------------------------------------------------------
# 3. Verdict equivalence: cold loop vs. session-attached solves
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
            session = SolverSession(
                [s.script for s in seeds], telemetry=tel
            )
            for index in range(CAMPAIGN["iterations_per_cell"]):
                with fresh_scope():
                    mutant = strategy.mutate(
                        iteration_rng(CAMPAIGN["seed"], index), work
                    )
                    cold = str(solver.check_script(mutant.script).result)
                    session.begin_iteration()
                    warm = str(
                        solver.check_script(
                            mutant.script, session=session
                        ).result
                    )
                rows.append((logic, oracle, index, cold, warm))
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

    def test_only_unknowns_may_improve(self, equivalence_sweep):
        rows, _ = equivalence_sweep
        for _, _, _, cold, warm in rows:
            if cold != warm:
                assert cold == "unknown" and warm in ("sat", "unsat")

    def test_sweep_exercises_the_warm_path(self, equivalence_sweep):
        # Without warm attempts the equivalence above proves nothing
        # about the session machinery.
        _, counters = equivalence_sweep
        assert counters.get("session.warm.attempt", 0) > 0

    def test_definite_verdicts_exist(self, equivalence_sweep):
        rows, _ = equivalence_sweep
        assert any(row[3] in ("sat", "unsat") for row in rows)


# ---------------------------------------------------------------------------
# 4. Bug-finding power: fault campaigns with and without sessions
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


# ---------------------------------------------------------------------------
# 5. Determinism: incremental journals across worker counts
# ---------------------------------------------------------------------------


class TestSessionDeterminism:
    """Incremental journals across the fleet-shape matrix: warm solver
    sessions live *inside* each worker, so any shape — process pool,
    tcp fleet, any worker count or steal order — partitions the cells
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

