"""Refutation-only conflict-minimization probes in DPLL(T).

A QuickXplain probe only asks whether a subset of refuted literals is
itself UNSAT, so the solver's cores, blocking clauses and search must
be exactly what full-strength probes produced. The journal goldens
below were recorded before the probes changed: the journal sha256s of
small deterministic fusion campaigns over arithmetic families, with
triage on and incremental both on and off. The fired-probe golden was
recorded after the change (see ``GOLDEN_FIRED``).
"""

import hashlib
import inspect
from collections import Counter
from dataclasses import replace

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.observability.telemetry import Telemetry
from repro.seeds import build_corpus
from repro.smtlib import builder as b
from repro.smtlib.ast import free_vars
from repro.smtlib.parser import parse_script
from repro.smtlib.sorts import INT
from repro.solver import bitblast, dpllt, nonlinear, strings
from repro.solver.budget import WorkMeter
from repro.solver.dpllt import _strings_key, check_assertions
from repro.solver.result import SolverResult
from repro.solver.session import SolverSession
from repro.solver.strings import StringConfig

# family -> (corpus scale, corpus seed, iterations per cell, campaign seed)
GOLDEN_CAMPAIGNS = {
    "NRA": (0.003, 7, 6, 7),
    "QF_NRA": (0.003, 7, 6, 7),
    "LIA": (0.003, 7, 6, 7),
    "QF_LRA": (0.003, 7, 6, 7),
}

# (family, incremental) -> journal sha256
GOLDEN_SHA256 = {
    ("NRA", True): "6a95e978ae8a081848e0505e37cd2a73e2555d479253189666998963b5f703f5",
    ("NRA", False): "ed252bc599ca893d5e88f329bba0673e939b65f7eb4774cc5d8a891c90b2847b",
    ("QF_NRA", True): "cf4eca920eca3a7f4fedd7f12afbd3bca44b9f090dcd8ab66cfa77763022aaca",
    ("QF_NRA", False): "903d196ed07f9b77465cf34a27de0094fd71069090bab787736096eec1edb475",
    ("LIA", True): "625c932f005f4a0afdb37ddb10c23c01fe16c1c59b12132efda24009aec5e3f2",
    ("LIA", False): "2b6361a45ecd601b546cce59e37f19e0a711cc0c24f9aac67340c1af3da02ff6",
    ("QF_LRA", True): "4d20d17f2d902f64b6dd12e14ac66b3bedefdf65aa38a21b9dd6ee9dded9ef63",
    ("QF_LRA", False): "e04956eb2c4d10890cd9ed454f037d76ecf065ab082f5e7779ee5c96a6f464ba",
}


def _arith_campaign(family, incremental=True, **extra):
    scale, corpus_seed, iterations, seed = GOLDEN_CAMPAIGNS[family]
    corpora = {family: build_corpus(family, scale=scale, seed=corpus_seed)}
    return run_campaign(
        corpora,
        iterations_per_cell=iterations,
        seed=seed,
        performance_threshold=None,
        solver_factory=deterministic_solvers,
        strategy="fusion",
        triage=True,
        incremental=incremental,
        **extra,
    )


class TestJournalGoldens:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("family", sorted(GOLDEN_CAMPAIGNS))
    def test_journal_matches_golden(self, family, incremental, tmp_path):
        path = tmp_path / "journal.jsonl"
        _arith_campaign(family, incremental, journal=path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(family, incremental)]


# The QF_NRA campaign (incremental) under Telemetry(coverage=True):
# kind -> the sorted ids of every probe it fired, recorded with
# refutation-only probes. Against full-strength probes it lost only
# ``nonlinear.sample_sat``, which fired inside probes alone. Since each
# mutant goes to both solvers within one iteration, the second solver's
# check of an unchanged mutant hits the session's outcome cache, which
# adds ``dpllt.session_outcome_hit`` and nothing else.
GOLDEN_FIRED = {
    "branch": [
        "dpllt.model_ok:T",
        "dpllt.quantified_residue:F",
        "dpllt.uses_bv:F",
        "dpllt.uses_strings:F",
        "linarith.integral:T",
        "nonlinear.all_linear:F",
        "nonlinear.all_linear:T",
        "sat.solve.toplevel_conflict:F",
        "sat.solve.toplevel_conflict:T",
        "simplex.check.no_pivot:F",
        "simplex.check.no_pivot:T",
    ],
    "function": [
        "dpllt.assemble_model",
        "dpllt.check",
        "dpllt.check_theory",
        "dpllt.guess_model",
        "dpllt.shrink_core",
        "faulty.check",
        "linarith.check_linear",
        "nonlinear.check",
        "nonlinear.icp_unsat",
        "nonlinear.linear_with_diseq",
        "preprocess.run",
        "sat.add_clause",
        "sat.analyze",
        "sat.propagate",
        "sat.solve",
        "simplex.assert_atom",
        "simplex.check",
        "tseitin.build",
    ],
    "line": [
        "dpllt.model_guess",
        "dpllt.model_guess_hit",
        "dpllt.round_budget",
        "dpllt.sat_verified",
        "dpllt.session_outcome_hit",
        "dpllt.shrink_skipped",
        "dpllt.theory_unknown",
        "dpllt.unsat",
        "eval.*",
        "eval.+",
        "eval.-",
        "eval./",
        "eval.<",
        "eval.<=",
        "eval.=",
        "eval.>",
        "eval.>=",
        "eval.and",
        "eval.ite",
        "eval.not",
        "eval.or",
        "faulty.answer",
        "icp.prune.eq",
        "icp.prune.le",
        "icp.prune.lt",
        "nonlinear.enum_sat",
        "nonlinear.icp_unsat_hit",
        "nonlinear.propagate_conflict",
        "preprocess.ackermann",
        "preprocess.distinct",
        "preprocess.eliminate_definition",
        "preprocess.purify_real_div",
        "sat.propagate.conflict",
        "sat.propagate.moved_watch",
        "sat.solve.sat",
        "simplex.check.sat",
        "tseitin.and",
        "tseitin.implies",
        "tseitin.ite",
        "tseitin.or",
    ],
}


class TestCoverageGolden:
    def test_fired_probe_set_matches_golden(self):
        with Telemetry(coverage=True) as tel:
            _arith_campaign("QF_NRA", telemetry=tel)
            sets = tel.snapshot()["sets"]
        fired = {
            kind: sorted(sets[f"coverage.{kind}.fired"]) for kind in GOLDEN_FIRED
        }
        assert fired == GOLDEN_FIRED


_SEARCH_PARAMS = inspect.signature(dpllt._search)


class TestProbeEquivalence:
    """Every probe of a campaign, answered both ways."""

    @pytest.mark.parametrize("family", ["NRA", "QF_NRA"])
    def test_refutation_only_probes_decide_what_full_probes_decide(
        self, family, monkeypatch
    ):
        check_theory = dpllt._check_theory
        shrink_core = dpllt._shrink_core
        search = dpllt._search
        searches = []  # (string_config, seed, meter)
        full_answers = Counter()
        shrinks = []

        def recording_search(*args, **kwargs):
            bound = _SEARCH_PARAMS.bind(*args, **kwargs).arguments
            searches.append((bound["string_config"], bound["seed"], bound["meter"]))
            try:
                return search(*args, **kwargs)
            finally:
                searches.pop()

        def comparing_shrink(theory_literals, cached_check, *args, **kwargs):
            config, seed, meter = searches[-1]
            # A full check at the probe limit, which a refutation-only
            # check with the search's meter runs at.
            probe_meter = replace(meter, enumeration=meter.probes)

            def full(literals):
                return check_theory(list(literals), config, seed, probe_meter)

            def compared(literals):
                expected = full(literals)
                refuted = check_theory(list(literals), config, seed, meter, True)
                answer = cached_check(literals)
                full_answers[expected[0]] += 1
                assert refuted[0] != "sat"
                assert answer[0] != "sat"
                assert (refuted[0] == "unsat") == (expected[0] == "unsat")
                assert (answer[0] == "unsat") == (expected[0] == "unsat")
                return answer

            core = shrink_core(theory_literals, compared, *args, **kwargs)
            assert core == shrink_core(theory_literals, full, *args, **kwargs)
            shrinks.append(core)
            return core

        monkeypatch.setattr(dpllt, "_search", recording_search)
        monkeypatch.setattr(dpllt, "_shrink_core", comparing_shrink)
        _arith_campaign(family, incremental=False)
        assert shrinks
        # Full probes answered every way, so the refutation-only answer
        # replaced both sat and unknown here.
        assert set(full_answers) == {"sat", "unsat", "unknown"}


X = b.int_var("x")
Y = b.int_var("y")
R = b.real_var("r")

# x > 0: the full check finds a model, a refutation-only one cannot.
SATISFIABLE = "(declare-fun x () Int)(assert (> x 0))"


class TestSessionIsolation:
    def test_refutation_only_entry_never_answers_a_full_lookup(self):
        session = SolverSession()
        unknown = ("unknown", None, "budget")
        session.theory_store(["a"], 1, 0, None, unknown, True, refute=True)
        assert session.theory_lookup(["a"], 1, 0, None) is None
        assert session.theory_lookup(["a"], 1, 0, None, True) is not None
        session.theory_store(["b"], 1, 0, None, ("sat", None, ""), True)
        assert session.theory_lookup(["b"], 1, 0, None, True) is None

    def test_full_check_misses_a_stored_refutation_only_unknown(self, monkeypatch):
        assertions = parse_script(SATISFIABLE).asserts
        lookups = []  # (literals, budget, seed, strings key, refute), hit
        theory_lookup = SolverSession.theory_lookup

        def recording(self, literal_list, budget, seed, strings_key, refute=False):
            hit = theory_lookup(self, literal_list, budget, seed, strings_key, refute)
            key = (tuple(literal_list), budget, seed, strings_key, refute)
            lookups.append((key, hit))
            return hit

        monkeypatch.setattr(SolverSession, "theory_lookup", recording)
        outcome = check_assertions(assertions, session=SolverSession())
        assert outcome.result is SolverResult.SAT
        key = next(key for key, _hit in lookups if not key[4])
        literals, budget, seed, strings_key, _refute = key
        assert strings_key == _strings_key(
            StringConfig(), StringConfig().max_assignments
        )

        refuted = dpllt._check_theory(
            list(literals), StringConfig(), seed, WorkMeter(enumeration=budget), True
        )
        assert refuted[0] == "unknown"
        session = SolverSession()
        session.theory_store(
            list(literals), budget, seed, strings_key, refuted, True, refute=True
        )
        lookups.clear()
        outcome = check_assertions(assertions, session=session)
        assert outcome.result is SolverResult.SAT
        assert (key, None) in lookups


def _expected_facts(term, polarity):
    if strings.involves_strings([term]):
        return True, False, None, None, ()
    if bitblast.involves_bv([term]):
        return False, True, None, None, ()
    kind, payload = nonlinear.atom_to_poly(term, polarity)
    names = tuple(var.name for var in free_vars(term) if var.sort == INT)
    return False, False, kind, payload, names


class TestAtomTable:
    ATOMS = [
        b.gt(X, 0),
        b.le(b.mul(X, Y), 3),
        b.eq(b.add(R, 1), b.mul(R, R)),
        b.lift(True),
        b.eq(b.length(b.string_var("s")), X),
        b.eq(b.bvadd(b.bv_var("v", 8), b.bv(1, 8)), b.bv(0, 8)),
    ]

    @pytest.mark.parametrize("polarity", [True, False])
    def test_table_entry_matches_fresh_atom_to_poly(self, polarity):
        table = {}
        for atom in self.ATOMS:
            literals = [(atom, polarity)]
            dpllt._check_theory(literals, StringConfig(), 0, atom_table=table)
        for atom in self.ATOMS:
            entry = table[(atom, polarity)]
            assert entry == _expected_facts(atom, polarity)
            if entry[2] is not None:
                assert entry[2:4] == nonlinear.atom_to_poly(atom, polarity)

    def test_every_entry_of_a_campaign_matches(self, monkeypatch):
        check_theory = dpllt._check_theory
        tables = {}

        def keeping(*args, **kwargs):
            table = args[6] if len(args) > 6 else kwargs.get("atom_table")
            if table is not None:
                tables[id(table)] = table
            return check_theory(*args, **kwargs)

        monkeypatch.setattr(dpllt, "_check_theory", keeping)
        _arith_campaign("QF_NRA", incremental=False)
        polarities = Counter()
        for table in tables.values():
            for (term, polarity), entry in table.items():
                polarities[polarity] += 1
                assert entry == _expected_facts(term, polarity)
        assert polarities[True] and polarities[False]
