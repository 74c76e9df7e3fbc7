"""The QF_BV bit-blaster: pinned verdicts, gate identities, brute force.

``check_bv``'s statuses are the contract every blaster change must keep:
how the blaster numbers its variables and orders its clauses may change
the SAT search, but never a verdict. The status goldens were recorded
on the blaster before gates were folded and shared. The gate tests pin
what folding and sharing promise (a folded gate allocates nothing, a
repeated gate is one literal), and a small-width property compares
``check_bv`` with the evaluator over every assignment.
"""

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import deterministic_bv_solvers, run_campaign
from repro.seeds import build_corpus
from repro.seeds.bv_gen import _random_term, generate_bv_seed
from repro.semantics.evaluator import evaluate
from repro.semantics.model import Model
from repro.smtlib import builder as b
from repro.smtlib.ast import App, Assert, mk_var
from repro.smtlib.bitvec import bv_const
from repro.smtlib.sorts import bitvec_sort
from repro.solver import bitblast
from repro.solver.bitblast import BitBlaster, OutOfFragment
from repro.solver.sat import SatSolver

_LETTER = {"sat": "s", "unsat": "u", "unknown": "?"}

# One letter per check_bv call of the opfuzz campaign below, in call
# order: s(at), u(nsat) or ? (unknown).
CAMPAIGN_STATUS_GOLDEN = (
    "susssuususssssusssuussuususssuuusuusssusssusssuuususssuussusssusssuu"
    "susssuussussssssuusuuuuuususssuusussuuuuususuusuuuuuuuusssuuuuussuuu"
    "uuususuuusuuuu"
)


def _blastable_literals(script):
    """The blastable asserted atoms of a script, as (atom, polarity)."""
    literals = []
    for command in script.commands:
        if not isinstance(command, Assert):
            continue
        term, polarity = command.term, True
        while isinstance(term, App) and term.op == "not":
            term, polarity = term.args[0], not polarity
        try:
            BitBlaster(SatSolver()).blast_pred(term)
        except OutOfFragment:
            continue
        literals.append((term, polarity))
    return literals


class TestStatusGoldens:
    def test_opfuzz_campaign_check_statuses(self, monkeypatch):
        statuses = []
        original = bitblast.check_bv

        def recording(theory_literals, *args, **kwargs):
            result = original(theory_literals, *args, **kwargs)
            statuses.append(_LETTER[result[0]])
            return result

        monkeypatch.setattr(bitblast, "check_bv", recording)
        run_campaign(
            {"QF_BV": build_corpus("QF_BV", scale=0.02, seed=0)},
            iterations_per_cell=20,
            seed=0,
            performance_threshold=None,
            solver_factory=deterministic_bv_solvers,
            logic="QF_BV",
            strategy="opfuzz",
            triage=True,
            incremental=True,
        )
        assert "".join(statuses) == CAMPAIGN_STATUS_GOLDEN

    def test_generated_seeds_match_their_labels(self):
        for oracle in ("sat", "unsat"):
            for seed in range(64):
                labeled = generate_bv_seed("QF_BV", oracle, rng=random.Random(seed))
                literals = _blastable_literals(labeled.script)
                status, model, _kind = bitblast.check_bv(literals)
                assert status == oracle, (oracle, seed)
                assert (model is not None) == (oracle == "sat")


# ---------------------------------------------------------------------------
# Gate identities
# ---------------------------------------------------------------------------


def _blaster(num_inputs):
    sat = SatSolver()
    blaster = BitBlaster(sat)
    return sat, blaster, [sat.new_var() for _ in range(num_inputs)]


def _size(sat):
    return sat.num_vars, len(sat.clauses)


class TestGateIdentities:
    def test_folded_gates_allocate_nothing(self):
        sat, blaster, (a, b, s) = _blaster(3)
        true = blaster.true_lit()
        folds = [
            (blaster._and, (a, true), a),
            (blaster._and, (true, a), a),
            (blaster._and, (a, -true), -true),
            (blaster._and, (a, a), a),
            (blaster._and, (a, -a), -true),
            (blaster._or, (a, true), true),
            (blaster._or, (a, -true), a),
            (blaster._or, (a, a), a),
            (blaster._or, (a, -a), true),
            (blaster._xor, (a, true), -a),
            (blaster._xor, (-true, a), a),
            (blaster._xor, (a, a), -true),
            (blaster._xor, (a, -a), true),
            (blaster._mux, (true, a, b), a),
            (blaster._mux, (-true, a, b), b),
            (blaster._mux, (s, a, a), a),
        ]
        before = _size(sat)
        for gate, inputs, expected in folds:
            assert gate(*inputs) == expected, (gate.__name__, inputs)
        assert _size(sat) == before

    def test_and_is_shared_across_input_order(self):
        sat, blaster, (a, b) = _blaster(2)
        vars_before, clauses_before = _size(sat)
        out = blaster._and(a, b)
        assert blaster._and(b, a) == out
        assert _size(sat) == (vars_before + 1, clauses_before + 3)

    def test_or_is_a_negated_and(self):
        sat, blaster, (a, b) = _blaster(2)
        out = blaster._or(a, b)
        before = _size(sat)
        assert out == -blaster._and(-a, -b)
        assert _size(sat) == before

    def test_xor_carries_sign_parity(self):
        sat, blaster, (a, b) = _blaster(2)
        out = blaster._xor(a, b)
        before = _size(sat)
        assert blaster._xor(-a, b) == -out
        assert blaster._xor(a, -b) == -out
        assert blaster._xor(-a, -b) == out
        assert blaster._xor(b, a) == out
        assert _size(sat) == before

    def test_degenerate_mux_is_an_and_or_gate(self):
        sat, blaster, (s, t, e) = _blaster(3)
        true = blaster.true_lit()
        assert blaster._mux(s, true, e) == blaster._or(s, e)
        assert blaster._mux(s, s, e) == blaster._or(s, e)
        assert blaster._mux(s, -true, e) == blaster._and(-s, e)
        assert blaster._mux(s, -s, e) == blaster._and(-s, e)
        assert blaster._mux(s, t, true) == blaster._or(-s, t)
        assert blaster._mux(s, t, -s) == blaster._or(-s, t)
        assert blaster._mux(s, t, -true) == blaster._and(s, t)
        assert blaster._mux(s, t, s) == blaster._and(s, t)
        assert blaster._mux(s, t, -t) == -blaster._xor(s, t)

    def test_full_adder_builds_one_xor_of_its_inputs(self):
        sat, blaster, (a, b, cin) = _blaster(3)
        vars_before = sat.num_vars
        blaster._full_adder(a, b, cin)
        # xor(a, b), xor(a ^ b, cin), and(a, b), and(cin, a ^ b) and the or.
        assert sat.num_vars == vars_before + 5
        before = _size(sat)
        blaster._xor(a, b)
        assert _size(sat) == before

    def test_gate_clauses_have_distinct_allocated_variables(self):
        checked = []

        class Checking(SatSolver):
            def add_gate_clauses(self, clauses):
                for clause in clauses:
                    variables = [abs(lit) for lit in clause]
                    assert len(set(variables)) == len(variables), clause
                    assert max(variables) <= self.num_vars, clause
                checked.append(len(clauses))
                super().add_gate_clauses(clauses)

        for oracle in ("sat", "unsat"):
            for seed in range(16):
                labeled = generate_bv_seed("QF_BV", oracle, rng=random.Random(seed))
                blaster = BitBlaster(Checking())
                for atom, _polarity in _blastable_literals(labeled.script):
                    blaster.blast_pred(atom)
        assert checked


# ---------------------------------------------------------------------------
# Small-width cross-check against brute force
# ---------------------------------------------------------------------------
#
# At widths 3 and 4 every assignment of two free variables can be
# enumerated, so check_bv's status is compared with the evaluator's
# truth table, both for the atom alone and with both variables pinned
# to one drawn assignment. The wrappers put constants where the
# blaster folds them (multiplicands, shift amounts, extract/concat,
# ite conditions) and add the operators _random_term never emits
# (ite, bvneg).

_WRAPPERS = ("bvneg", "ite", "mul-const", "shift-const", "slice")
_PREDICATES = {
    "=": b.eq,
    "distinct": b.distinct,
    "bvult": b.bvult,
    "bvule": b.bvule,
}


@st.composite
def _bv_terms(draw, variables, width):
    rng = draw(st.randoms(use_true_random=False))
    term = _random_term(variables, rng, width, depth=draw(st.integers(0, 2)))
    for wrapper in draw(st.lists(st.sampled_from(_WRAPPERS), max_size=2)):
        const = bv_const(draw(st.integers(0, (1 << width) - 1)), width)
        if wrapper == "bvneg":
            term = b.bvneg(term)
        elif wrapper == "ite":
            cond = draw(
                st.sampled_from(
                    [
                        b.lift(True),
                        b.lift(False),
                        b.bvult(variables[0], const),
                        b.bvule(variables[1], const),
                        b.eq(variables[1], const),
                    ]
                )
            )
            branches = [term, _random_term(variables, rng, width, depth=1)]
            rng.shuffle(branches)
            term = b.ite(cond, *branches)
        elif wrapper == "mul-const":
            factors = [term, const]
            rng.shuffle(factors)
            term = b.bvmul(*factors)
        elif wrapper == "shift-const":
            shift = b.bvshl if rng.random() < 0.5 else b.bvlshr
            term = shift(term, const)
        elif rng.random() < 0.5:
            term = b.bv_extract(width - 1, 0, b.bv_concat(const, term))
        else:
            term = b.bv_extract(2 * width - 1, width, b.bv_concat(term, const))
    return term


@st.composite
def _bv_literals(draw):
    width = draw(st.sampled_from([3, 4]))
    variables = [mk_var("x", bitvec_sort(width)), mk_var("y", bitvec_sort(width))]
    predicate = _PREDICATES[draw(st.sampled_from(sorted(_PREDICATES)))]
    atom = predicate(
        draw(_bv_terms(variables, width)), draw(_bv_terms(variables, width))
    )
    point = draw(st.tuples(*[st.integers(0, (1 << width) - 1)] * 2))
    return atom, draw(st.booleans()), variables, width, point


def _assert_matches_brute_force(atom, polarity, variables, width, point):
    """check_bv agrees with the evaluator on ``atom`` over all
    assignments, and at the one assignment ``point`` pins."""
    x, y = variables
    holds = {
        values: evaluate(atom, Model({x.name: values[0], y.name: values[1]}))
        for values in product(range(1 << width), repeat=2)
    }
    expected = "sat" if polarity in holds.values() else "unsat"
    status, model, _kind = bitblast.check_bv([(atom, polarity)])
    assert status == expected
    if status == "sat":
        assert evaluate(atom, model.complete(variables)) == polarity
    pinned = [
        (atom, polarity),
        (b.eq(x, bv_const(point[0], width)), True),
        (b.eq(y, bv_const(point[1], width)), True),
    ]
    expected = "sat" if holds[point] == polarity else "unsat"
    assert bitblast.check_bv(pinned)[0] == expected


@settings(
    max_examples=150,
    deadline=None,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(literal=_bv_literals())
def _check_bv_matches_brute_force(literal):
    _assert_matches_brute_force(*literal)


class TestSmallWidthCrossCheck:
    def test_check_bv_matches_brute_force(self):
        _check_bv_matches_brute_force()

    def test_a_wrong_fold_fails_the_property(self, monkeypatch):
        correct_and = BitBlaster._and

        def and_true_is_true(self, a, b):
            if self.true_lit() in (a, b):
                return self.true_lit()
            return correct_and(self, a, b)

        monkeypatch.setattr(BitBlaster, "_and", and_true_is_true)
        with pytest.raises(AssertionError):
            _check_bv_matches_brute_force()
