"""Tests for DPLL(T) internals: theory dispatch, core shrinking, caching."""

import pytest

from repro.semantics.model import Model
from repro.smtlib import builder as b
from repro.smtlib.parser import parse_script
from repro.solver.budget import WorkMeter
from repro.solver.dpllt import _check_theory, _shrink_core, check_assertions
from repro.solver.result import SolverResult
from repro.solver.strings import StringConfig


def lit(term, polarity=True):
    return (term, polarity)


X = b.int_var("x")
Y = b.int_var("y")
S = b.string_var("s")


class TestTheoryDispatch:
    def test_empty_conjunction_sat(self):
        status, model, kind = _check_theory([], StringConfig(), 0)
        assert status == "sat"
        assert isinstance(model, Model)

    def test_arith_conjunction(self):
        status, model, _kind = _check_theory(
            [lit(b.gt(X, 0)), lit(b.lt(X, 5))], StringConfig(), 0
        )
        assert status == "sat"
        assert 0 < model["x"] < 5
        assert isinstance(model["x"], int)

    def test_arith_conflict(self):
        status, _, _kind = _check_theory(
            [lit(b.gt(X, 0)), lit(b.gt(X, 0), False)], StringConfig(), 0
        )
        assert status == "unsat"

    def test_string_dispatch(self):
        status, model, _kind = _check_theory(
            [lit(b.eq(b.length(S), 2))], StringConfig(), 0
        )
        assert status == "sat"
        assert len(model["s"]) == 2

    def test_mixed_string_arith_goes_to_strings(self):
        status, model, _kind = _check_theory(
            [lit(b.eq(X, b.length(S))), lit(b.eq(b.length(S), 3))],
            StringConfig(),
            0,
        )
        assert status == "sat"
        assert model["x"] == 3

    def test_decided_false_atom(self):
        status, _, _kind = _check_theory([lit(b.lift(True), False)], StringConfig(), 0)
        assert status == "unsat"


class TestShrinkCore:
    def _checker(self):
        cache = {}

        def check(literals):
            key = frozenset(literals)
            if key not in cache:
                cache[key] = _check_theory(list(literals), StringConfig(), 0)
            return cache[key]

        return check

    def test_shrinks_to_contradiction_pair(self):
        literals = [
            lit(b.gt(X, 0)),
            lit(b.lt(Y, 9)),
            lit(b.lt(X, 0)),
            lit(b.eq(Y, 2)),
        ]
        core = _shrink_core(literals, self._checker())
        assert len(core) == 2
        assert {str(t) for t, _ in core} == {"(> x 0)", "(< x 0)"}

    def test_singleton_core(self):
        literals = [lit(b.eq(X, X), False), lit(b.gt(Y, 0))]
        core = _shrink_core(literals, self._checker())
        assert len(core) == 1

    def test_oversize_input_returned_unshrunk(self):
        literals = [lit(b.gt(X, i)) for i in range(40)] + [lit(b.lt(X, 0))]
        core = _shrink_core(literals, self._checker(), max_literals=10)
        assert core == literals


class TestCheckAssertions:
    def test_round_budget_reports_unknown(self):
        script = parse_script(
            "(declare-fun a () Real)(declare-fun c () Real)"
            "(assert (= (* a a) (+ c 1.0)))(assert (= (* c c) (+ a 1.0)))"
            "(assert (distinct a c))(check-sat)"
        )
        outcome = check_assertions(script.asserts, meter=WorkMeter(rounds=1))
        if outcome.result is SolverResult.UNKNOWN:
            assert outcome.reason

    def test_no_asserts_is_sat(self):
        outcome = check_assertions([])
        assert outcome.result is SolverResult.SAT

    def test_model_contains_bool_assignments(self):
        script = parse_script(
            "(declare-fun p () Bool)(declare-fun x () Int)"
            "(assert (= p (> x 3)))(assert p)(check-sat)"
        )
        outcome = check_assertions(script.asserts)
        assert outcome.result is SolverResult.SAT
        assert outcome.model["p"] is True
        assert outcome.model["x"] > 3

    def test_purified_fresh_vars_not_leaked_into_trouble(self):
        # Fresh purification variables appear in the model but the
        # original formula still evaluates true.
        from repro.semantics.evaluator import evaluate_script

        script = parse_script(
            "(declare-fun x () Int)(assert (= (div x 3) 2))(check-sat)"
        )
        outcome = check_assertions(script.asserts)
        assert outcome.result is SolverResult.SAT
        assert evaluate_script(script, outcome.model)
        assert 6 <= outcome.model["x"] <= 8
