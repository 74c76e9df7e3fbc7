"""Differential properties of the string pruner's compiled literals.

The conflict pruner of ``check_strings`` evaluates a closed literal with
the closure ``_compile_literal`` builds instead of folding it. The
closure must give the verdict the fold gives, and must raise
:class:`EvaluationError` exactly where the fold leaves the literal
non-constant, so that the pruner folds instead. Literals are drawn over
every string, Int and core operator the evaluator applies, constant
regexes, division at zero, and an operator no closure covers; Real
terms exercise the Fraction cast ``_fold`` applies to Real values.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.semantics.model import Model
from repro.smtlib import builder as b
from repro.smtlib.ast import Const, mk_app
from repro.smtlib.sorts import INT
from repro.smtlib.typecheck import app
from repro.solver import strings

_SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

S, T = b.string_var("s"), b.string_var("t")
N = b.int_var("n")
R = b.real_var("r")

_strings = st.sampled_from(["", "a", "b", "ab", "ba", "0", "12", "a1"])
_ints = st.integers(-3, 5)
_reals = st.one_of(_ints, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _uf(term):
    return mk_app("uf", (term,), INT)


def _regexes():
    leaf = st.one_of(
        _strings.map(lambda v: app("str.to.re", b.lift(v))),
        st.sampled_from(
            [app("re.allchar"), app("re.none"), app("re.all"), b.re_range("a", "b")]
        ),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["re.*", "re.+", "re.opt", "re.comp"]), inner).map(
                lambda p: app(p[0], p[1])
            ),
            st.tuples(
                st.sampled_from(["re.++", "re.union", "re.inter"]), inner, inner
            ).map(lambda p: app(p[0], p[1], p[2])),
        ),
        max_leaves=4,
    )


def _terms():
    """Strategies of closed String, Int, Real and Bool terms over s, t, n, r."""
    str_leaf = st.one_of(st.sampled_from([S, T]), _strings.map(b.lift))
    # An operator the evaluator does not apply: the fold leaves it open,
    # and the closure must raise.
    uf = str_leaf.map(_uf)
    int_leaf = st.one_of(st.just(N), _ints.map(b.lift), uf)
    real_leaf = st.one_of(st.just(R), _reals.map(lambda v: b.lift(Fraction(v))))
    bool_leaf = st.sampled_from([b.lift(True), b.lift(False)])

    def extend(children):
        s, i, r, p = children

        def op(name, *args):
            return st.tuples(*args).map(lambda xs: app(name, *xs))

        strs = st.one_of(
            s,
            op("str.++", s, s),
            op("str.at", s, i),
            op("str.substr", s, i, i),
            op("str.replace", s, s, s),
            op("str.from.int", i),
            op("ite", p, s, s),
        )
        ints = st.one_of(
            i,
            op("str.len", s),
            op("str.indexof", s, s, i),
            op("str.to.int", s),
            *(op(name, i, i) for name in ("+", "-", "*", "div", "mod")),
            # Division at zero over a length keeps the model's default.
            op("div", op("str.len", s), st.just(b.lift(0))),
            op("mod", op("str.len", s), st.just(b.lift(0))),
            op("-", i),
            op("abs", i),
            op("to_int", r),
            op("ite", p, i, i),
        )
        reals = st.one_of(
            r,
            op("to_real", i),
            *(op(name, r, r) for name in ("+", "-", "*", "/")),
            op("abs", r),
            op("ite", p, r, r),
        )
        bools = st.one_of(
            p,
            op("not", p),
            *(op(name, p, p) for name in ("and", "or", "=>", "xor")),
            op("and", p, p, p),
            op("=", s, s),
            op("=", i, i),
            op("distinct", s, s),
            *(op(name, i, i) for name in ("<", "<=", ">", ">=")),
            op("<", r, r),
            op("is_int", r),
            op("str.prefixof", s, s),
            op("str.suffixof", s, s),
            op("str.contains", s, s),
            op("str.in.re", s, _regexes()),
        )
        return strs, ints, reals, bools

    leaves = (str_leaf, int_leaf, real_leaf, bool_leaf)
    return st.tuples(*extend(extend(leaves)))


_TERMS = _terms()
_VALUES = st.fixed_dictionaries({"s": _strings, "t": _strings, "n": _ints, "r": _reals})


def _values(s="", r=0):
    return {"s": s, "t": "", "n": 0, "r": r}


# Cases random draws reach only rarely, run first by both properties:
# a false conjunct beside one the fold leaves open (no short circuit),
# a Real variable holding an int (the Fraction cast), and two regexes
# over one target in turn (each compile builds its own Regex).
_CASES = [
    ((S, N, R, b.and_(b.eq(S, b.lift("a")), b.le(_uf(S), N))), _values("b", r=1)),
    ((S, N, R, b.in_re(S, b.to_re(b.lift("ab")))), _values("ab")),
    ((S, N, R, b.in_re(S, b.to_re(b.lift("b")))), _values("ab")),
]


def _with_cases(**extra):
    def decorate(test):
        for terms, values in reversed(_CASES):
            test = example(terms=terms, values=values, **extra)(test)
        return test

    return decorate


def _fold(term, values):
    return strings._fold(term, Model(values))


@_SETTINGS
@_with_cases()
@given(terms=_TERMS, values=_VALUES)
def test_compiled_value_is_the_folded_constant(terms, values):
    """Every sort: a closure's value is the fold's constant, of the same
    type, and a closure raises exactly where the fold stays open."""
    for term in terms:
        folded = _fold(term, values)
        value_of = strings._compile_value(term, {}, set())
        try:
            value = value_of(values, Model(values))
        except EvaluationError:
            assert not isinstance(folded, Const)
        else:
            assert isinstance(folded, Const)
            assert type(value) is type(folded.value)
            assert value == folded.value


@_SETTINGS
@_with_cases(polarity=True)
@given(terms=_TERMS, values=_VALUES, polarity=st.booleans())
def test_compiled_verdict_is_the_folds(terms, values, polarity):
    """The closure says "decided false" exactly when the fold does, and
    the literals it cannot decide are the ones the pruner folds."""
    literal = terms[3]
    folded = _fold(literal, values)
    kind, payload = strings._residual_atom(folded, polarity)
    decided_false = strings._compile_literal(literal, polarity)
    assert decided_false is not None
    try:
        verdict = decided_false(values, Model(values))
    except EvaluationError:
        assert not isinstance(folded, Const)
    else:
        assert verdict == (kind == "decided" and not payload)


def test_open_and_quantified_literals_are_left_to_the_fold():
    open_regex = b.in_re(S, b.to_re(T))
    quantified = b.forall([("x", INT)], b.ge(b.mul(b.int_var("x"), b.int_var("x")), 0))
    assert strings._compile_literal(open_regex, True) is None
    assert strings._compile_literal(b.and_(b.eq(S, T), quantified), True) is None

