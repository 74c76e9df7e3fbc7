"""Sort checking and inference for SMT-LIB operators.

The central entry point is :func:`app`, a smart constructor that
canonicalizes operator spellings, checks argument sorts, applies the
standard Int-to-Real numeral coercions, and returns a well-sorted
:class:`~repro.smtlib.ast.App` node.

The operator universe covers everything the paper's logics need:
core booleans, integer and real (non)linear arithmetic, unicode-free
strings, and regular expressions.

Construction sits on the fuzzing hot path (every fused constraint and
inversion term goes through :func:`app`), so dispatch is a per-operator
handler table rather than an if-chain, and the common all-arguments-
already-well-sorted case is checked with identity comparisons against
the interned sort singletons before falling back to the general
coercion logic.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import SortError
from repro.smtlib import theory as _theory
from repro.smtlib.ast import Const, Term, mk_app, mk_const
from repro.smtlib.sorts import BOOL, INT, REAL, REGLAN, STRING

# The merged operator universe and alias map are *live* registry views:
# they are populated by the theory registrations at the bottom of this
# module (core, arithmetic, strings) and grow when further theories
# register (e.g. :mod:`repro.smtlib.bitvec` at package import).
OP_ALIASES = _theory.alias_table()
ALL_OPS = _theory.all_ops()


def canonical_op(op):
    """Normalize an operator spelling to its canonical form."""
    return OP_ALIASES.get(op, op)


def is_known_op(op):
    """True if ``op`` (possibly an alias) is a supported operator."""
    return canonical_op(op) in ALL_OPS or _theory.is_indexed_op(op)


def _fail(op, args, why):
    rendered = ", ".join(str(a.sort) for a in args)
    raise SortError(f"ill-sorted ({op} ...): argument sorts [{rendered}]: {why}")


def _coerce_real(term):
    """Coerce a term of sort Int to sort Real.

    Integer constants become real constants (the SMT-LIB numeral rule);
    other terms are wrapped in ``to_real``.
    """
    if term.sort == REAL:
        return term
    if term.sort != INT:
        raise SortError(f"cannot coerce sort {term.sort} to Real")
    if isinstance(term, Const):
        return mk_const(Fraction(term.value), REAL)
    return mk_app("to_real", (term,), REAL)


def _numeric_common(op, args):
    """Coerce mixed Int/Real arguments to a common numeric sort."""
    sorts = {a.sort for a in args}
    if not sorts <= {INT, REAL}:
        _fail(op, args, "expected numeric arguments")
    if sorts == {INT}:
        return list(args), INT
    return [_coerce_real(a) for a in args], REAL


def _expect_arity(op, args, n):
    if len(args) != n:
        _fail(op, args, f"expected {n} argument(s), got {len(args)}")


def _expect_min_arity(op, args, n):
    if len(args) < n:
        _fail(op, args, f"expected at least {n} argument(s), got {len(args)}")


def _expect_sorts(op, args, sort):
    for a in args:
        if a.sort is not sort and a.sort != sort:
            _fail(op, args, f"expected all arguments of sort {sort}")


def _expect_sig(op, args, sig):
    for a, s in zip(args, sig):
        if a.sort is not s and a.sort != s:
            _fail(op, args, f"expected signature {tuple(str(x) for x in sig)}")


# -- per-operator handlers (receive the canonical op and an args tuple) ----


def _h_not(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, BOOL)
    return mk_app("not", args, BOOL)


def _h_bool_nary(op, args):
    _expect_min_arity(op, args, 2 if op == "=>" else 1)
    _expect_sorts(op, args, BOOL)
    return mk_app(op, args, BOOL)


def _h_eq(op, args):
    _expect_min_arity(op, args, 2)
    first = args[0].sort
    for a in args:
        if a.sort is not first:
            return _h_eq_general(op, args)
    return mk_app(op, args, BOOL)


def _h_eq_general(op, args):
    sorts = {a.sort for a in args}
    if sorts <= {INT, REAL} and len(sorts) > 1:
        args = tuple(_coerce_real(a) for a in args)
    elif len(sorts) > 1:
        _fail(op, args, "arguments must share a sort")
    return mk_app(op, args, BOOL)


def _h_ite(op, args):
    _expect_arity(op, args, 3)
    if args[0].sort != BOOL:
        _fail(op, args, "condition must be Bool")
    then, other = args[1], args[2]
    if then.sort != other.sort:
        if {then.sort, other.sort} == {INT, REAL}:
            then, other = _coerce_real(then), _coerce_real(other)
        else:
            _fail(op, args, "branches must share a sort")
    return mk_app("ite", (args[0], then, other), then.sort)


def _h_add_mul(op, args):
    _expect_min_arity(op, args, 1)
    sort = args[0].sort
    if sort is INT or sort is REAL:
        for a in args:
            if a.sort is not sort:
                break
        else:
            return mk_app(op, args, sort)
    largs, sort = _numeric_common(op, args)
    return mk_app(op, tuple(largs), sort)


def _h_sub(op, args):
    _expect_min_arity(op, args, 1)
    sort = args[0].sort
    if sort is INT or sort is REAL:
        for a in args:
            if a.sort is not sort:
                break
        else:
            if len(args) == 1 and isinstance(args[0], Const):
                # Normalize unary minus of a literal to a negative
                # constant, so printing and re-parsing yield identical
                # ASTs.
                value = args[0].value
                return mk_const(-value if sort is INT else Fraction(-value), sort)
            return mk_app("-", args, sort)
    largs, sort = _numeric_common(op, args)
    if len(largs) == 1 and isinstance(largs[0], Const):
        value = largs[0].value
        return mk_const(-value if sort == INT else Fraction(-value), sort)
    return mk_app("-", tuple(largs), sort)


def _h_real_div(op, args):
    _expect_min_arity(op, args, 2)
    for a in args:
        if a.sort is not REAL:
            return mk_app("/", tuple(_coerce_real(x) for x in args), REAL)
    return mk_app("/", args, REAL)


def _h_div_mod(op, args):
    _expect_arity(op, args, 2)
    _expect_sorts(op, args, INT)
    return mk_app(op, args, INT)


def _h_abs(op, args):
    _expect_arity(op, args, 1)
    if args[0].sort not in (INT, REAL):
        _fail(op, args, "expected a numeric argument")
    return mk_app("abs", args, args[0].sort)


def _h_compare(op, args):
    _expect_min_arity(op, args, 2)
    sort = args[0].sort
    if sort is INT or sort is REAL:
        for a in args:
            if a.sort is not sort:
                break
        else:
            return mk_app(op, args, BOOL)
    largs, _ = _numeric_common(op, args)
    return mk_app(op, tuple(largs), BOOL)


def _h_to_real(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, INT)
    return mk_app("to_real", args, REAL)


def _h_to_int(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, REAL)
    return mk_app("to_int", args, INT)


def _h_is_int(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, REAL)
    return mk_app("is_int", args, BOOL)


def _h_str_concat(op, args):
    _expect_min_arity(op, args, 2)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, STRING)


def _h_str_len(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, INT)


def _h_str_at(op, args):
    _expect_arity(op, args, 2)
    _expect_sig(op, args, (STRING, INT))
    return mk_app(op, args, STRING)


def _h_str_substr(op, args):
    _expect_arity(op, args, 3)
    _expect_sig(op, args, (STRING, INT, INT))
    return mk_app(op, args, STRING)


def _h_str_indexof(op, args):
    _expect_arity(op, args, 3)
    _expect_sig(op, args, (STRING, STRING, INT))
    return mk_app(op, args, INT)


def _h_str_replace(op, args):
    _expect_arity(op, args, 3)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, STRING)


def _h_str_pred(op, args):
    _expect_arity(op, args, 2)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, BOOL)


def _h_str_to_int(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, INT)


def _h_str_from_int(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, INT)
    return mk_app(op, args, STRING)


def _h_str_in_re(op, args):
    _expect_arity(op, args, 2)
    _expect_sig(op, args, (STRING, REGLAN))
    return mk_app(op, args, BOOL)


def _h_str_to_re(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, REGLAN)


def _h_re_nullary(op, args):
    _expect_arity(op, args, 0)
    return mk_app(op, (), REGLAN)


def _h_re_nary(op, args):
    _expect_min_arity(op, args, 2)
    _expect_sorts(op, args, REGLAN)
    return mk_app(op, args, REGLAN)


def _h_re_unary(op, args):
    _expect_arity(op, args, 1)
    _expect_sorts(op, args, REGLAN)
    return mk_app(op, args, REGLAN)


def _h_re_range(op, args):
    _expect_arity(op, args, 2)
    _expect_sorts(op, args, STRING)
    return mk_app(op, args, REGLAN)


# -- theory registrations --------------------------------------------------
#
# Canonical operator spellings follow the paper's figures (SMT-LIB 2.5
# style for strings, e.g. ``str.to.int``); 2.6 spellings are accepted
# as aliases and normalized on construction. Sharing a handler object
# between two operators declares them type-equivalent (see below), so
# each theory's handler table doubles as its mutation-class definition.

_CORE = _theory.register_theory(_theory.Theory(
    name="core",
    sorts=(BOOL,),
    handlers={
        "not": _h_not,
        "and": _h_bool_nary,
        "or": _h_bool_nary,
        "xor": _h_bool_nary,
        "=>": _h_bool_nary,
        "=": _h_eq,
        "distinct": _h_eq,
        "ite": _h_ite,
    },
    aliases={"=>": "=>"},
    lazy_ops=("and", "or", "ite", "=>"),
    connectives=("not", "and", "or", "xor", "=>", "ite", "=", "distinct"),
))

_ARITHMETIC = _theory.register_theory(_theory.Theory(
    name="arithmetic",
    sorts=(INT, REAL),
    handlers={
        "+": _h_add_mul,
        "*": _h_add_mul,
        "-": _h_sub,
        "/": _h_real_div,
        "div": _h_div_mod,
        "mod": _h_div_mod,
        "abs": _h_abs,
        "<": _h_compare,
        "<=": _h_compare,
        ">": _h_compare,
        ">=": _h_compare,
        "to_real": _h_to_real,
        "to_int": _h_to_int,
        "is_int": _h_is_int,
    },
    hard_mul_ops=("*",),
    hard_div_ops=("/", "div", "mod"),
    fusible_sorts=(INT, REAL),
    fusion_schemes=(
        "int-addition", "int-addition-constant",
        "int-multiplication", "int-affine",
        "real-addition", "real-addition-constant",
        "real-multiplication", "real-affine",
    ),
    logics=(
        "LIA", "LRA", "NIA", "NRA",
        "QF_LIA", "QF_LRA", "QF_NIA", "QF_NRA",
    ),
    seed_families=("QF_LIA", "QF_LRA", "QF_NIA", "QF_NRA", "LIA", "NIA", "NRA"),
    solver_backend="nonlinear",
))

_STRINGS = _theory.register_theory(_theory.Theory(
    name="strings",
    sorts=(STRING, REGLAN),
    handlers={
        "str.++": _h_str_concat,
        "str.len": _h_str_len,
        "str.at": _h_str_at,
        "str.substr": _h_str_substr,
        "str.indexof": _h_str_indexof,
        "str.replace": _h_str_replace,
        "str.prefixof": _h_str_pred,
        "str.suffixof": _h_str_pred,
        "str.contains": _h_str_pred,
        "str.to.int": _h_str_to_int,
        "str.from.int": _h_str_from_int,
        "str.in.re": _h_str_in_re,
        "str.to.re": _h_str_to_re,
        "re.none": _h_re_nullary,
        "re.all": _h_re_nullary,
        "re.allchar": _h_re_nullary,
        "re.++": _h_re_nary,
        "re.union": _h_re_nary,
        "re.inter": _h_re_nary,
        "re.*": _h_re_unary,
        "re.+": _h_re_unary,
        "re.opt": _h_re_unary,
        "re.comp": _h_re_unary,
        "re.range": _h_re_range,
    },
    aliases={
        "str.to_int": "str.to.int",
        "str.from_int": "str.from.int",
        "int.to.str": "str.from.int",
        "str.in_re": "str.in.re",
        "str.to_re": "str.to.re",
        "str.substring": "str.substr",
    },
    lazy_ops=("str.in.re",),
    fusible_sorts=(STRING,),
    fusion_schemes=(
        "string-concat-substr", "string-concat-replace", "string-concat-infix",
    ),
    logics=("QF_S", "QF_SLIA"),
    seed_families=("QF_S", "QF_SLIA"),
    solver_backend="strings",
))

# The live merged dispatch table (the registry mutates it in place when
# later theories — bitvectors — register their handlers).
_HANDLERS = _theory.handler_table()


# -- type-equivalence classes (OpFuzz-style operator mutation) -------------
#
# Two operators are *type-equivalent* when they share a handler above:
# the handler IS the signature — same accepted argument sorts, same
# coercions, same result sort — so swapping one class member for
# another can never produce an ill-sorted term. This is the ground
# truth the type-aware operator-mutation strategy
# (:mod:`repro.strategies.opfuzz`) draws its replacement candidates
# from; deriving it from the dispatch table means a new operator joins
# the right mutation class the moment it gets a handler.
#
# The one intra-class arity wrinkle: ``=>`` demands at least two
# arguments while its boolean classmates accept one, so it is only a
# valid replacement at arity >= 2.
_CLASS_MIN_ARITY = {"=>": 2}


def _equivalence_by_op():
    by_handler = {}
    for op, handler in _HANDLERS.items():
        by_handler.setdefault(handler, []).append(op)
    return {
        op: tuple(sorted(ops))
        for ops in by_handler.values()
        if len(ops) > 1
        for op in ops
    }


# The class map is cached against the registry version: theories that
# register after this module's import (bitvectors) extend the dispatch
# table, and their operators must join the right class on first use.
_EQUIV_CACHE = (-1, {})


def _equiv_map():
    global _EQUIV_CACHE
    version = _theory.registry_version()
    if _EQUIV_CACHE[0] != version:
        _EQUIV_CACHE = (version, _equivalence_by_op())
    return _EQUIV_CACHE[1]


def operator_equivalence_classes():
    """The type-equivalence classes of the dispatch table.

    Returns a sorted tuple of sorted operator tuples, one per class
    with at least two members (singletons have no mutation partners).
    """
    return tuple(sorted({ops for ops in _equiv_map().values()}))


def mutation_alternatives(op, arity):
    """Type-compatible replacements for ``op`` applied to ``arity`` args.

    Returns the other members of ``op``'s type-equivalence class that
    accept ``arity`` arguments (sorted, deterministic). Empty when the
    operator is unknown, alone in its class, or no classmate admits the
    arity — i.e. exactly when this occurrence cannot be mutated.
    """
    ops = _equiv_map().get(canonical_op(op))
    if not ops:
        return ()
    return tuple(
        o for o in ops if o != op and arity >= _CLASS_MIN_ARITY.get(o, 0)
    )


def app(op, *args):
    """Build a well-sorted application of ``op`` to ``args``.

    Raises :class:`~repro.errors.SortError` for arity or sort mismatches.
    """
    handler = _HANDLERS.get(op)
    if handler is None:
        op = OP_ALIASES.get(op, op)
        handler = _HANDLERS.get(op)
        if handler is None:
            # Indexed operator spellings ("(_ extract 3 0)") carry their
            # indices in the op string; the owning theory parses them.
            handler = _theory.indexed_handler_for(op)
        if handler is None:
            raise SortError(f"unknown operator: {op!r}")
    try:
        return handler(op, args)
    except AttributeError:
        # Handlers read ``.sort`` without an upfront isinstance sweep;
        # recover the historical TypeError for non-Term arguments here,
        # off the hot path.
        for a in args:
            if not isinstance(a, Term):
                raise TypeError(f"argument to {op} is not a Term: {a!r}") from None
        raise
