"""Nonlinear arithmetic: polynomial atoms, ICP, and model sampling.

The reference solver handles nonlinear real/integer arithmetic (the
paper's NRA/NIA/QF_NRA/QF_NIA logics) with a sound, incomplete
procedure:

- **SAT side** — candidate models are found by (a) enumerating small
  values for the variables that occur nonlinearly, which linearizes the
  remaining system for the simplex core, and (b) direct sampling; every
  candidate is verified by exact rational evaluation, so ``sat`` answers
  are always sound.
- **UNSAT side** — interval constraint propagation (ICP) over a closed
  interval relaxation, with branching on bounded boxes; ``unsat`` is
  reported only when the whole space is pruned, so ``unsat`` answers are
  sound too.
- Anything else is ``unknown``.

This mirrors how real solvers behave on hard NRA inputs, including the
paper's observation that solvers may answer ``unknown``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)
from repro.errors import ReproError
from repro.smtlib.ast import App, Const, Var
from repro.solver import linarith
from repro.solver.linarith import LinearAtom

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# A monomial is a tuple of (var_name, exponent) pairs, sorted by name;
# the empty tuple is the constant monomial. A polynomial maps monomials
# to Fraction coefficients.

CONST_MONO = ()


def poly_from_term(term):
    """Convert an arithmetic term to a polynomial (monomial -> coeff).

    Raises :class:`ReproError` on non-polynomial operators (divisions
    must have been purified away by preprocessing).
    """
    if isinstance(term, Const):
        return {CONST_MONO: Fraction(term.value)}
    if isinstance(term, Var):
        return {((term.name, 1),): Fraction(1)}
    if isinstance(term, App):
        op = term.op
        if op == "+":
            out = {}
            for arg in term.args:
                _poly_add(out, poly_from_term(arg), Fraction(1))
            return out
        if op == "-":
            if len(term.args) == 1:
                out = {}
                _poly_add(out, poly_from_term(term.args[0]), Fraction(-1))
                return out
            out = dict(poly_from_term(term.args[0]))
            for arg in term.args[1:]:
                _poly_add(out, poly_from_term(arg), Fraction(-1))
            return out
        if op == "*":
            out = {CONST_MONO: Fraction(1)}
            for arg in term.args:
                out = _poly_mul(out, poly_from_term(arg))
            return out
        if op == "to_real":
            return poly_from_term(term.args[0])
    raise ReproError(f"not a polynomial term: {term}")


def _poly_add(target, other, factor):
    for mono, coeff in other.items():
        new = target.get(mono, Fraction(0)) + coeff * factor
        if new == 0:
            target.pop(mono, None)
        else:
            target[mono] = new


def _poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            new = out.get(mono, Fraction(0)) + c1 * c2
            if new == 0:
                out.pop(mono, None)
            else:
                out[mono] = new
    return out


def _mono_mul(m1, m2):
    powers = dict(m1)
    for var, exp in m2:
        powers[var] = powers.get(var, 0) + exp
    return tuple(sorted(powers.items()))


def poly_degree(poly, var=None):
    """Total degree, or the degree in one variable if ``var`` is given."""
    best = 0
    for mono in poly:
        if var is None:
            best = max(best, sum(exp for _, exp in mono))
        else:
            best = max(best, sum(exp for v, exp in mono if v == var))
    return best


def poly_vars(poly):
    return {v for mono in poly for v, _ in mono}


def poly_is_linear(poly):
    return poly_degree(poly) <= 1


def eval_poly(poly, model):
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for var, exp in mono:
            term *= model[var] ** exp
        total += term
    return total


@dataclass(frozen=True)
class PolyAtom:
    """A normalized polynomial constraint ``poly op 0``.

    ``op`` is one of ``"<="``, ``"<"``, ``"="``, ``"!="``.
    """

    poly: tuple  # tuple[(monomial, Fraction)] sorted for hashability
    op: str

    @classmethod
    def make(cls, poly, op):
        items = tuple(sorted(poly.items()))
        return cls(items, op)

    @property
    def poly_dict(self):
        return dict(self.poly)

    def evaluate(self, model):
        value = eval_poly(self.poly_dict, model)
        if self.op == "<=":
            return value <= 0
        if self.op == "<":
            return value < 0
        if self.op == "=":
            return value == 0
        return value != 0

    def negated(self):
        if self.op == "<=":
            negated = {m: -c for m, c in self.poly}
            return PolyAtom.make(negated, "<")
        if self.op == "<":
            negated = {m: -c for m, c in self.poly}
            return PolyAtom.make(negated, "<=")
        if self.op == "=":
            return PolyAtom(self.poly, "!=")
        return PolyAtom(self.poly, "=")

    def to_linear_atom(self):
        """Convert a linear PolyAtom to a :class:`LinearAtom` (op != "!=")."""
        coeffs = {}
        constant = Fraction(0)
        for mono, coeff in self.poly:
            if mono == CONST_MONO:
                constant -= coeff
            else:
                if len(mono) != 1 or mono[0][1] != 1:
                    raise ReproError("not linear")
                ((var, _),) = mono
                coeffs[var] = coeffs.get(var, Fraction(0)) + coeff
        return LinearAtom.make(coeffs, self.op, constant)


_COMPARISONS = {"<", "<=", ">", ">="}


def atom_to_poly(term, polarity):
    """Convert a comparison/equality atom to a :class:`PolyAtom`.

    Returns ``(kind, payload)`` where kind is ``"decided"`` (payload is
    a bool: the literal already holds / fails), ``"poly"`` (payload is
    a PolyAtom expressing ``literal holds``) or ``"stuck"`` (the atom is
    not polynomial — e.g. it still contains string structure).
    """
    from repro.smtlib.sorts import INT, REAL

    if isinstance(term, Const):
        return "decided", bool(term.value) == polarity
    if not isinstance(term, App):
        return "stuck", None
    op = term.op
    if op in _COMPARISONS or (op == "=" and term.args[0].sort in (INT, REAL)):
        try:
            left = poly_from_term(term.args[0])
            right = poly_from_term(term.args[1])
        except ReproError:
            return "stuck", None
        diff = dict(left)
        _poly_add(diff, right, Fraction(-1))
        if op == "<":
            atom = PolyAtom.make(diff, "<")
        elif op == "<=":
            atom = PolyAtom.make(diff, "<=")
        elif op == ">":
            atom = PolyAtom.make({m: -c for m, c in diff.items()}, "<")
        elif op == ">=":
            atom = PolyAtom.make({m: -c for m, c in diff.items()}, "<=")
        else:
            atom = PolyAtom.make(diff, "=")
        if not polarity:
            atom = atom.negated()
        return "poly", atom
    return "stuck", None


# ---------------------------------------------------------------------------
# Interval arithmetic with open/closed endpoints (None = unbounded)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """An interval over the rationals with optional open endpoints.

    Tracking endpoint openness lets ICP refute strict-inequality
    conflicts (e.g. ``v > 0 and w >= v and w = q*v and q < 0``), which
    show up constantly in fused arithmetic formulas.
    """

    lo: object = None  # Fraction or None (-inf)
    hi: object = None  # Fraction or None (+inf)
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self):
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def attains_zero(self):
        """True if 0 is actually a member of the interval."""
        if self.lo is not None:
            if self.lo > 0 or (self.lo == 0 and self.lo_open):
                return False
        if self.hi is not None:
            if self.hi < 0 or (self.hi == 0 and self.hi_open):
                return False
        return True

    def contains_zero(self):
        return self.attains_zero()

    def width(self):
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def intersect(self, other):
        if self.lo is None:
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is None or self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi is None:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is None or self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)


FULL = Interval(None, None)


def _point(value):
    if type(value) is int or type(value) is Fraction:
        return Interval(value, value)
    return Interval(Fraction(value), Fraction(value))


def _iv_add(a, b):
    if a.lo is None or b.lo is None:
        lo, lo_open = None, False
    else:
        lo, lo_open = a.lo + b.lo, a.lo_open or b.lo_open
    if a.hi is None or b.hi is None:
        hi, hi_open = None, False
    else:
        hi, hi_open = a.hi + b.hi, a.hi_open or b.hi_open
    return Interval(lo, hi, lo_open, hi_open)


def _iv_neg(a):
    return Interval(
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
        a.hi_open,
        a.lo_open,
    )


def _iv_scale(a, c):
    if c == 0:
        return _point(0)
    if c > 0:
        return Interval(
            None if a.lo is None else a.lo * c,
            None if a.hi is None else a.hi * c,
            a.lo_open,
            a.hi_open,
        )
    return _iv_scale(_iv_neg(a), -c)


_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _endpoint_mul(a, a_open, b, b_open):
    """Endpoint product: ``(value, open)``, convention ``0 * inf = 0``."""
    if a == 0 or b == 0:
        # Zero endpoints: the product value 0; openness handled by the
        # caller via attains-zero reasoning.
        return 0, a_open or b_open
    if isinstance(a, float) or isinstance(b, float):
        positive = (a > 0) == (b > 0)
        return (_POS_INF if positive else _NEG_INF), True
    return a * b, a_open or b_open


def _iv_mul(a, b):
    ends_a = [
        (_NEG_INF if a.lo is None else a.lo, a.lo_open or a.lo is None),
        (_POS_INF if a.hi is None else a.hi, a.hi_open or a.hi is None),
    ]
    ends_b = [
        (_NEG_INF if b.lo is None else b.lo, b.lo_open or b.lo is None),
        (_POS_INF if b.hi is None else b.hi, b.hi_open or b.hi is None),
    ]
    products = [
        _endpoint_mul(va, oa, vb, ob) for va, oa in ends_a for vb, ob in ends_b
    ]
    lo = min(v for v, _ in products)
    hi = max(v for v, _ in products)
    # An extremum is open only if *every* endpoint pair achieving it is
    # open; zero is additionally attained whenever either factor
    # interval attains zero.
    lo_open = all(o for v, o in products if v == lo)
    hi_open = all(o for v, o in products if v == hi)
    if lo == 0 and (a.attains_zero() or b.attains_zero()):
        lo_open = False
    if hi == 0 and (a.attains_zero() or b.attains_zero()):
        hi_open = False
    return Interval(
        None if lo == _NEG_INF else lo,
        None if hi == _POS_INF else hi,
        False if lo == _NEG_INF else lo_open,
        False if hi == _POS_INF else hi_open,
    )


def _iv_pow(a, exp):
    if exp == 1:
        return a
    result = _point(1)
    for _ in range(exp):
        result = _iv_mul(result, a)
    # Even powers are nonnegative; tighten the lower bound.
    if exp % 2 == 0:
        lo = result.lo
        if lo is None or lo < 0:
            result = Interval(0, result.hi, not a.attains_zero(), result.hi_open)
    return result


_POINT_ONE = Interval(1, 1)


def eval_poly_interval(poly, box):
    total = Interval(0, 0)
    for mono, coeff in poly.items():
        term = _POINT_ONE
        for var, exp in mono:
            term = _iv_mul(term, _iv_pow(box.get(var, FULL), exp))
        # Integral coefficients scale with native int arithmetic.
        if coeff.denominator == 1:
            coeff = coeff.numerator
        total = _iv_add(total, _iv_scale(term, coeff))
    return total


def _iv_div(a, b):
    """Conservative interval division ``a / b``.

    Exact when ``b`` is bounded away from zero; FULL otherwise.
    """
    if b.contains_zero():
        return FULL
    if b.lo is not None and (b.lo > 0 or (b.lo == 0 and b.lo_open)):
        # Entirely positive.
        if b.lo == 0:
            upper = (None, False)
        else:
            upper = (Fraction(1) / b.lo, b.lo_open)
        if b.hi is None:
            lower = (Fraction(0), True)
        else:
            lower = (Fraction(1) / b.hi, b.hi_open)
        inv = Interval(lower[0], upper[0], lower[1], upper[1])
    else:
        # Entirely negative.
        if b.hi == 0:
            lower = (None, False)
        else:
            lower = (Fraction(1) / b.hi, b.hi_open)
        if b.lo is None:
            upper = (Fraction(0), True)
        else:
            upper = (Fraction(1) / b.lo, b.lo_open)
        inv = Interval(lower[0], upper[0], lower[1], upper[1])
    return _iv_mul(a, inv)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


def _contract(atoms, box, int_vars):
    """One round of interval contraction; returns (changed, feasible)."""
    changed = False
    for atom in atoms:
        if atom.op == "!=":
            continue
        poly = atom.poly_dict
        value = eval_poly_interval(poly, box)
        if atom.op == "<=":
            infeasible = value.lo is not None and (
                value.lo > 0 or (value.lo == 0 and value.lo_open)
            )
            if infeasible:
                line_probe("icp.prune.le")
                return changed, False
        elif atom.op == "<":
            if value.lo is not None and value.lo >= 0:
                line_probe("icp.prune.lt")
                return changed, False
        else:  # "="
            lo_positive = value.lo is not None and (
                value.lo > 0 or (value.lo == 0 and value.lo_open)
            )
            hi_negative = value.hi is not None and (
                value.hi < 0 or (value.hi == 0 and value.hi_open)
            )
            if lo_positive or hi_negative:
                line_probe("icp.prune.eq")
                return changed, False
        # Try to tighten each variable that is linear in this atom.
        for var in poly_vars(poly):
            if poly_degree(poly, var) != 1:
                continue
            # poly = A*var + B with A, B free of var.
            a_poly = {}
            b_poly = {}
            for mono, coeff in poly.items():
                powers = dict(mono)
                if var in powers:
                    rest = tuple(sorted((v, e) for v, e in powers.items() if v != var))
                    a_poly[rest] = a_poly.get(rest, Fraction(0)) + coeff
                else:
                    b_poly[mono] = coeff
            a_iv = eval_poly_interval(a_poly, box)
            if a_iv.contains_zero():
                continue
            a_positive = a_iv.lo is not None and (
                a_iv.lo > 0 or (a_iv.lo == 0 and a_iv.lo_open)
            )
            b_iv = eval_poly_interval(b_poly, box)
            # A*var + B op 0  ->  var op' -B/A  (direction by sign of A).
            bound_iv = _iv_div(_iv_neg(b_iv), a_iv)
            current = box.get(var, FULL)
            strict = atom.op == "<"
            if atom.op == "=":
                new = current.intersect(bound_iv)
            elif a_positive:
                new = current.intersect(
                    Interval(None, bound_iv.hi, False, bound_iv.hi_open or strict)
                )
            else:
                new = current.intersect(
                    Interval(bound_iv.lo, None, bound_iv.lo_open or strict, False)
                )
            if var in int_vars:
                new = _round_int(new)
            if new != current:
                changed = True
                box[var] = new
                if new.is_empty():
                    line_probe("icp.prune.empty_var")
                    return changed, False
    return changed, True


def _round_int(iv):
    # Integer bounds are returned as plain ints (exact, and far cheaper
    # than Fraction in the interval arithmetic this feeds — the ICP
    # loop over integer boxes then runs on native int ops).
    lo = iv.lo
    hi = iv.hi
    if lo is not None:
        ceil = -((-lo.numerator) // lo.denominator)
        if iv.lo_open and ceil == lo:
            ceil += 1
        lo = ceil
    if hi is not None:
        floor = hi.numerator // hi.denominator
        if iv.hi_open and floor == hi:
            floor -= 1
        hi = floor
    return Interval(lo, hi)


def icp_unsat(atoms, variables, int_vars, max_depth=10, max_nodes=300):
    """True if ICP proves the conjunction unsatisfiable over the reals."""
    function_probe("nonlinear.icp_unsat")
    nodes = [0]

    def explore(box, depth):
        if nodes[0] >= max_nodes:
            return False
        nodes[0] += 1
        box = dict(box)
        for _ in range(12):
            changed, feasible = _contract(atoms, box, int_vars)
            if not feasible:
                return True
            if not changed:
                break
        if depth >= max_depth:
            return False
        # Pick a bounded variable with the widest interval to split on.
        best = None
        best_width = None
        for var in variables:
            iv = box.get(var, FULL)
            width = iv.width()
            if width is None:
                return False  # unbounded region: cannot cover the space
            if width == 0:
                continue
            if best_width is None or width > best_width:
                best, best_width = var, width
        if best is None:
            # Point box that survived contraction: cannot refute.
            return False
        iv = box[best]
        # Exact halving: endpoints may be plain ints, and int/int true
        # division would produce a float.
        span = iv.lo + iv.hi
        mid = Fraction(span, 2) if type(span) is int else span / 2
        left = dict(box)
        left[best] = Interval(iv.lo, mid, iv.lo_open, False)
        right = dict(box)
        right[best] = Interval(mid, iv.hi, False, iv.hi_open)
        return explore(left, depth + 1) and explore(right, depth + 1)

    return explore({v: FULL for v in variables}, 0)


# ---------------------------------------------------------------------------
# SAT search
# ---------------------------------------------------------------------------

_SMALL_VALUES = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
]


def _nonlinear_vars(atoms):
    """Variables occurring in a monomial of degree >= 2."""
    out = set()
    for atom in atoms:
        for mono, _ in atom.poly:
            if sum(e for _, e in mono) >= 2:
                out |= {v for v, _ in mono}
    return out


def _substitute_values(atom, values):
    """Partially evaluate a PolyAtom under a partial assignment."""
    poly = {}
    for mono, coeff in atom.poly:
        new_coeff = coeff
        remaining = []
        for var, exp in mono:
            if var in values:
                new_coeff *= values[var] ** exp
            else:
                remaining.append((var, exp))
        mono2 = tuple(remaining)
        new = poly.get(mono2, Fraction(0)) + new_coeff
        if new == 0:
            poly.pop(mono2, None)
        else:
            poly[mono2] = new
    return PolyAtom.make(poly, atom.op)


def _poly_pow(poly, exp):
    out = {CONST_MONO: Fraction(1)}
    for _ in range(exp):
        out = _poly_mul(out, poly)
    return out


def _poly_substitute(poly, var, replacement):
    """Substitute ``var := replacement`` (a polynomial) into ``poly``."""
    out = {}
    for mono, coeff in poly.items():
        exponent = 0
        rest = []
        for v, e in mono:
            if v == var:
                exponent = e
            else:
                rest.append((v, e))
        term = {tuple(rest): coeff}
        if exponent:
            term = _poly_mul(term, _poly_pow(replacement, exponent))
        _poly_add(out, term, Fraction(1))
    return out


def _propagate_equalities(atoms, int_vars):
    """Eliminate variables using linear equalities (Gaussian style).

    Univariate equalities pin a variable to a constant; multivariate
    linear equalities eliminate one variable by substitution. Returns
    ``(status, fixed_values, eliminations, reduced_atoms)`` — status is
    UNSAT when the propagation derives a contradiction, else SAT
    (meaning "no contradiction found", not satisfiability).
    ``eliminations`` is an ordered list of ``(var, expression_poly)``
    used to reconstruct eliminated variables from a model of the
    reduced system (apply in reverse).
    """
    fixed = {}
    eliminations = []
    work = list(atoms)
    progress = True
    while progress:
        progress = False
        # Drop decided atoms; detect contradictions.
        remaining = []
        for atom in work:
            poly = atom.poly_dict
            if not poly_vars(poly):
                if not atom.evaluate({}):
                    line_probe("nonlinear.propagate_conflict")
                    return UNSAT, fixed, eliminations, []
                continue
            remaining.append(atom)
        work = remaining

        # Univariate pins first (exact, and respects integrality).
        for atom in work:
            poly = atom.poly_dict
            variables = poly_vars(poly)
            if atom.op == "=" and len(variables) == 1 and poly_is_linear(poly):
                (var,) = variables
                slope = poly.get(((var, 1),), Fraction(0))
                offset = poly.get(CONST_MONO, Fraction(0))
                value = -offset / slope
                if var in int_vars and value.denominator != 1:
                    return UNSAT, fixed, eliminations, []
                fixed[var] = value
                work = [
                    _substitute_values(a, {var: value}) for a in work if a is not atom
                ]
                progress = True
                break
        if progress:
            continue

        # Multivariate linear equality: eliminate one variable. Prefer
        # eliminating rational variables (no integrality side effects).
        for atom in work:
            poly = atom.poly_dict
            if atom.op != "=" or not poly_is_linear(poly):
                continue
            candidates = sorted(poly_vars(poly), key=lambda v: (v in int_vars, v))
            var = None
            for candidate in candidates:
                if candidate not in int_vars:
                    var = candidate
                    break
            if var is None:
                # All integer: only eliminate with a unit coefficient so
                # integrality is preserved by the substitution.
                for candidate in candidates:
                    if abs(poly.get(((candidate, 1),), Fraction(0))) == 1:
                        var = candidate
                        break
            if var is None:
                continue
            slope = poly[((var, 1),)]
            expression = {}
            for mono, coeff in poly.items():
                if mono == ((var, 1),):
                    continue
                expression[mono] = -coeff / slope
            eliminations.append((var, expression))
            work = [
                PolyAtom.make(_poly_substitute(a.poly_dict, var, expression), a.op)
                for a in work
                if a is not atom
            ]
            progress = True
            break
    return SAT, fixed, eliminations, work


def check_nonlinear(
    atoms, int_vars=(), seed=0, enum_budget=900, deadline=None, refute=False
):
    """Decide a conjunction of :class:`PolyAtom` constraints (best effort).

    Returns ``(status, model_dict)``; models map names to Fractions
    (integral for ``int_vars``). ``deadline`` (absolute
    ``time.monotonic()``) truncates the search like an exhausted budget.

    Every ``unsat`` source (equality propagation, the linear check,
    ICP) runs before the model search, which can only answer ``sat`` or
    ``unknown``. With ``refute`` the call stops where that search would
    begin and answers ``unknown`` instead of any ``sat``: it is
    ``unsat`` exactly when the full check is, never ``sat``, and
    ``enum_budget`` and ``seed`` go unused. Conflict-minimization
    probes, which only ask whether a subset is refuted, run this way.
    """
    function_probe("nonlinear.check")

    def timed_out():
        return deadline is not None and time.monotonic() > deadline

    int_vars = frozenset(int_vars)
    variables = sorted({v for atom in atoms for v in poly_vars(atom.poly_dict)})

    # Cheap propagation of pinned variables first; fused formulas are
    # full of fusion-constraint equalities this resolves immediately.
    status, fixed, eliminations, reduced = _propagate_equalities(atoms, int_vars)
    if status == UNSAT:
        return UNSAT, None

    def finish(partial):
        model = dict(partial or {})
        model.update(fixed)
        for var in variables:
            model.setdefault(var, Fraction(0))
        # Reconstruct eliminated variables, innermost last.
        for var, expression in reversed(eliminations):
            model[var] = eval_poly(expression, model)
        for var in variables:
            if var in int_vars and Fraction(model[var]).denominator != 1:
                return None
        if all(a.evaluate(model) for a in atoms):
            return model
        return None

    if branch_probe(
        "nonlinear.all_linear", all(poly_is_linear(a.poly_dict) for a in reduced)
    ):
        status, partial = _check_linear_with_diseq(reduced, int_vars, deadline=deadline)
        if status != SAT:
            return status, None
        model = None if refute else finish(partial)
        if model is not None:
            return SAT, model
        return UNKNOWN, None

    # Strategy 1: ICP refutation (cheap and sound).
    hard = [a for a in reduced if a.op != "!="]
    reduced_vars = sorted({v for atom in reduced for v in poly_vars(atom.poly_dict)})
    if icp_unsat(hard, reduced_vars, int_vars, max_depth=8, max_nodes=120):
        line_probe("nonlinear.icp_unsat_hit")
        return UNSAT, None
    if refute:
        return UNKNOWN, None

    nl_vars = sorted(_nonlinear_vars(reduced))
    nl_vars.sort(
        key=lambda v: -sum(1 for a in reduced for m, _ in a.poly for x, _ in m if x == v)
    )

    # Strategy 2: DFS over small values for nonlinearly-occurring
    # variables, pruning on decided atoms; residual systems are linear.
    budget = [enum_budget]

    def dfs(index, values):
        if budget[0] <= 0 or timed_out():
            return None
        budget[0] -= 1
        if index == len(nl_vars):
            residual = [_substitute_values(a, values) for a in reduced]
            if not all(poly_is_linear(a.poly_dict) for a in residual):
                return None
            status, partial = _check_linear_with_diseq(
                residual, int_vars, deadline=deadline
            )
            if status == SAT:
                combined = dict(partial or {})
                combined.update(values)
                model = finish(combined)
                if model is not None:
                    line_probe("nonlinear.enum_sat")
                    return model
            return None
        var = nl_vars[index]
        candidates = _SMALL_VALUES
        if var in int_vars:
            candidates = [v for v in candidates if v.denominator == 1]
        for value in candidates:
            values[var] = value
            feasible = True
            for atom in reduced:
                partial = _substitute_values(atom, values)
                if not poly_vars(partial.poly_dict) and not partial.evaluate({}):
                    feasible = False
                    break
            if feasible:
                found = dfs(index + 1, values)
                if found is not None:
                    return found
            del values[var]
        return None

    found = dfs(0, {})
    if found is not None:
        return SAT, found

    # Strategy 3: random sampling over small rationals.
    rng = random.Random(seed)
    for _ in range(150):
        if timed_out():
            break
        model = dict(fixed)
        for var in reduced_vars:
            if var in int_vars:
                model[var] = Fraction(rng.randint(-6, 6))
            else:
                model[var] = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))
        for var in variables:
            model.setdefault(var, Fraction(0))
        if all(a.evaluate(model) for a in atoms):
            line_probe("nonlinear.sample_sat")
            return SAT, model

    return UNKNOWN, None


def _check_linear_with_diseq(atoms, int_vars, split_budget=64, deadline=None):
    """Linear conjunction including ``!=`` atoms, by case splitting."""
    function_probe("nonlinear.linear_with_diseq")
    plain = [a for a in atoms if a.op != "!="]
    diseqs = [a for a in atoms if a.op == "!="]
    for atom in plain:
        if not atom.poly_dict and atom.op in ("<=", "<", "="):
            # Constant atom: decide directly (e.g. 0 <= 0).
            if not atom.evaluate({}):
                return UNSAT, None
    base = [a.to_linear_atom() for a in plain if a.poly_dict]
    state = {"budget": split_budget, "unknown": False}

    def solve(extra, remaining_diseqs):
        if state["budget"] <= 0 or (
            deadline is not None and time.monotonic() > deadline
        ):
            state["unknown"] = True
            return UNKNOWN, None
        state["budget"] -= 1
        status, model = linarith.check_linear(base + extra, int_vars)
        if status != SAT:
            if status == UNKNOWN:
                state["unknown"] = True
            return status, None
        full = dict(model)
        for atom in remaining_diseqs:
            for var in poly_vars(atom.poly_dict):
                full.setdefault(var, Fraction(0))
        violated = None
        for i, atom in enumerate(remaining_diseqs):
            for var in poly_vars(atom.poly_dict):
                if var not in full:
                    full[var] = Fraction(0)
            if not atom.evaluate(full):
                violated = i
                break
        if violated is None:
            return SAT, full
        atom = remaining_diseqs[violated]
        rest = remaining_diseqs[:violated] + remaining_diseqs[violated + 1 :]
        lt = PolyAtom(atom.poly, "<").to_linear_atom()
        gt_poly = {m: -c for m, c in atom.poly}
        gt = PolyAtom.make(gt_poly, "<").to_linear_atom()
        for branch in (lt, gt):
            status, model = solve(extra + [branch], rest)
            if status == SAT:
                return SAT, model
        return (UNKNOWN, None) if state["unknown"] else (UNSAT, None)

    constant_diseq_conflict = any(
        not d.poly_dict for d in diseqs
    )  # 0 != 0 is false
    if constant_diseq_conflict:
        return UNSAT, None
    return solve([], diseqs)


declare_module_probes(__file__)
