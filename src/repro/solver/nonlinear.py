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
from dataclasses import dataclass
from functools import cached_property
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
from repro.solver.budget import WorkMeter
from repro.solver.linarith import LinearAtom, as_fraction, exact, qdiv

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# A monomial is a tuple of (var_name, exponent) pairs, sorted by name;
# the empty tuple is the constant monomial. A polynomial maps monomials
# to exact rational coefficients: an int where integral, else a
# Fraction (see linarith's ``exact`` and ``qdiv``). Models that leave
# this module hold Fractions only.

CONST_MONO = ()


def poly_from_term(term):
    """Convert an arithmetic term to a polynomial (monomial -> coeff).

    Raises :class:`ReproError` on non-polynomial operators (divisions
    must have been purified away by preprocessing).
    """
    if isinstance(term, Const):
        return {CONST_MONO: exact(term.value)}
    if isinstance(term, Var):
        return {((term.name, 1),): 1}
    if isinstance(term, App):
        op = term.op
        if op == "+":
            out = {}
            for arg in term.args:
                _poly_add(out, poly_from_term(arg), 1)
            return out
        if op == "-":
            if len(term.args) == 1:
                out = {}
                _poly_add(out, poly_from_term(term.args[0]), -1)
                return out
            out = dict(poly_from_term(term.args[0]))
            for arg in term.args[1:]:
                _poly_add(out, poly_from_term(arg), -1)
            return out
        if op == "*":
            out = {CONST_MONO: 1}
            for arg in term.args:
                out = _poly_mul(out, poly_from_term(arg))
            return out
        if op == "to_real":
            return poly_from_term(term.args[0])
    raise ReproError(f"not a polynomial term: {term}")


def _poly_add(target, other, factor):
    for mono, coeff in other.items():
        new = target.get(mono, 0) + coeff * factor
        if new == 0:
            target.pop(mono, None)
        else:
            target[mono] = new


def _poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            new = out.get(mono, 0) + c1 * c2
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
    total = 0
    for mono, coeff in poly.items():
        term = coeff
        for var, exp in mono:
            term *= model[var] ** exp
        total += term
    return total


@dataclass(frozen=True)
class PolyAtom:
    """A normalized polynomial constraint ``poly op 0``.

    ``op`` is one of ``"<="``, ``"<"``, ``"="``, ``"!="``. :meth:`make`
    stores every coefficient as an exact rational, an int where integral.
    """

    poly: tuple  # tuple[(monomial, int | Fraction)] sorted for hashability
    op: str

    @classmethod
    def make(cls, poly, op):
        items = tuple(sorted((mono, exact(coeff)) for mono, coeff in poly.items()))
        return cls(items, op)

    # Built once per atom and shared by every caller, which must not
    # mutate them.
    @cached_property
    def poly_dict(self):
        return dict(self.poly)

    @cached_property
    def poly_vars(self):
        return poly_vars(self.poly_dict)

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
        constant = 0
        for mono, coeff in self.poly:
            if mono == CONST_MONO:
                constant -= coeff
            else:
                if len(mono) != 1 or mono[0][1] != 1:
                    raise ReproError("not linear")
                ((var, _),) = mono
                coeffs[var] = coeffs.get(var, 0) + coeff
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
        _poly_add(diff, right, -1)
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


class Interval:
    """An interval over the rationals with optional open endpoints.

    Tracking endpoint openness lets ICP refute strict-inequality
    conflicts (e.g. ``v > 0 and w >= v and w = q*v and q < 0``), which
    show up constantly in fused arithmetic formulas.

    Endpoints are exact rationals, an int where integral and a Fraction
    otherwise, or None (unbounded). ICP builds hundreds of thousands of
    intervals per campaign, so this is a plain slotted class rather than
    a frozen dataclass (whose ``__init__`` goes through
    ``object.__setattr__`` per field). It compares and hashes by its
    four fields; treat it as immutable.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo=None, hi=None, lo_open=False, hi_open=False):
        self.lo = lo  # int, Fraction or None (-inf)
        self.hi = hi  # int, Fraction or None (+inf)
        self.lo_open = lo_open
        self.hi_open = hi_open

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi, self.lo_open, self.hi_open) == (
            other.lo,
            other.hi,
            other.lo_open,
            other.hi_open,
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_open, self.hi_open))

    def __repr__(self):
        return (
            f"Interval(lo={self.lo!r}, hi={self.hi!r}, "
            f"lo_open={self.lo_open!r}, hi_open={self.hi_open!r})"
        )

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
    if c > 0:
        return Interval(
            None if a.lo is None else a.lo * c,
            None if a.hi is None else a.hi * c,
            a.lo_open,
            a.hi_open,
        )
    if c < 0:
        return Interval(
            None if a.hi is None else a.hi * c,
            None if a.lo is None else a.lo * c,
            a.hi_open,
            a.lo_open,
        )
    return Interval(0, 0)


def _iv_mul(a, b):
    """The exact product of two nonempty intervals.

    Its bounds are the extreme endpoint products, with ``0 * inf = 0``.
    Each product is ranked -1 (-inf), 0 (finite) or 1 (+inf), and
    finite products are ordered by value. An extremum is open unless
    some endpoint pair attaining it is closed at both ends (infinite
    endpoints count as open); a zero extremum is closed exactly when
    either factor attains zero.
    """
    ends_a = ((a.lo, a.lo_open or a.lo is None, -1), (a.hi, a.hi_open or a.hi is None, 1))
    ends_b = ((b.lo, b.lo_open or b.lo is None, -1), (b.hi, b.hi_open or b.hi is None, 1))
    products = []
    for x, x_open, x_side in ends_a:
        for y, y_open, y_side in ends_b:
            if (x is not None and x == 0) or (y is not None and y == 0):
                products.append((0, 0, x_open or y_open))
            elif x is None or y is None:
                x_sign = x_side if x is None else (1 if x > 0 else -1)
                y_sign = y_side if y is None else (1 if y > 0 else -1)
                products.append((x_sign * y_sign, 0, True))
            else:
                products.append((0, x * y, x_open or y_open))
    lo = min(product[:2] for product in products)
    hi = max(product[:2] for product in products)
    lo_open = all(o for r, v, o in products if (r, v) == lo)
    hi_open = all(o for r, v, o in products if (r, v) == hi)
    if lo == (0, 0) and (a.attains_zero() or b.attains_zero()):
        lo_open = False
    if hi == (0, 0) and (a.attains_zero() or b.attains_zero()):
        hi_open = False
    return Interval(
        None if lo[0] else lo[1],
        None if hi[0] else hi[1],
        False if lo[0] else lo_open,
        False if hi[0] else hi_open,
    )


def _iv_pow(a, exp):
    result = a
    for _ in range(exp - 1):
        result = _iv_mul(result, a)
    # Even powers are nonnegative; tighten the lower bound.
    if exp % 2 == 0:
        lo = result.lo
        if lo is None or lo < 0:
            result = Interval(0, result.hi, not a.attains_zero(), result.hi_open)
    return result


def _eval_terms(terms, box):
    """Interval value of ``(monomial, coefficient)`` pairs over ``box``.

    Starts from the first term and product factor, so no work goes into
    adding ``[0, 0]``, multiplying by ``[1, 1]`` or scaling by 1.
    """
    total = None
    for mono, coeff in terms:
        term = None
        for var, exp in mono:
            iv = box.get(var, FULL)
            if exp != 1:
                iv = _iv_pow(iv, exp)
            term = iv if term is None else _iv_mul(term, iv)
        if term is None:
            term = Interval(coeff, coeff)
        elif coeff != 1:
            term = _iv_scale(term, coeff)
        total = term if total is None else _iv_add(total, term)
    return Interval(0, 0) if total is None else total


def eval_poly_interval(poly, box):
    return _eval_terms([(mono, exact(c)) for mono, c in poly.items()], box)


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
            upper = (qdiv(1, b.lo), b.lo_open)
        if b.hi is None:
            lower = (0, True)
        else:
            lower = (qdiv(1, b.hi), b.hi_open)
        inv = Interval(lower[0], upper[0], lower[1], upper[1])
    else:
        # Entirely negative.
        if b.hi == 0:
            lower = (None, False)
        else:
            lower = (qdiv(1, b.hi), b.hi_open)
        if b.lo is None:
            upper = (0, True)
        else:
            upper = (qdiv(1, b.lo), b.lo_open)
        inv = Interval(lower[0], upper[0], lower[1], upper[1])
    return _iv_mul(a, inv)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


def _compile_atoms(atoms):
    """The hard atoms of one ICP call, in the form ``_contract`` reads.

    Each atom becomes ``(op, terms, splits)``. ``terms`` are its
    ``(monomial, coefficient)`` pairs, with integral coefficients as
    ints. ``splits`` holds ``(var, a_terms, b_terms, scale)`` for every
    variable of degree 1, in sorted name order (never set order, which
    varies with ``PYTHONHASHSEED``), where ``poly = A*var + B`` and A
    and B are free of ``var``. When A is a nonzero constant, ``scale``
    is ``-1/A``, so the bound on ``var`` is ``B * scale`` with no
    interval division; otherwise it is None. ``!=`` atoms prune
    nothing and are left out.
    """
    compiled = []
    for atom in atoms:
        if atom.op == "!=":
            continue
        terms = tuple((mono, exact(coeff)) for mono, coeff in atom.poly)
        degree = {}
        for mono, _ in terms:
            for var, exp in mono:
                degree[var] = max(degree.get(var, 0), exp)
        splits = []
        for var in sorted(v for v, d in degree.items() if d == 1):
            a_terms = []
            b_terms = []
            for mono, coeff in terms:
                rest = tuple(pair for pair in mono if pair[0] != var)
                if len(rest) == len(mono):
                    b_terms.append((mono, coeff))
                else:
                    a_terms.append((rest, coeff))
            scale = None
            if len(a_terms) == 1 and a_terms[0][0] == CONST_MONO and a_terms[0][1]:
                scale = qdiv(-1, a_terms[0][1])
            splits.append((var, tuple(a_terms), tuple(b_terms), scale))
        compiled.append((atom.op, terms, tuple(splits)))
    return compiled


def _contract(atoms, box, int_vars):
    """One round of contraction over compiled atoms; (changed, feasible)."""
    changed = False
    for op, terms, splits in atoms:
        value = _eval_terms(terms, box)
        if op == "<=":
            infeasible = value.lo is not None and (
                value.lo > 0 or (value.lo == 0 and value.lo_open)
            )
            if infeasible:
                line_probe("icp.prune.le")
                return changed, False
        elif op == "<":
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
        # Tighten each variable that is linear in this atom.
        for var, a_terms, b_terms, scale in splits:
            # A*var + B op 0  ->  var op' -B/A  (direction by sign of A).
            if scale is None:
                a_iv = _eval_terms(a_terms, box)
                if a_iv.contains_zero():
                    continue
                a_positive = a_iv.lo is not None and (
                    a_iv.lo > 0 or (a_iv.lo == 0 and a_iv.lo_open)
                )
                bound_iv = _iv_div(_iv_neg(_eval_terms(b_terms, box)), a_iv)
            else:
                a_positive = scale < 0
                bound_iv = _iv_scale(_eval_terms(b_terms, box), scale)
            current = box.get(var, FULL)
            strict = op == "<"
            if op == "=":
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
    atoms = _compile_atoms(atoms)
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
        mid = qdiv(iv.lo + iv.hi, 2)
        left = dict(box)
        left[best] = Interval(iv.lo, mid, iv.lo_open, False)
        right = dict(box)
        right[best] = Interval(mid, iv.hi, False, iv.hi_open)
        return explore(left, depth + 1) and explore(right, depth + 1)

    return explore({v: FULL for v in variables}, 0)


# ---------------------------------------------------------------------------
# SAT search
# ---------------------------------------------------------------------------

_SMALL_INTS = [0, 1, -1, 2, -2, 3, -3]
_SMALL_VALUES = _SMALL_INTS + [Fraction(1, 2), Fraction(-1, 2)]


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
        new = poly.get(mono2, 0) + new_coeff
        if new == 0:
            poly.pop(mono2, None)
        else:
            poly[mono2] = new
    return PolyAtom.make(poly, atom.op)


def _poly_pow(poly, exp):
    out = {CONST_MONO: 1}
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
        _poly_add(out, term, 1)
    return out


def _mentions(atom, var):
    """Whether ``var`` occurs in ``atom``: substituting a value or an
    expression for a variable that does not occur rebuilds an equal atom."""
    return any(v == var for mono, _ in atom.poly for v, _ in mono)


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
            if not atom.poly_vars:
                if not atom.evaluate({}):
                    line_probe("nonlinear.propagate_conflict")
                    return UNSAT, fixed, eliminations, []
                continue
            remaining.append(atom)
        work = remaining

        # Univariate pins first (exact, and respects integrality).
        for atom in work:
            poly = atom.poly_dict
            variables = atom.poly_vars
            if atom.op == "=" and len(variables) == 1 and poly_is_linear(poly):
                (var,) = variables
                slope = poly.get(((var, 1),), 0)
                offset = poly.get(CONST_MONO, 0)
                value = qdiv(-offset, slope)
                if var in int_vars and value.denominator != 1:
                    return UNSAT, fixed, eliminations, []
                fixed[var] = value
                work = [
                    _substitute_values(a, {var: value}) if _mentions(a, var) else a
                    for a in work
                    if a is not atom
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
            candidates = sorted(atom.poly_vars, key=lambda v: (v in int_vars, v))
            var = None
            for candidate in candidates:
                if candidate not in int_vars:
                    var = candidate
                    break
            if var is None:
                # All integer: only eliminate with a unit coefficient so
                # integrality is preserved by the substitution.
                for candidate in candidates:
                    if abs(poly.get(((candidate, 1),), 0)) == 1:
                        var = candidate
                        break
            if var is None:
                continue
            slope = poly[((var, 1),)]
            expression = {}
            for mono, coeff in poly.items():
                if mono == ((var, 1),):
                    continue
                expression[mono] = qdiv(-coeff, slope)
            eliminations.append((var, expression))
            work = [
                PolyAtom.make(_poly_substitute(a.poly_dict, var, expression), a.op)
                if _mentions(a, var)
                else a
                for a in work
                if a is not atom
            ]
            progress = True
            break
    return SAT, fixed, eliminations, work


def check_nonlinear(atoms, int_vars=(), seed=0, meter=None, refute=False):
    """Decide a conjunction of :class:`PolyAtom` constraints (best effort).

    Returns ``(status, model_dict)``; models map names to Fractions
    (integral for ``int_vars``), although the search inside runs on ints
    wherever a value is integral. ``meter``'s deadline (default limits
    if ``None``) truncates the search like its exhausted limits.

    Every ``unsat`` source (equality propagation, the linear check,
    ICP) runs before the model search, which can only answer ``sat`` or
    ``unknown``. With ``refute`` the call stops where that search would
    begin and answers ``unknown`` instead of any ``sat``: it is
    ``unsat`` exactly when the full check is, never ``sat``, and the
    enumeration limit and ``seed`` go unused. Conflict-minimization
    probes, which only ask whether a subset is refuted, run this way.
    """
    function_probe("nonlinear.check")
    meter = meter or WorkMeter()
    meter.reset("enumeration")
    int_vars = frozenset(int_vars)
    variables = sorted({v for atom in atoms for v in atom.poly_vars})

    # Cheap propagation of pinned variables first; fused formulas are
    # full of fusion-constraint equalities this resolves immediately.
    status, fixed, eliminations, reduced = _propagate_equalities(atoms, int_vars)
    if status == UNSAT:
        return UNSAT, None

    def finish(partial):
        model = dict(partial or {})
        model.update(fixed)
        for var in variables:
            model.setdefault(var, 0)
        # Reconstruct eliminated variables, innermost last.
        for var, expression in reversed(eliminations):
            model[var] = eval_poly(expression, model)
        for var in variables:
            if var in int_vars and model[var].denominator != 1:
                return None
        if all(a.evaluate(model) for a in atoms):
            return _fraction_model(model)
        return None

    if branch_probe(
        "nonlinear.all_linear", all(poly_is_linear(a.poly_dict) for a in reduced)
    ):
        status, partial = _check_linear_with_diseq(reduced, int_vars, meter)
        if status != SAT:
            return status, None
        model = None if refute else finish(partial)
        if model is not None:
            return SAT, model
        return UNKNOWN, None

    # Strategy 1: ICP refutation (cheap and sound).
    hard = [a for a in reduced if a.op != "!="]
    reduced_vars = sorted({v for atom in reduced for v in atom.poly_vars})
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
    def dfs(index, values):
        if meter.charge("enumeration"):
            return None
        if index == len(nl_vars):
            residual = [_substitute_values(a, values) for a in reduced]
            if not all(poly_is_linear(a.poly_dict) for a in residual):
                return None
            status, partial = _check_linear_with_diseq(residual, int_vars, meter)
            if status == SAT:
                combined = dict(partial or {})
                combined.update(values)
                model = finish(combined)
                if model is not None:
                    line_probe("nonlinear.enum_sat")
                    return model
            return None
        var = nl_vars[index]
        candidates = _SMALL_INTS if var in int_vars else _SMALL_VALUES
        # An atom without ``var`` substitutes as it did one level up,
        # where it was feasible (and ``reduced`` holds no constant atom).
        mentioning = [atom for atom in reduced if _mentions(atom, var)]
        for value in candidates:
            values[var] = value
            feasible = True
            for atom in mentioning:
                partial = _substitute_values(atom, values)
                if not partial.poly_vars and not partial.evaluate({}):
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
        if meter.expired():
            break
        model = dict(fixed)
        for var in reduced_vars:
            if var in int_vars:
                model[var] = rng.randint(-6, 6)
            else:
                model[var] = qdiv(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))
        for var in variables:
            model.setdefault(var, 0)
        if all(a.evaluate(model) for a in atoms):
            line_probe("nonlinear.sample_sat")
            return SAT, _fraction_model(model)

    return UNKNOWN, None


def _fraction_model(model):
    """``model`` with every value a Fraction, as callers expect."""
    return {var: as_fraction(value) for var, value in model.items()}


def _check_linear_with_diseq(atoms, int_vars, meter):
    """Linear conjunction including ``!=`` atoms, by case splitting, at
    most ``meter``'s split limit of linear checks."""
    function_probe("nonlinear.linear_with_diseq")
    plain = [a for a in atoms if a.op != "!="]
    diseqs = [a for a in atoms if a.op == "!="]
    for atom in plain:
        if not atom.poly_dict and atom.op in ("<=", "<", "="):
            # Constant atom: decide directly (e.g. 0 <= 0).
            if not atom.evaluate({}):
                return UNSAT, None
    base = [a.to_linear_atom() for a in plain if a.poly_dict]
    meter.reset("splits")
    state = {"unknown": False}

    def solve(extra, remaining_diseqs):
        if meter.charge("splits"):
            state["unknown"] = True
            return UNKNOWN, None
        status, model = linarith.check_linear(base + extra, int_vars)
        if status != SAT:
            if status == UNKNOWN:
                state["unknown"] = True
            return status, None
        full = dict(model)
        for atom in remaining_diseqs:
            for var in atom.poly_vars:
                full.setdefault(var, 0)
        violated = None
        for i, atom in enumerate(remaining_diseqs):
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
