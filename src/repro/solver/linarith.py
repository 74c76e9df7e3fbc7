"""Linear arithmetic: general simplex with delta-rationals.

Decides conjunctions of linear constraints over the rationals
(Dutertre & de Moura's simplex for DPLL(T)), with strict inequalities
represented by delta-rationals ``c + k*delta``. Integer variables are
handled by branch & bound on top of the rational relaxation.

Entry point: :func:`check_linear`.

Arithmetic is int-first: every integral rational in the tableau, the
bounds and the atoms is a Python ``int``, and a :class:`~fractions.Fraction`
appears only where a value is not an integer. Most fused constraints
have integral coefficients, and int arithmetic skips the gcd
normalization every Fraction operation pays. :func:`exact` and
:func:`qdiv` keep values in this form; models leave as Fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction


def remove_sorted(items, value):
    """Remove ``value`` from a sorted list in O(log n + shift)."""
    index = bisect_left(items, value)
    if index < len(items) and items[index] == value:
        del items[index]

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)


def exact(x):
    """An exact rational with an integral value as an ``int``."""
    return x.numerator if x.denominator == 1 else x


def qdiv(a, b):
    """Exact ``a / b``: an int when the quotient is integral, else a
    Fraction, and never a float (int ``/`` int is a float)."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        return Fraction(a, b) if remainder else quotient
    return exact(a / b)


def as_fraction(x):
    """``x`` as a Fraction: the type of every value a model hands out."""
    return x if type(x) is Fraction else Fraction(x)


class DeltaRational:
    """A rational plus an infinitesimal: ``c + k * delta`` with delta > 0.

    ``c`` and ``k`` are exact rationals, ints where integral. Most values
    carry no infinitesimal, and ``k`` is then 0, which lets every
    operation skip the arithmetic on ``k`` after a C-level truth test.
    """

    __slots__ = ("c", "k")

    def __init__(self, c, k=0):
        self.c = c
        self.k = k

    def __add__(self, other):
        if self.k or other.k:
            return DeltaRational(self.c + other.c, self.k + other.k)
        return DeltaRational(self.c + other.c)

    def __sub__(self, other):
        if self.k or other.k:
            return DeltaRational(self.c - other.c, self.k - other.k)
        return DeltaRational(self.c - other.c)

    def scale(self, factor):
        if self.k:
            return DeltaRational(self.c * factor, self.k * factor)
        return DeltaRational(self.c * factor)

    # Lexicographic on (c, k), as tuples compare.
    def __lt__(self, other):
        if (self.k or other.k) and self.c == other.c:
            return self.k < other.k
        return self.c < other.c

    def __le__(self, other):
        if (self.k or other.k) and self.c == other.c:
            return self.k <= other.k
        return self.c <= other.c

    def __eq__(self, other):
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return (self.c, self.k) == (other.c, other.k)

    def __hash__(self):
        return hash((self.c, self.k))

    def concretize(self, delta):
        """The exact rational value once ``delta`` is fixed."""
        if self.k:
            return self.c + self.k * delta
        return self.c

    def __repr__(self):
        if self.k == 0:
            return f"{self.c}"
        return f"{self.c}{'+' if self.k > 0 else ''}{self.k}d"


@dataclass(frozen=True)
class LinearAtom:
    """A normalized linear constraint ``sum(coeffs[v] * v) op constant``.

    ``op`` is one of ``"<="``, ``"<"``, ``"="``. :meth:`make` stores
    every coefficient and the constant as an exact rational, an int
    where integral.
    """

    coeffs: tuple  # tuple[(var_name, int | Fraction), ...] sorted by name
    op: str
    constant: int | Fraction

    @classmethod
    def make(cls, coeffs, op, constant):
        items = tuple(sorted((v, exact(c)) for v, c in coeffs.items() if c != 0))
        return cls(items, op, exact(constant))

    def evaluate(self, model):
        """Check the constraint under exact rational values."""
        total = sum(c * model[v] for v, c in self.coeffs)
        if self.op == "<=":
            return total <= self.constant
        if self.op == "<":
            return total < self.constant
        return total == self.constant


SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Simplex:
    """General simplex over delta-rationals with incremental bounds."""

    def __init__(self):
        self.rows = {}  # basic var -> {nonbasic var: coeff}
        self.is_basic = set()
        self.lower = {}  # var -> DeltaRational
        self.upper = {}
        self.assign = {}  # var -> DeltaRational
        self.all_vars = []
        self._slack_index = {}  # normalized form -> slack name
        self._slack_count = 0
        # Column index: nonbasic var -> set of basic vars whose row
        # mentions it. Lets updates and pivots touch only the rows that
        # actually contain the changed variable instead of all of them.
        self._cols = {}
        # Basic vars kept sorted so Bland's rule needn't re-sort per pivot.
        self._basic_sorted = []

    # -- setup ------------------------------------------------------------

    def _ensure_var(self, name):
        if name not in self.assign:
            self.assign[name] = DeltaRational(0)
            self.all_vars.append(name)

    def _slack_for(self, form):
        """The slack variable equal to the linear form (a coeff tuple)."""
        if form in self._slack_index:
            return self._slack_index[form]
        self._slack_count += 1
        name = f".s{self._slack_count}"
        self._slack_index[form] = name
        for var, _ in form:
            self._ensure_var(var)
        self._ensure_var(name)
        # Define: name = sum(coeff * var). Express over current nonbasics.
        row = {}
        for var, coeff in form:
            if var in self.is_basic:
                for v2, c2 in self.rows[var].items():
                    row[v2] = row.get(v2, 0) + coeff * c2
            else:
                row[var] = row.get(var, 0) + coeff
        row = {v: c for v, c in row.items() if c != 0}
        self.rows[name] = row
        self.is_basic.add(name)
        insort(self._basic_sorted, name)
        for var in row:
            self._cols.setdefault(var, set()).add(name)
        self.assign[name] = self._row_value(row)
        return name

    def _row_value(self, row):
        total = DeltaRational(0)
        for var, coeff in row.items():
            total = total + self.assign[var].scale(coeff)
        return total

    def assert_atom(self, atom):
        """Assert a :class:`LinearAtom`; returns False on immediate conflict."""
        function_probe("simplex.assert_atom")
        if not atom.coeffs:
            bound = DeltaRational(atom.constant)
            value = DeltaRational(0)
            if atom.op == "<=":
                return value <= bound
            if atom.op == "<":
                return value < bound
            return value == bound
        slack = self._slack_for(atom.coeffs)
        if atom.op == "<=":
            return self._assert_upper(slack, DeltaRational(atom.constant, 0))
        if atom.op == "<":
            return self._assert_upper(slack, DeltaRational(atom.constant, -1))
        ok = self._assert_upper(slack, DeltaRational(atom.constant, 0))
        if not ok:
            return False
        return self._assert_lower(slack, DeltaRational(atom.constant, 0))

    def _assert_upper(self, var, bound):
        current = self.upper.get(var)
        if current is not None and current <= bound:
            return True
        lower = self.lower.get(var)
        if lower is not None and bound < lower:
            line_probe("simplex.bound_conflict")
            return False
        self.upper[var] = bound
        if var not in self.is_basic and bound < self.assign[var]:
            self._update(var, bound)
        return True

    def _assert_lower(self, var, bound):
        current = self.lower.get(var)
        if current is not None and bound <= current:
            return True
        upper = self.upper.get(var)
        if upper is not None and upper < bound:
            line_probe("simplex.bound_conflict")
            return False
        self.lower[var] = bound
        if var not in self.is_basic and self.assign[var] < bound:
            self._update(var, bound)
        return True

    # -- backtracking -----------------------------------------------------

    def push(self):
        """Snapshot the bound state (for branch & bound backtracking).

        Only bounds need saving: the tableau stays a valid basis under
        any bounds, and the assignment always satisfies the row
        equations. Restoring *weaker* bounds can never put a nonbasic
        variable out of range, so :meth:`pop` is just a dict restore.
        """
        return (dict(self.lower), dict(self.upper))

    def pop(self, saved):
        """Restore bounds saved by :meth:`push`."""
        self.lower = dict(saved[0])
        self.upper = dict(saved[1])

    # -- pivoting ---------------------------------------------------------

    def _update(self, nonbasic, value):
        delta = value - self.assign[nonbasic]
        self.assign[nonbasic] = value
        assign = self.assign
        rows = self.rows
        for basic in self._cols.get(nonbasic, ()):
            coeff = rows[basic][nonbasic]
            assign[basic] = assign[basic] + delta.scale(coeff)

    def _pivot(self, basic, nonbasic):
        """Swap roles of ``basic`` and ``nonbasic``."""
        cols = self._cols
        row = self.rows.pop(basic)
        self.is_basic.discard(basic)
        remove_sorted(self._basic_sorted, basic)
        for var in row:
            cols[var].discard(basic)
        coeff = row.pop(nonbasic)
        # nonbasic = (basic - sum(other)) / coeff
        new_row = {basic: qdiv(1, coeff)}
        for var, c in row.items():
            new_row[var] = qdiv(-c, coeff)
        self.rows[nonbasic] = new_row
        self.is_basic.add(nonbasic)
        insort(self._basic_sorted, nonbasic)
        for var in new_row:
            cols.setdefault(var, set()).add(nonbasic)
        # Substitute into the rows that mention the entering variable.
        holders = cols.get(nonbasic)
        if holders:
            for other in sorted(holders - {nonbasic}):
                other_row = self.rows[other]
                c = other_row.pop(nonbasic)
                holders.discard(other)
                for var, c2 in new_row.items():
                    total = other_row.get(var, 0) + c * c2
                    if total == 0:
                        if var in other_row:
                            del other_row[var]
                            cols[var].discard(other)
                    else:
                        if var not in other_row:
                            cols.setdefault(var, set()).add(other)
                        other_row[var] = total

    def _pivot_and_update(self, basic, nonbasic, new_value):
        coeff = self.rows[basic][nonbasic]
        delta = (new_value - self.assign[basic]).scale(qdiv(1, coeff))
        assign = self.assign
        assign[basic] = new_value
        assign[nonbasic] = assign[nonbasic] + delta
        # Incrementally adjust the other rows that mention ``nonbasic``:
        # their value shifts by (row coeff) * delta, exactly what a full
        # re-evaluation would compute.
        rows = self.rows
        for other in self._cols.get(nonbasic, ()):
            if other != basic:
                assign[other] = assign[other] + delta.scale(rows[other][nonbasic])
        self._pivot(basic, nonbasic)

    def check(self, max_pivots=20000):
        """Run simplex; SAT/UNSAT/UNKNOWN (pivot budget exhausted)."""
        function_probe("simplex.check")
        pivots = 0
        while True:
            violated = None
            # Bland's rule: smallest variable name first, for termination.
            for var in self._basic_sorted:
                value = self.assign[var]
                lower, upper = self.lower.get(var), self.upper.get(var)
                if lower is not None and value < lower:
                    violated = (var, lower, True)
                    break
                if upper is not None and upper < value:
                    violated = (var, upper, False)
                    break
            if violated is None:
                line_probe("simplex.check.sat")
                return SAT
            pivots += 1
            if pivots > max_pivots:
                line_probe("simplex.check.budget")
                return UNKNOWN
            basic, bound, need_increase = violated
            row = self.rows[basic]
            candidate = None
            for nonbasic in sorted(row):
                coeff = row[nonbasic]
                value = self.assign[nonbasic]
                if need_increase:
                    can = (coeff > 0 and (self.upper.get(nonbasic) is None or value < self.upper[nonbasic])) or (
                        coeff < 0 and (self.lower.get(nonbasic) is None or self.lower[nonbasic] < value)
                    )
                else:
                    can = (coeff > 0 and (self.lower.get(nonbasic) is None or self.lower[nonbasic] < value)) or (
                        coeff < 0 and (self.upper.get(nonbasic) is None or value < self.upper[nonbasic])
                    )
                if can:
                    candidate = nonbasic
                    break
            if branch_probe("simplex.check.no_pivot", candidate is None):
                return UNSAT
            self._pivot_and_update(basic, candidate, bound)

    # -- model extraction ---------------------------------------------------

    def model(self, problem_vars):
        """Fraction values for ``problem_vars`` after a SAT check."""
        delta = self._choose_delta()
        return {
            v: as_fraction(self.assign[v].concretize(delta))
            for v in problem_vars
            if v in self.assign
        }

    def _choose_delta(self):
        """A concrete positive delta small enough to respect all bounds.

        Only a bound whose gap to the value has a negative infinitesimal
        part and a positive rational part limits delta, so pairs where
        neither side carries an infinitesimal are skipped unexamined.
        """
        limit = 1
        assign = self.assign
        for bounds, is_lower in ((self.lower, True), (self.upper, False)):
            for var, bound in bounds.items():
                value = assign[var]
                if not (value.k or bound.k):
                    continue
                # Need gap.c + gap.k * delta >= 0 for the gap to the bound.
                if is_lower:
                    gap_c, gap_k = value.c - bound.c, value.k - bound.k
                else:
                    gap_c, gap_k = bound.c - value.c, bound.k - value.k
                if gap_k < 0 and gap_c > 0:
                    limit = min(limit, qdiv(-gap_c, gap_k))
        return qdiv(limit, 2)


def _tighten_for_ints(atom, int_vars):
    """Integer bound tightening of a single atom.

    An all-integer atom is first divided by the gcd ``g`` of its
    coefficients. Then ``lhs < c`` becomes ``lhs <= ceil(c) - 1`` and
    ``lhs <= c`` becomes ``lhs <= floor(c)``, which removes the
    fractional vertices that branch & bound would otherwise chase one
    unit at a time. An ``lhs = c`` with ``c`` not integral after the
    division has no integer solution, and becomes ``0 < 0``.
    """
    if not atom.coeffs:
        return atom
    if any(v not in int_vars or c.denominator != 1 for v, c in atom.coeffs):
        return atom
    g = math.gcd(*(c.numerator for _, c in atom.coeffs))
    c = qdiv(atom.constant, g)
    if atom.op == "=":
        return atom if c.denominator == 1 else LinearAtom((), "<", 0)
    coeffs = tuple((v, k // g) for v, k in atom.coeffs)
    if atom.op == "<":
        ceil = -((-c.numerator) // c.denominator)
        return LinearAtom(coeffs, "<=", ceil - 1)
    return LinearAtom(coeffs, "<=", c.numerator // c.denominator)


def check_linear(atoms, int_vars=(), max_branch_nodes=400):
    """Decide a conjunction of :class:`LinearAtom` constraints.

    ``int_vars`` names variables that must take integer values (branch &
    bound over the rational relaxation).

    Returns ``(status, model_dict)`` where status is ``"sat"``,
    ``"unsat"`` or ``"unknown"`` and the model maps variable names to
    :class:`~fractions.Fraction` values (integral for ``int_vars``),
    whatever mix of ints and Fractions the atoms hold.
    """
    function_probe("linarith.check_linear")
    problem_vars = sorted({v for atom in atoms for v, _ in atom.coeffs})
    int_vars = frozenset(int_vars)
    if int_vars:
        atoms = [_tighten_for_ints(a, int_vars) for a in atoms]
    budget = [max_branch_nodes]

    # One tableau for the whole search: the initial constraints are
    # asserted once, and branch & bound explores integer splits by
    # pushing/popping *bounds* on the branch variable — a branch
    # constraint is always a single-variable bound, so no new slack or
    # re-assertion work is ever needed, and each node's simplex call is
    # an incremental repair of the previous solution rather than a
    # solve from scratch.
    simplex = Simplex()
    for var in problem_vars:
        simplex._ensure_var(var)
    for atom in atoms:
        if not simplex.assert_atom(atom):
            return UNSAT, None

    int_order = [v for v in problem_vars if v in int_vars]

    def solve():
        if budget[0] <= 0:
            return UNKNOWN, None
        budget[0] -= 1
        status = simplex.check()
        if status != SAT:
            return status, None
        # The first integer variable whose model value is fractional,
        # found without building the model: a value with no
        # infinitesimal part is its rational part, and delta (which
        # scans every bound) is chosen only for one that has one.
        fractional = None
        delta = None
        for var in int_order:
            assigned = simplex.assign[var]
            if assigned.k:
                if delta is None:
                    delta = simplex._choose_delta()
                value = assigned.concretize(delta)
            else:
                value = assigned.c
            if value.denominator != 1:
                fractional = var
                break
        if branch_probe("linarith.integral", fractional is None):
            return SAT, simplex.model(problem_vars)
        floor = value.numerator // value.denominator
        line_probe("linarith.branch")
        saw_unknown = False
        for is_low in (True, False):
            saved = simplex.push()
            if is_low:
                feasible = simplex._assert_upper(fractional, DeltaRational(floor))
            else:
                feasible = simplex._assert_lower(fractional, DeltaRational(floor + 1))
            if feasible:
                status, model = solve()
                if status == SAT:
                    return SAT, model
                if status == UNKNOWN:
                    saw_unknown = True
            simplex.pop(saved)
        return (UNKNOWN, None) if saw_unknown else (UNSAT, None)

    return solve()


declare_module_probes(__file__)
