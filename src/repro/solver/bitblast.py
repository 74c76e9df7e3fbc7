"""Eager bit-blasting of QF_BV theory literals onto the SAT core.

The DPLL(T) loop hands this backend a conjunction of bitvector theory
literals (equalities, ``bvult``/``bvule`` atoms and their negations).
Each bitvector term is compiled to a vector of SAT literals (LSB
first) over a fresh :class:`~repro.solver.sat.SatSolver` — ripple-carry
adders, shift-and-add multipliers, barrel shifters, comparators — and
each theory literal to a single literal asserted as a unit clause.
The same CDCL core that decides the boolean abstraction then decides
the blasted formula, and the incremental session's outcome cache and
theory memo serve QF_BV checks unchanged.

Gates fold and are shared. A gate whose input is the constant literal,
or whose two inputs are equal or complementary, returns an existing
literal and adds nothing; every other gate is looked up in a table of
normalized keys first (``and`` sorts its inputs, ``xor`` keys on their
variables and carries their sign parity, ``or`` is ``-and(-a, -b)``),
so a repeated gate costs no variable and no clause. Every gate that
reaches the SAT core has distinct input variables and goes through
:meth:`~repro.solver.sat.SatSolver.add_gate_clauses`.

Everything here is deterministic: variable numbering is still a
function of the deterministic traversal order of the ordered atoms, and
the conflict budget is a pure function of the caller's work-meter
limit, so campaign journals stay byte-identical across fleet shapes.
"""

from __future__ import annotations

from repro.coverage.probes import declare_module_probes, function_probe, line_probe
from repro.semantics.model import Model
from repro.smtlib.ast import App, Const, Var
from repro.smtlib.bitvec import BV_OPS, parse_extract_indices
from repro.smtlib.sorts import BOOL, bitvec_width, is_bitvec
from repro.solver.sat import SatSolver

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# Mirrors solver.dpllt's unknown-kind tags (imported there; duplicated
# here to avoid a circular import).
BUDGET_UNKNOWN = "budget"
GENUINE_UNKNOWN = "genuine"

# Conflicts granted per point of the caller's enumeration limit. At the
# deterministic campaign limit (120) this yields 6000 conflicts —
# far beyond what 8-bit seed formulas need, while still bounding
# adversarial mutants deterministically.
_CONFLICTS_PER_BUDGET = 50


class OutOfFragment(Exception):
    """A term outside the pure-QF_BV fragment reached the blaster."""


def involves_bv(atoms):
    """True if any atom mentions a bitvector subterm or operator."""
    for atom in atoms:
        for node in atom.walk():
            if is_bitvec(node.sort):
                return True
            if isinstance(node, App) and node.op in BV_OPS:
                return True
    return False


class BitBlaster:
    """Compiles bitvector terms and predicates to SAT literals."""

    def __init__(self, sat):
        self.sat = sat
        self.var_bits = {}  # var name -> bit literal vector (LSB first)
        self.bool_vars = {}  # Bool var name -> literal
        self._term_bits = {}  # id(term) -> bit vector
        self._pred_lits = {}  # id(term) -> literal
        self._gates = {}  # normalized gate key -> output literal
        self._true = sat.new_var()  # the constant literal every gate folds on
        sat.add_clause([self._true])

    # -- gate primitives -------------------------------------------------

    def true_lit(self):
        return self._true

    def false_lit(self):
        return -self._true

    def _and(self, a, b):
        true = self._true
        if a == true or a == b:
            return b
        if b == true:
            return a
        if a == -true or b == -true or a == -b:
            return -true
        if a > b:
            a, b = b, a
        key = ("and", a, b)
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.sat.new_var()
            self.sat.add_gate_clauses(([-a, -b, out], [a, -out], [b, -out]))
        return out

    def _or(self, a, b):
        return -self._and(-a, -b)

    def _xor(self, a, b):
        true = self._true
        if abs(a) == true:
            return -b if a == true else b
        if abs(b) == true:
            return -a if b == true else a
        if a == b:
            return -true
        if a == -b:
            return true
        # xor(-a, b) == -xor(a, b): key on the variables, carry the parity.
        negated = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.sat.new_var()
            self.sat.add_gate_clauses(
                ([-a, -b, -out], [a, b, -out], [a, -b, out], [-a, b, out])
            )
        return -out if negated else out

    def _mux(self, sel, then_lit, else_lit):
        """A literal equal to ``then_lit`` when ``sel`` else ``else_lit``."""
        true = self._true
        if abs(sel) == true:
            return then_lit if sel == true else else_lit
        if then_lit == else_lit:
            return then_lit
        if then_lit == -else_lit:
            return -self._xor(sel, then_lit)
        # A data input that is constant or shares ``sel``'s variable
        # folds one of these two forms to a single and/or gate.
        if then_lit in (true, sel) or else_lit in (true, -sel):
            return self._and(self._or(sel, else_lit), self._or(-sel, then_lit))
        if then_lit in (-true, -sel) or else_lit in (-true, sel):
            return self._or(self._and(sel, then_lit), self._and(-sel, else_lit))
        key = ("mux", sel, then_lit, else_lit)
        out = self._gates.get(key)
        if out is None:
            out = self._gates[key] = self.sat.new_var()
            self.sat.add_gate_clauses(
                (
                    [-sel, -then_lit, out],
                    [-sel, then_lit, -out],
                    [sel, -else_lit, out],
                    [sel, else_lit, -out],
                )
            )
        return out

    def _full_adder(self, a, b, cin):
        a_xor_b = self._xor(a, b)
        s = self._xor(a_xor_b, cin)
        carry = self._or(self._and(a, b), self._and(cin, a_xor_b))
        return s, carry

    # -- word-level circuits ---------------------------------------------

    def _add(self, xs, ys, carry_in=None):
        carry = self.false_lit() if carry_in is None else carry_in
        out = []
        for a, b in zip(xs, ys):
            s, carry = self._full_adder(a, b, carry)
            out.append(s)
        return out

    def _negate(self, xs):
        return self._add([-x for x in xs], self._const_bits(1, len(xs)),)

    def _const_bits(self, value, width):
        true = self.true_lit()
        return [true if (value >> i) & 1 else -true for i in range(width)]

    def _mul(self, xs, ys):
        width = len(xs)
        acc = self._const_bits(0, width)
        for i, yi in enumerate(ys):
            # Shift-and-add: partial product (x << i) masked by y's bit i.
            addend = [self.false_lit()] * i + [
                self._and(x, yi) for x in xs[: width - i]
            ]
            acc = self._add(acc, addend)
        return acc

    def _shift(self, xs, ys, left):
        """Barrel shifter; amounts at or beyond the width yield zero."""
        width = len(xs)
        out = list(xs)
        for k, yk in enumerate(ys):
            amount = 1 << k
            if amount >= width:
                # Any set high bit of the amount zeroes the result.
                out = [self._mux(yk, self.false_lit(), bit) for bit in out]
                continue
            if left:
                shifted = [self.false_lit()] * amount + out[: width - amount]
            else:
                shifted = out[amount:] + [self.false_lit()] * amount
            out = [
                self._mux(yk, s_bit, o_bit)
                for s_bit, o_bit in zip(shifted, out)
            ]
        return out

    def _ult(self, xs, ys):
        """Unsigned less-than over equal-width bit vectors."""
        lt = self.false_lit()
        for a, b in zip(xs, ys):  # LSB to MSB; the MSB comparison wins
            eq = -self._xor(a, b)
            lt = self._or(self._and(-a, b), self._and(eq, lt))
        return lt

    def _equal(self, xs, ys):
        out = self.true_lit()
        for a, b in zip(xs, ys):
            out = self._and(out, -self._xor(a, b))
        return out

    # -- term compilation ------------------------------------------------

    def blast_term(self, term):
        """The bit vector (LSB first) of a bitvector-sorted term."""
        nid = id(term)
        cached = self._term_bits.get(nid)
        if cached is not None:
            return cached
        bits = self._blast_term_uncached(term)
        self._term_bits[nid] = bits
        return bits

    def _blast_term_uncached(self, term):
        if isinstance(term, Const):
            return self._const_bits(term.value, bitvec_width(term.sort))
        if isinstance(term, Var):
            bits = self.var_bits.get(term.name)
            if bits is None:
                width = bitvec_width(term.sort)
                bits = [self.sat.new_var() for _ in range(width)]
                self.var_bits[term.name] = bits
            return bits
        if not isinstance(term, App):
            raise OutOfFragment(f"cannot bit-blast term {term!r}")
        op = term.op
        if op == "ite":
            sel = self.blast_pred(term.args[0])
            then_bits = self.blast_term(term.args[1])
            else_bits = self.blast_term(term.args[2])
            return [
                self._mux(sel, t, e) for t, e in zip(then_bits, else_bits)
            ]
        if op == "concat":
            high = self.blast_term(term.args[0])
            low = self.blast_term(term.args[1])
            return low + high
        indices = parse_extract_indices(op)
        if indices is not None:
            high, low = indices
            return self.blast_term(term.args[0])[low : high + 1]
        if op == "bvnot":
            return [-b for b in self.blast_term(term.args[0])]
        if op == "bvneg":
            return self._negate(self.blast_term(term.args[0]))
        if op in ("bvand", "bvor", "bvxor"):
            xs = self.blast_term(term.args[0])
            ys = self.blast_term(term.args[1])
            if op == "bvand":
                gate = self._and
            elif op == "bvor":
                gate = self._or
            else:
                gate = self._xor
            return [gate(a, b) for a, b in zip(xs, ys)]
        if op == "bvadd":
            return self._add(
                self.blast_term(term.args[0]), self.blast_term(term.args[1])
            )
        if op == "bvsub":
            xs = self.blast_term(term.args[0])
            ys = self.blast_term(term.args[1])
            return self._add(xs, [-y for y in ys], carry_in=self.true_lit())
        if op == "bvmul":
            return self._mul(
                self.blast_term(term.args[0]), self.blast_term(term.args[1])
            )
        if op in ("bvshl", "bvlshr"):
            return self._shift(
                self.blast_term(term.args[0]),
                self.blast_term(term.args[1]),
                left=(op == "bvshl"),
            )
        raise OutOfFragment(f"cannot bit-blast operator {op!r}")

    # -- predicate compilation -------------------------------------------

    def blast_pred(self, term):
        """The SAT literal of a Bool-sorted term over bitvectors."""
        nid = id(term)
        cached = self._pred_lits.get(nid)
        if cached is not None:
            return cached
        lit = self._blast_pred_uncached(term)
        self._pred_lits[nid] = lit
        return lit

    def _blast_pred_uncached(self, term):
        if isinstance(term, Const):
            return self.true_lit() if term.value else self.false_lit()
        if isinstance(term, Var):
            lit = self.bool_vars.get(term.name)
            if lit is None:
                lit = self.bool_vars[term.name] = self.sat.new_var()
            return lit
        if not isinstance(term, App):
            raise OutOfFragment(f"cannot bit-blast predicate {term!r}")
        op = term.op
        if op == "not":
            return -self.blast_pred(term.args[0])
        if op in ("=", "distinct"):
            if not is_bitvec(term.args[0].sort):
                if term.args[0].sort == BOOL and len(term.args) == 2:
                    eq = -self._xor(
                        self.blast_pred(term.args[0]),
                        self.blast_pred(term.args[1]),
                    )
                    return eq if op == "=" else -eq
                raise OutOfFragment(f"cannot bit-blast {op} over {term.args[0].sort}")
            lit = self.true_lit()
            bit_vectors = [self.blast_term(a) for a in term.args]
            if op == "=":
                for other in bit_vectors[1:]:
                    lit = self._and(lit, self._equal(bit_vectors[0], other))
                return lit
            for i in range(len(bit_vectors)):
                for j in range(i + 1, len(bit_vectors)):
                    lit = self._and(
                        lit, -self._equal(bit_vectors[i], bit_vectors[j])
                    )
            return lit
        if op == "bvult":
            return self._ult(
                self.blast_term(term.args[0]), self.blast_term(term.args[1])
            )
        if op == "bvule":
            return -self._ult(
                self.blast_term(term.args[1]), self.blast_term(term.args[0])
            )
        raise OutOfFragment(f"cannot bit-blast predicate operator {op!r}")

    # -- model extraction ------------------------------------------------

    def extract_model(self):
        """A Model assigning every blasted variable from the SAT model."""
        assignment = self.sat.model()
        model = Model()
        for name, bits in self.var_bits.items():
            value = 0
            for i, lit in enumerate(bits):
                if assignment.get(abs(lit), False) == (lit > 0):
                    value |= 1 << i
            model[name] = value
        for name, lit in self.bool_vars.items():
            model[name] = assignment.get(abs(lit), False) == (lit > 0)
        return model


def check_bv(theory_literals, limit=120):
    """Decide a conjunction of QF_BV theory literals by bit-blasting.

    Returns ``(status, model, unknown_kind)`` with the same contract as
    the other theory backends: a verified-extractable model on ``sat``,
    ``None`` otherwise; ``unknown_kind`` is :data:`BUDGET_UNKNOWN` when
    the conflict budget ran out and :data:`GENUINE_UNKNOWN` when a
    literal falls outside the blastable fragment. ``limit`` is the work
    meter's enumeration limit (its probe limit for a conflict-minimization
    probe), which sizes the conflict budget.
    """
    function_probe("bitblast.check_bv")
    sat = SatSolver()
    blaster = BitBlaster(sat)
    try:
        for atom, polarity in theory_literals:
            lit = blaster.blast_pred(atom)
            sat.add_clause([lit if polarity else -lit])
    except OutOfFragment:
        line_probe("bitblast.out_of_fragment")
        return UNKNOWN, None, GENUINE_UNKNOWN
    max_conflicts = max(1000, _CONFLICTS_PER_BUDGET * int(limit))
    result = sat.solve(max_conflicts=max_conflicts)
    if result is True:
        line_probe("bitblast.sat")
        return SAT, blaster.extract_model(), ""
    if result is False:
        line_probe("bitblast.unsat")
        return UNSAT, None, ""
    line_probe("bitblast.budget_exhausted")
    return UNKNOWN, None, BUDGET_UNKNOWN


declare_module_probes(__file__)
