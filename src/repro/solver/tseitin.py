"""Boolean abstraction: Tseitin encoding of formulas to CNF.

The encoder maps each *theory atom* (arithmetic comparison, string
predicate, equality over non-boolean terms, boolean variable) to a SAT
variable and encodes the boolean skeleton with fresh definition
variables, producing an equisatisfiable CNF for the CDCL core.

Preprocessing guarantees the input is quantifier-free with binarized
theory predicates, so atoms here are opaque leaves.
"""

from __future__ import annotations

from repro.coverage.probes import declare_module_probes, function_probe, line_probe
from repro.errors import ReproError
from repro.smtlib import theory as _theory
from repro.smtlib.ast import App, Const, Quantifier, Var
from repro.smtlib.sorts import BOOL

# Boolean connectives handled structurally (as declared by the core
# theory in the registry); everything else Bool-sorted is a theory atom.
_CONNECTIVES = _theory.connectives()


def is_theory_atom(term):
    """True if a Bool-sorted term is a leaf for the boolean abstraction."""
    if isinstance(term, Var):
        return True
    if isinstance(term, Const):
        return False
    if isinstance(term, Quantifier):
        raise ReproError("quantifier reached the boolean abstraction")
    if isinstance(term, App):
        if term.op not in _CONNECTIVES:
            return True
        if term.op in ("=", "distinct") and term.args[0].sort != BOOL:
            return True
        if term.op == "ite":
            # Bool-sorted ite over Bool branches is structural.
            return False
        return False
    raise TypeError(f"not a term: {term!r}")


class Abstraction:
    """The result of encoding: a SAT solver plus the atom correspondence."""

    def __init__(self, sat_solver):
        self.sat = sat_solver
        self.atom_to_var = {}
        self.var_to_atom = {}
        self._cache = {}
        self._true_lit = None

    # -- literal construction ------------------------------------------------

    def _fresh(self):
        return self.sat.new_var()

    def true_literal(self):
        if self._true_lit is None:
            var = self._fresh()
            self.sat.add_clause([var])
            self._true_lit = var
        return self._true_lit

    def atom_literal(self, term):
        """The SAT variable standing for a theory atom."""
        if term not in self.atom_to_var:
            var = self._fresh()
            self.atom_to_var[term] = var
            self.var_to_atom[var] = term
        return self.atom_to_var[term]

    def literal(self, term):
        """Tseitin literal for an arbitrary Bool-sorted term."""
        if term in self._cache:
            return self._cache[term]
        lit = self._build(term)
        self._cache[term] = lit
        return lit

    def _build(self, term):
        function_probe("tseitin.build")
        if isinstance(term, Const):
            lit = self.true_literal()
            return lit if term.value else -lit
        if is_theory_atom(term):
            return self.atom_literal(term)
        op = term.op
        if op == "not":
            return -self.literal(term.args[0])
        if op == "and":
            line_probe("tseitin.and")
            lits = [self.literal(a) for a in term.args]
            v = self._fresh()
            for lit in lits:
                self.sat.add_clause([-v, lit])
            self.sat.add_clause([v] + [-lit for lit in lits])
            return v
        if op == "or":
            line_probe("tseitin.or")
            lits = [self.literal(a) for a in term.args]
            v = self._fresh()
            for lit in lits:
                self.sat.add_clause([v, -lit])
            self.sat.add_clause([-v] + lits)
            return v
        if op == "=>":
            line_probe("tseitin.implies")
            *hyps, conclusion = term.args
            lits = [-self.literal(h) for h in hyps] + [self.literal(conclusion)]
            v = self._fresh()
            for lit in lits:
                self.sat.add_clause([v, -lit])
            self.sat.add_clause([-v] + lits)
            return v
        if op == "xor":
            line_probe("tseitin.xor")
            result = self.literal(term.args[0])
            for arg in term.args[1:]:
                result = self._encode_xor(result, self.literal(arg))
            return result
        if op == "=":
            # Boolean iff chain: all arguments equivalent.
            line_probe("tseitin.iff")
            lits = [self.literal(a) for a in term.args]
            parts = [-self._encode_xor(lits[0], lit) for lit in lits[1:]]
            if len(parts) == 1:
                return parts[0]
            v = self._fresh()
            for lit in parts:
                self.sat.add_clause([-v, lit])
            self.sat.add_clause([v] + [-lit for lit in parts])
            return v
        if op == "distinct":
            # Boolean distinct: at most two arguments can be distinct.
            line_probe("tseitin.distinct")
            if len(term.args) > 2:
                lit = self.true_literal()
                return -lit
            a, b = (self.literal(x) for x in term.args)
            return self._encode_xor(a, b)
        if op == "ite":
            line_probe("tseitin.ite")
            c = self.literal(term.args[0])
            t = self.literal(term.args[1])
            e = self.literal(term.args[2])
            v = self._fresh()
            self.sat.add_clause([-v, -c, t])
            self.sat.add_clause([-v, c, e])
            self.sat.add_clause([v, -c, -t])
            self.sat.add_clause([v, c, -e])
            return v
        raise ReproError(f"unexpected connective {op!r}")

    def _encode_xor(self, a, b):
        v = self._fresh()
        self.sat.add_clause([-v, a, b])
        self.sat.add_clause([-v, -a, -b])
        self.sat.add_clause([v, a, -b])
        self.sat.add_clause([v, -a, b])
        return v

    # -- top level ----------------------------------------------------------

    def assert_term(self, term):
        """Constrain the formula to hold."""
        self.sat.add_clause([self.literal(term)])

    def block(self, literals):
        """Add a blocking clause: not all of ``literals`` again."""
        self.sat.add_clause([-lit for lit in literals])

    def theory_assignment(self, sat_model):
        """Extract (atom term, polarity) pairs from a SAT model."""
        out = []
        for var, value in sat_model.items():
            atom = self.var_to_atom.get(var)
            if atom is not None:
                out.append((atom, value))
        return out


def encode(assertions, sat_solver):
    """Encode assertions into ``sat_solver``; returns the :class:`Abstraction`."""
    abstraction = Abstraction(sat_solver)
    for term in assertions:
        abstraction.assert_term(term)
    return abstraction


declare_module_probes(__file__)
