"""Bounded string solver for the QF_S / QF_SLIA fragments.

The decision strategy mirrors what the paper's string logics need:

1. **Propagation** — string variables pinned by equalities to constants
   are substituted away.
2. **Length abstraction** — every string variable gets an integer
   length variable; equalities between concatenations, exact-length
   constraints and constant regex memberships contribute linear length
   constraints. If the abstraction is unsatisfiable, so is the formula
   (sound ``unsat``).
3. **Bounded search** — length vectors are enumerated within a budget;
   candidate strings come from regex-membership constraints when
   available, otherwise from a small alphabet (the constants' characters
   plus fresh letters — the standard small-alphabet closure for word
   equations). The search assigns one variable per DFS node and prunes
   the branch once a literal whose variables are all assigned is false.
   Each node checks only the literals it closed, and evaluates each one
   with a closure compiled once per call, which computes the literal's
   value from the assigned strings; a literal no closure covers is
   folded instead. At a full assignment every literal is folded to
   constants, and any residual arithmetic over remaining numeric
   variables goes to the arithmetic core. Models are verified exactly,
   so ``sat`` answers are sound.
4. If the bounded search is exhausted, the solver reports ``unsat``
   only when a *completeness certificate* holds: the length abstraction
   must prove that no solution exists outside the explored length
   bounds (so the only remaining assumption is the finite alphabet —
   the standard closure argument for word equations, switchable via
   ``small_model_assumption``). Truncated or uncertified searches
   answer ``unknown``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)
from repro.errors import EvaluationError, ReproError
from repro.semantics import regex as rx
from repro.semantics.evaluator import _apply_op, evaluate
from repro.semantics.model import Model
from repro.smtlib import theory as _theory
from repro.smtlib.ast import App, Const, Var, free_vars, mk_app, mk_const, mk_var
from repro.smtlib.sorts import INT, REAL, STRING
from repro.solver import nonlinear
from repro.solver.budget import WorkMeter
from repro.solver.linarith import LinearAtom, check_linear

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# The string theory's operator set, from the registry (str.* only:
# regex combinators are REGLAN-sorted, so the sort check below already
# routes any atom containing them here).
_STRING_OPS = frozenset(
    op for op in _theory.theory_ops("strings") if op.startswith("str.")
)


@dataclass
class StringConfig:
    """Budgets and soundness switches for the bounded search."""

    max_len_per_var: int = 3
    max_total_len: int = 8
    max_assignments: int = 30000
    alphabet_size: int = 4
    numeric_probe_range: int = 3
    small_model_assumption: bool = True


def involves_strings(atoms):
    """True if any atom mentions a String-sorted subterm."""
    for atom in atoms:
        for node in atom.walk():
            if node.sort == STRING or (isinstance(node, App) and node.op in _STRING_OPS):
                return True
    return False


# ---------------------------------------------------------------------------
# Folding / partial evaluation
# ---------------------------------------------------------------------------


def _fold(term, model):
    """Fold subterms that are closed under ``model`` to constants."""
    if isinstance(term, Var):
        if term.name in model:
            return mk_const(model[term.name], term.sort)
        return term
    if not isinstance(term, App):
        return term
    args = tuple(_fold(a, model) for a in term.args)
    folded = mk_app(term.op, args, term.sort)
    if all(isinstance(a, Const) for a in args) or term.op == "str.in.re":
        try:
            value = evaluate(folded, model)
        except EvaluationError:
            return folded
        if folded.sort == REAL:
            value = Fraction(value)
        return mk_const(value, folded.sort)
    return folded


_residual_atom = nonlinear.atom_to_poly


# ---------------------------------------------------------------------------
# Compiled literals
# ---------------------------------------------------------------------------


class _Uncompiled(Exception):
    """A node no closure covers: the literal is left to ``_fold``."""


def _compile_literal(term, polarity):
    """Compile a literal to ``decided_false(values, model)``, or ``None``.

    ``values`` maps every variable of ``term`` to its value and ``model``
    is ``Model(values)``. The closure returns what
    ``_residual_atom(_fold(term, model), polarity)`` would: True iff it
    decides the literal false. It has ``_fold``'s strict semantics: every
    argument is evaluated before its operator, with no short circuit, and
    each operator is applied by ``evaluator._apply_op`` with ``model``.
    Where ``_fold`` would leave a node non-constant the closure raises
    :class:`EvaluationError`, and the caller folds instead. ``None``
    means some node (a quantifier, a ``str.in.re`` over an open regex or
    over one that does not build) is never covered.

    A fold that reaches a constant fires the evaluator's ``eval.<op>``
    probe of every operator it applies; the closure fires the same set
    on its first success, so coverage cannot tell the two apart.
    """
    probes = set()
    try:
        value_of = _compile_value(term, {}, probes)
    except _Uncompiled:
        return None
    unfired = probes

    def decided_false(values, model):
        nonlocal unfired
        value = value_of(values, model)
        if unfired:
            for probe in unfired:
                line_probe(probe)
            unfired = None
        return bool(value) != polarity

    return decided_false


def _compile_value(node, compiled, probes):
    """A closure ``(values, model) -> value`` of ``node``, shared through
    ``compiled`` (id -> closure) by every occurrence of a subterm. Adds
    the ``eval.<op>`` probe of each operator it applies to ``probes``."""
    fn = compiled.get(id(node))
    if fn is not None:
        return fn
    cls = node.__class__
    if cls is Const:
        value = node.value

        def fn(values, model):
            return value

    elif cls is Var:
        name = node.name
        if node.sort == REAL:
            # mk_const's cast of an int Real value.
            def fn(values, model):
                value = values[name]
                return Fraction(value) if isinstance(value, int) else value

        else:

            def fn(values, model):
                return values[name]

    elif cls is not App:
        raise _Uncompiled(node)
    elif node.op == "str.in.re":
        target = _compile_value(node.args[0], compiled, probes)
        fn = _compile_membership(target, node.args[1])
        probes.add("eval.str.in.re")
    else:
        args = [_compile_value(arg, compiled, probes) for arg in node.args]
        fn = _compile_app(node, args)
        probes.add(f"eval.{node.op}")
    compiled[id(node)] = fn
    return fn


def _compile_membership(target, regex_term):
    """``str.in.re`` over a variable-free regex, whose :class:`Regex` is
    built once: from the regex as ``_fold`` folds it (which fires the
    fold's probes), the way the evaluator builds it."""
    if free_vars(regex_term):
        raise _Uncompiled(regex_term)
    try:
        folded = _fold(regex_term, Model())
        regex = rx.regex_from_term(folded, lambda t: evaluate(t, Model()))
    except Exception as exc:  # the fallback fold replays the failure
        raise _Uncompiled(regex_term) from exc

    def member(values, model):
        return rx.matches(regex, target(values, model))

    return member


def _compile_app(node, args):
    # The evaluator's short-circuit connectives are applied as _fold
    # applies them: to arguments that are all evaluated first.
    op = node.op
    apply = None
    if op == "and":
        apply = all
    elif op == "or":
        apply = any
    elif op == "ite":

        def apply(vals):
            return vals[1] if vals[0] else vals[2]

    elif op == "=>":

        def apply(vals):
            return not all(vals[:-1]) or bool(vals[-1])

    if apply is not None:

        def fn(values, model):
            return apply([arg(values, model) for arg in args])

    else:

        def fn(values, model):
            return _apply_op(op, [arg(values, model) for arg in args], node, model)

    if node.sort != REAL:
        return fn

    def real(values, model):  # _fold's Fraction cast of a Real value
        return Fraction(fn(values, model))

    return real


# ---------------------------------------------------------------------------
# Constraint harvesting
# ---------------------------------------------------------------------------


def _concat_parts(term):
    """Flatten a String term into concat parts, or None if not flat."""
    if isinstance(term, (Var, Const)):
        return [term]
    if isinstance(term, App) and term.op == "str.++":
        parts = []
        for arg in term.args:
            sub = _concat_parts(arg)
            if sub is None:
                return None
            parts.extend(sub)
        return parts
    return None


def _length_coeffs(parts):
    """Linear length expression of a concat-parts list."""
    coeffs = {}
    constant = 0
    for part in parts:
        if isinstance(part, Const):
            constant += len(part.value)
        else:
            name = f".len.{part.name}"
            coeffs[name] = coeffs.get(name, 0) + 1
    return coeffs, constant


@dataclass
class _Analysis:
    string_vars: dict = field(default_factory=dict)  # name -> Var
    numeric_vars: dict = field(default_factory=dict)  # name -> Var
    alphabet: str = ""
    pinned: dict = field(default_factory=dict)  # name -> str value
    exact_lengths: dict = field(default_factory=dict)  # name -> int
    int_images: dict = field(default_factory=dict)  # name -> int (str.to.int value)
    regexes: dict = field(default_factory=dict)  # name -> Regex (intersection)
    length_atoms: list = field(default_factory=list)  # LinearAtom over .len.*
    numeric_in_string: set = field(default_factory=set)  # numeric var names


def _analyze(literals, config):
    analysis = _Analysis()
    chars = set()
    for term, _ in literals:
        for node in term.walk():
            if isinstance(node, Var):
                if node.sort == STRING:
                    analysis.string_vars[node.name] = node
                elif node.sort in (INT, REAL):
                    analysis.numeric_vars[node.name] = node
            elif isinstance(node, Const) and node.sort == STRING:
                chars.update(node.value)
            elif isinstance(node, App) and node.op in _STRING_OPS:
                # Numeric variables inside string operations must be
                # enumerated alongside the strings.
                if node.op in ("str.at", "str.substr", "str.indexof", "str.from.int"):
                    for arg in node.args:
                        if arg.sort == INT:
                            for v in free_vars(arg):
                                if v.sort == INT:
                                    analysis.numeric_in_string.add(v.name)

    for filler in "ab01AC=":
        if len(chars) >= config.alphabet_size:
            break
        chars.add(filler)
    analysis.alphabet = "".join(sorted(chars))

    for term, polarity in literals:
        # Arithmetic atoms whose only string content is ``str.len`` of a
        # variable join the length abstraction directly (e.g.
        # ``(= (str.len s) (str.len t))`` or ``(< (str.len s) 0)``).
        length_atom = _as_length_atom(term, polarity)
        if length_atom is not None:
            analysis.length_atoms.append(length_atom)
        if not polarity:
            continue
        if isinstance(term, App) and term.op == "=" and term.args[0].sort == STRING:
            left = _concat_parts(term.args[0])
            right = _concat_parts(term.args[1])
            if left is not None and right is not None:
                lc, lk = _length_coeffs(left)
                rc, rk = _length_coeffs(right)
                diff = dict(lc)
                for name, coeff in rc.items():
                    diff[name] = diff.get(name, 0) - coeff
                analysis.length_atoms.append(
                    LinearAtom.make(diff, "=", Fraction(rk - lk))
                )
            # Pinning: var = constant.
            for a, b in ((term.args[0], term.args[1]), (term.args[1], term.args[0])):
                if isinstance(a, Var) and isinstance(b, Const):
                    if a.name in analysis.pinned and analysis.pinned[a.name] != b.value:
                        analysis.length_atoms.append(
                            LinearAtom.make({}, "<", Fraction(0))  # contradiction
                        )
                    analysis.pinned[a.name] = b.value
        elif isinstance(term, App) and term.op == "=":
            # Exact length: (= (str.len v) k), and str.to.int images:
            # (= (str.to.int v) k), in either order.
            for a, b in ((term.args[0], term.args[1]), (term.args[1], term.args[0])):
                if (
                    isinstance(a, App)
                    and a.op == "str.len"
                    and isinstance(a.args[0], Var)
                    and isinstance(b, Const)
                    and b.sort == INT
                ):
                    analysis.exact_lengths[a.args[0].name] = int(b.value)
                if (
                    isinstance(a, App)
                    and a.op == "str.to.int"
                    and isinstance(a.args[0], Var)
                    and isinstance(b, Const)
                    and b.sort == INT
                    and int(b.value) >= 0
                ):
                    # The only strings with str.to.int = k >= 0 are the
                    # zero-padded decimal representations of k.
                    name = a.args[0].name
                    existing = analysis.int_images.get(name)
                    if existing is not None and existing != int(b.value):
                        analysis.length_atoms.append(
                            LinearAtom.make({}, "<", Fraction(0))  # contradiction
                        )
                    analysis.int_images[name] = int(b.value)
        elif isinstance(term, App) and term.op == "str.in.re":
            target, regex_term = term.args
            if isinstance(target, Var) and not free_vars(regex_term):
                try:
                    regex = rx.regex_from_term(
                        regex_term, lambda t: evaluate(t, Model())
                    )
                except (EvaluationError, RuntimeError):
                    continue
                name = target.name
                if name in analysis.regexes:
                    analysis.regexes[name] = rx.inter(analysis.regexes[name], regex)
                else:
                    analysis.regexes[name] = regex

    # Length abstraction extras: lengths are nonnegative; regex languages
    # bound lengths from below (and above when finite).
    for name in analysis.string_vars:
        lvar = f".len.{name}"
        analysis.length_atoms.append(LinearAtom.make({lvar: -1}, "<=", Fraction(0)))
        if name in analysis.exact_lengths:
            analysis.length_atoms.append(
                LinearAtom.make({lvar: 1}, "=", Fraction(analysis.exact_lengths[name]))
            )
        if name in analysis.pinned:
            analysis.length_atoms.append(
                LinearAtom.make({lvar: 1}, "=", Fraction(len(analysis.pinned[name])))
            )
        if name in analysis.int_images:
            digits = len(str(analysis.int_images[name]))
            analysis.length_atoms.append(
                LinearAtom.make({lvar: -1}, "<=", Fraction(-digits))
            )
        regex = analysis.regexes.get(name)
        if regex is not None:
            shortest = rx.shortest_member(regex, max_length=config.max_total_len + 4)
            if shortest is None:
                line_probe("strings.regex_empty")
                analysis.length_atoms.append(LinearAtom.make({}, "<", Fraction(0)))
            else:
                analysis.length_atoms.append(
                    LinearAtom.make({lvar: -1}, "<=", Fraction(-len(shortest)))
                )
    return analysis


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _strings_of_length(alphabet, length):
    if length == 0:
        yield ""
        return
    for combo in itertools.product(alphabet, repeat=length):
        yield "".join(combo)


def _regex_members_of_length(regex, length, alphabet):
    """All members of the regex language with exactly ``length`` chars."""
    extra = "".join(rx._relevant_chars(regex))
    chars = sorted(set(alphabet) | set(extra))

    def walk(node, remaining):
        if remaining == 0:
            if rx.nullable(node):
                yield ""
            return
        for ch in chars:
            nxt = rx.derivative(node, ch)
            if isinstance(nxt, rx.RNone):
                continue
            for tail in walk(nxt, remaining - 1):
                yield ch + tail

    yield from walk(regex, length)


def _length_vectors(names, analysis, config):
    """Candidate length vectors consistent with the cheap length facts."""
    ranges = []
    for name in names:
        if name in analysis.pinned:
            ranges.append([len(analysis.pinned[name])])
        elif name in analysis.exact_lengths:
            value = analysis.exact_lengths[name]
            ranges.append([value] if 0 <= value <= config.max_total_len else [])
        else:
            ranges.append(list(range(config.max_len_per_var + 1)))
    for combo in itertools.product(*ranges):
        if sum(combo) <= config.max_total_len:
            yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# Main check
# ---------------------------------------------------------------------------


def check_strings(literals, config=None, seed=0, meter=None):
    """Decide a conjunction of literals involving string terms.

    ``literals`` is a list of ``(atom_term, polarity)`` pairs. Returns
    ``(status, Model or None)``. ``meter``'s assignment limit (default:
    ``config.max_assignments``) and deadline truncate the bounded
    search, so overruns answer ``unknown``.

    The conflict pruner decides each closed literal by its compiled
    closure (``_compile_literal``), which gives the verdict
    ``_residual_atom(_fold(...))`` would, or by that fold where the
    closure does not cover it. A DFS node checks only the literals that
    mention a name it assigned; the seedling, pruned once per call,
    checks every closed one. Verdicts go into a memo that lives for
    this call only, one entry per literal and assignment of its
    variables, so a hit replays the evaluation it skips. The budget is
    charged before pruning, so none of this changes a visited node,
    status or model. Every pruner call follows its own charge and adds
    at most ``len(literals)`` entries, so the memo holds at most the
    assignment limit x ``len(literals)`` entries.
    """
    function_probe("strings.check")
    config = config or StringConfig()
    meter = meter or WorkMeter(assignments=config.max_assignments)
    meter.reset("assignments")
    # Residual arithmetic runs at the default limits, under the deadline.
    residual_meter = WorkMeter(deadline=meter.deadline)
    analysis = _analyze(literals, config)

    # Sound unsat via the length abstraction.
    status, _ = check_linear(
        analysis.length_atoms, int_vars={f".len.{n}" for n in analysis.string_vars}
    )
    if branch_probe("strings.length_abstraction_unsat", status == UNSAT):
        return UNSAT, None

    derived = _find_derived(literals, analysis)
    free_names = [n for n in sorted(analysis.string_vars) if n not in derived]
    # Enumerate the most-constrained variables first (smallest branching
    # factor), so empty candidate sets and literal pruning kick in before
    # the free-alphabet enumeration multiplies the search space.
    frequency = {}
    for term, _ in literals:
        for node in term.walk():
            if isinstance(node, Var) and node.sort == STRING:
                frequency[node.name] = frequency.get(node.name, 0) + 1

    def branching_class(name):
        if name in analysis.pinned or name in analysis.int_images:
            return 0
        if name in analysis.regexes:
            return 1
        return 2

    free_names.sort(key=lambda n: (branching_class(n), -frequency.get(n, 0)))

    numeric_probe_names = sorted(analysis.numeric_in_string)
    probe_values = list(
        range(-config.numeric_probe_range, config.max_total_len + 2)
    )

    state = {"truncated": False, "stuck": False}
    int_names = {n for n, v in analysis.numeric_vars.items() if v.sort == INT}

    def compute_derived(assigned):
        """Extend ``assigned`` with every derived variable now computable;
        returns the names it filled in."""
        filled = []
        progress = True
        while progress:
            progress = False
            for name, parts in derived.items():
                if name in assigned:
                    continue
                pieces = []
                ready = True
                for part in parts:
                    if isinstance(part, Const):
                        pieces.append(part.value)
                    elif part.name in assigned:
                        pieces.append(assigned[part.name])
                    else:
                        ready = False
                        break
                if ready:
                    assigned[name] = "".join(pieces)
                    filled.append(name)
                    progress = True
        return filled

    # A literal can only fold to a constant once every variable in it is
    # assigned (_fold evaluates bottom-up, no short-circuiting), so the
    # pruner skips open literals. A closed literal's verdict depends on
    # nothing but its variables' values, so it is memoized under
    # (literal index, those values in sorted-name order). A DFS node only
    # checks the literals that mention a name it assigned: every literal
    # closed higher up was found not false there, with the same values.
    literal_vars = []
    literals_of = {}  # name -> indices of the literals that mention it
    for index, (term, _) in enumerate(literals):
        names = sorted({node.name for node in term.walk() if isinstance(node, Var)})
        literal_vars.append((frozenset(names), tuple(names)))
        for name in names:
            literals_of.setdefault(name, []).append(index)
    compiled = {}  # literal index -> _compile_literal's closure or None
    decided_false = {}

    def prune_conflict(assigned, new_names=None):
        """True if some literal is already decided false under ``assigned``.

        Only the literals mentioning one of ``new_names`` are checked;
        ``None`` checks every closed literal.
        """
        if new_names is None:
            indices = range(len(literals))
        elif len(new_names) == 1:
            indices = literals_of.get(new_names[0], ())
        else:
            indices = sorted({i for n in new_names for i in literals_of.get(n, ())})
        model = None
        for index in indices:
            name_set, names = literal_vars[index]
            if not name_set <= assigned.keys():
                continue
            key = (index, tuple([assigned[name] for name in names]))
            verdict = decided_false.get(key)
            if verdict is None:
                if model is None:
                    model = Model(assigned)
                if index not in compiled:
                    compiled[index] = _compile_literal(*literals[index])
                closure = compiled[index]
                if closure is not None:
                    try:
                        verdict = closure(assigned, model)
                    except EvaluationError:
                        pass
                if verdict is None:
                    term, polarity = literals[index]
                    kind, payload = _residual_atom(_fold(term, model), polarity)
                    verdict = kind == "decided" and not payload
                decided_false[key] = verdict
            if verdict:
                return True
        return False

    def try_assignment(string_model):
        residuals = []
        for term, polarity in literals:
            folded = _fold(term, string_model)
            kind, payload = _residual_atom(folded, polarity)
            if kind == "decided":
                if not payload:
                    return None
            elif kind == "poly":
                residuals.append(payload)
            else:
                state["stuck"] = True
                return None
        status, numeric = nonlinear.check_nonlinear(
            residuals, int_vars=int_names, seed=seed, meter=residual_meter
        )
        if status == SAT:
            model = string_model.copy()
            for name, value in (numeric or {}).items():
                var = analysis.numeric_vars.get(name)
                if var is not None and var.sort == INT:
                    model[name] = int(value)
                else:
                    model[name] = value
            return model
        if status == UNKNOWN:
            state["stuck"] = True
        return None

    def exhausted():
        """Charge one assignment; what ran out (and truncate), if anything."""
        ran_out = meter.charge("assignments")
        if ran_out:
            if ran_out == "assignments":
                line_probe("strings.budget_exhausted")
            state["truncated"] = True
        return ran_out

    def leaf(assigned):
        """Full free assignment: probe numerics, solve residual arithmetic.

        Each numeric probe solves a residual arithmetic problem, so the
        probe product is real work and must count against the
        assignment budget — otherwise a handful of numeric variables
        turns one leaf into ``len(probe_values) ** k`` uncounted solver
        calls and the budget no longer bounds anything.
        """
        if numeric_probe_names:
            for probe in itertools.product(
                probe_values, repeat=len(numeric_probe_names)
            ):
                if exhausted():
                    return None
                model = Model(assigned)
                for pname, pval in zip(numeric_probe_names, probe):
                    model[pname] = pval
                found = try_assignment(model)
                if found is not None:
                    return found
            return None
        return try_assignment(Model(assigned))

    def candidates_for(name, length):
        if name in analysis.pinned:
            base = [analysis.pinned[name]]
        elif name in analysis.int_images:
            digits = str(analysis.int_images[name])
            base = [digits.zfill(length)] if len(digits) <= length else []
        elif name in analysis.regexes:
            base = _regex_members_of_length(
                analysis.regexes[name], length, analysis.alphabet
            )
        else:
            base = _strings_of_length(analysis.alphabet, length)
        regex = analysis.regexes.get(name)
        if regex is not None and (
            name in analysis.pinned or name in analysis.int_images
        ):
            return (s for s in base if rx.matches(regex, s))
        return base

    def dfs(index, assigned, lengths):
        if index == len(free_names):
            return leaf(assigned)
        name = free_names[index]
        for value in candidates_for(name, lengths[name]):
            if exhausted():
                return None
            extended = dict(assigned)
            extended[name] = value
            new_names = [name, *compute_derived(extended)]
            if prune_conflict(extended, new_names):
                continue
            found = dfs(index + 1, extended, lengths)
            if found is not None:
                return found
            if state["truncated"]:
                return None
        return None

    # The seedling (the variables derived from constants alone) is the
    # same for every length vector, so it is pruned once, at the first.
    seedling = {}
    compute_derived(seedling)
    seedling_conflict = None
    for lengths in _length_vectors(free_names, analysis, config):
        # There are exponentially many length vectors in the number of
        # free variables, even when each DFS dies at once — count each
        # one so the budget bounds total work, not just leaf assignments.
        if exhausted():
            break
        if seedling_conflict is None:
            seedling_conflict = prune_conflict(seedling)
        if seedling_conflict:
            continue
        found = dfs(0, seedling, lengths)
        if found is not None:
            line_probe("strings.sat_found")
            return SAT, found
        if state["truncated"]:
            break

    if state["truncated"] or state["stuck"] or not config.small_model_assumption:
        line_probe("strings.unknown")
        return UNKNOWN, None
    if not _exploration_complete(analysis, free_names, config):
        # The length abstraction admits solutions outside the explored
        # bounds, so exhaustion proves nothing: stay honest.
        line_probe("strings.incomplete_exploration")
        return UNKNOWN, None
    line_probe("strings.assumed_unsat")
    return UNSAT, None


def _as_length_atom(term, polarity):
    """Convert an atom to a :class:`LinearAtom` over ``.len.*`` variables.

    Succeeds when every string-related subterm is ``str.len`` of a
    variable and the rest is linear integer arithmetic; returns ``None``
    otherwise (including negated equalities, which the conjunction-only
    abstraction cannot express).
    """

    def lengthify(node):
        if isinstance(node, App) and node.op == "str.len" and isinstance(
            node.args[0], Var
        ):
            return mk_var(f".len.{node.args[0].name}", INT)
        if isinstance(node, Var):
            return None if node.sort == STRING else node
        if isinstance(node, App):
            if node.op.startswith(("str.", "re.")):
                return None
            new_args = []
            for arg in node.args:
                new_arg = lengthify(arg)
                if new_arg is None:
                    return None
                new_args.append(new_arg)
            return mk_app(node.op, tuple(new_args), node.sort)
        return node

    rewritten = lengthify(term)
    if rewritten is None:
        return None
    kind, payload = nonlinear.atom_to_poly(rewritten, polarity)
    if kind != "poly" or payload.op == "!=":
        return None
    if not nonlinear.poly_is_linear(payload.poly_dict):
        return None
    try:
        return payload.to_linear_atom()
    except ReproError:
        return None


def _exploration_complete(analysis, free_names, config):
    """True if the length abstraction confines every free variable to
    the explored length bounds (making exhaustive search a genuine
    refutation, modulo the finite-alphabet assumption)."""
    length_ints = {f".len.{n}" for n in analysis.string_vars}
    for name in free_names:
        lvar = f".len.{name}"
        beyond = analysis.length_atoms + [
            LinearAtom.make({lvar: -1}, "<=", Fraction(-(config.max_len_per_var + 1)))
        ]
        status, _ = check_linear(beyond, int_vars=length_ints)
        if status != UNSAT:
            return False
    if free_names:
        total = {f".len.{n}": -1 for n in free_names}
        beyond = analysis.length_atoms + [
            LinearAtom.make(total, "<=", Fraction(-(config.max_total_len + 1)))
        ]
        status, _ = check_linear(beyond, int_vars=length_ints)
        if status != UNSAT:
            return False
    return True


def _find_derived(literals, analysis):
    """Variables defined by a word equation ``v = concat(parts)``.

    Such variables need not be enumerated: their value follows from the
    others. Cycles are avoided by only accepting a definition whose
    parts do not (transitively) depend on the defined variable.
    """
    derived = {}

    def depends_on(parts, target, seen):
        for part in parts:
            if isinstance(part, Const):
                continue
            if part.name == target:
                return True
            if part.name in seen:
                continue
            seen.add(part.name)
            if part.name in derived and depends_on(derived[part.name], target, seen):
                return True
        return False

    for term, polarity in literals:
        if not polarity:
            continue
        if not (isinstance(term, App) and term.op == "=" and term.args[0].sort == STRING):
            continue
        for lhs, rhs in ((term.args[0], term.args[1]), (term.args[1], term.args[0])):
            if not isinstance(lhs, Var):
                continue
            name = lhs.name
            if name in derived or name in analysis.pinned or name in analysis.int_images:
                continue
            parts = _concat_parts(rhs)
            if parts is None:
                continue
            if depends_on(parts, name, set()):
                continue
            derived[name] = parts
            break
    return derived


declare_module_probes(__file__)
