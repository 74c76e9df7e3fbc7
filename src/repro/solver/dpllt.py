"""The lazy DPLL(T) loop: CDCL over the boolean abstraction, with
conjunctions of theory literals checked by the arithmetic and string
cores, and blocking clauses ruling out refuted abstractions.

Soundness policy:

- ``sat`` is only reported after the candidate model has been verified
  by exact evaluation of the *original* assertions.
- ``unsat`` is only reported when the abstraction became propositionally
  unsatisfiable and no theory check ended in ``unknown`` (each theory
  check is itself sound for the verdict it returns, modulo the string
  solver's documented small-model assumption).
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)
from repro.errors import EvaluationError
from repro.semantics.evaluator import evaluate
from repro.semantics.model import Model
from repro.semantics.values import default_value
from repro.smtlib.ast import Const, Var, free_vars, mk_const
from repro.smtlib.sorts import BOOL, INT, REAL, STRING, is_bitvec
from repro.solver import bitblast, nonlinear, strings, tseitin
from repro.solver.preprocess import instantiate_for_refutation, preprocess
from repro.solver.result import CheckOutcome, SolverResult
from repro.solver.sat import SatSolver
from repro.solver.strings import StringConfig

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# ``unknown`` comes in two kinds, stamped on ``outcome.stats`` so the
# campaign checker can journal them distinctly (never serialized into
# the outcome's reason, which is part of the journal byte format):
# a *budget* unknown would have been decided with more steps/time; a
# *genuine* unknown hit a solver limitation (out-of-fragment atom,
# failed model verification, unrefutable quantifier residue).
BUDGET_UNKNOWN = "budget"
GENUINE_UNKNOWN = "genuine"


def _unknown(reason, kind):
    outcome = CheckOutcome(SolverResult.UNKNOWN, reason=reason)
    outcome.stats["unknown_kind"] = kind
    return outcome


def _strings_key(string_config):
    """The hashable identity of a :class:`StringConfig` for cache keys."""
    return (
        string_config.max_len_per_var,
        string_config.max_total_len,
        string_config.max_assignments,
        string_config.alphabet_size,
        string_config.numeric_probe_range,
        string_config.small_model_assumption,
    )


def check_assertions(
    assertions,
    string_config=None,
    seed=0,
    max_rounds=600,
    nonlinear_budget=900,
    deadline=None,
    eliminate_definitions=False,
    model_guess=False,
    session=None,
):
    """Decide the conjunction of ``assertions``; returns a CheckOutcome.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp; it is
    checked cooperatively at round boundaries, so the wall-clock limit
    holds on any thread (unlike a signal-based alarm).

    ``eliminate_definitions`` and ``model_guess`` switch on the triage
    layer's fused-structure fast paths (see
    :mod:`repro.solver.preprocess` and :func:`_guess_model`); both are
    sound, both default off, and the default path is byte-identical in
    behaviour to the pre-triage solver.

    ``session`` is an optional
    :class:`~repro.solver.session.SolverSession`: the incremental layer
    (a per-cell outcome cache plus the campaign's shared theory memo).
    Both replay exact answers, so a session changes what a check costs
    and never what it answers.
    """
    function_probe("dpllt.check")
    original = list(assertions)
    string_config = string_config or StringConfig()

    outcome_key = None
    if session is not None and deadline is None:
        # Outcome caching is restricted to deterministic (deadline-free)
        # checks: a wall-clock outcome is not a function of the
        # arguments, so replaying one would not be answer-invariant.
        outcome_key = (
            tuple(original),
            max_rounds,
            nonlinear_budget,
            _strings_key(string_config),
            seed,
            eliminate_definitions,
            model_guess,
        )
        cached = session.lookup_outcome(outcome_key)
        if cached is not None:
            line_probe("dpllt.session_outcome_hit")
            return cached
    outcome = _check_uncached(
        original,
        string_config,
        seed,
        max_rounds,
        nonlinear_budget,
        deadline,
        eliminate_definitions,
        model_guess,
        session,
    )
    if outcome_key is not None:
        session.store_outcome(outcome_key, outcome)
    return outcome


def _check_uncached(
    original,
    string_config,
    seed,
    max_rounds,
    nonlinear_budget,
    deadline,
    eliminate_definitions,
    model_guess,
    session,
):
    pre = preprocess(original, eliminate_definitions=eliminate_definitions)
    if branch_probe("dpllt.quantified_residue", pre.quantified):
        return _refutation_path(original, pre, string_config, seed, deadline)

    if model_guess:
        guessed = _guess_model(original)
        if guessed is not None:
            line_probe("dpllt.model_guess")
            return guessed

    return _search(
        original,
        pre,
        string_config,
        seed,
        max_rounds,
        nonlinear_budget,
        deadline,
        session,
    )


def _search(
    original,
    pre,
    string_config,
    seed,
    max_rounds,
    nonlinear_budget,
    deadline,
    session,
):
    """The DPLL(T) loop over a fresh encoding of ``pre``'s assertions."""
    sat_core = SatSolver()
    abstraction = tseitin.encode(pre.assertions, sat_core)
    saw_unknown = False
    saw_genuine = False
    rounds = 0
    strings_key = _strings_key(string_config) if session is not None else None
    # (term, polarity) -> what theory dispatch needs of that literal;
    # the same atoms recur in almost every check of one search.
    atom_table = {}

    def make_check(budget, refute):
        local_cache = {}

        def check(literal_list):
            key = frozenset(literal_list)
            if key in local_cache:
                return local_cache[key]
            result = None
            if session is not None:
                # The session memo is keyed on the *ordered* literal
                # tuple (theory search is order-sensitive), making a hit
                # an exact replay of the miss — result-identical, hence
                # invisible to determinism and verdict equivalence.
                result = session.theory_lookup(
                    literal_list, budget, seed, strings_key, refute
                )
            if result is None:
                result = _check_theory(
                    literal_list,
                    string_config,
                    seed,
                    budget,
                    deadline,
                    refute,
                    atom_table,
                )
                if session is not None:
                    session.theory_store(
                        literal_list,
                        budget,
                        seed,
                        strings_key,
                        result,
                        cacheable=deadline is None or result[0] != UNKNOWN,
                        refute=refute,
                    )
            local_cache[key] = result
            return result

        return check

    cached_check = make_check(nonlinear_budget, False)

    # Conflict-minimization probes only need to *refute* subsets of an
    # already-refuted assignment, so they run refutation-only: an
    # arithmetic probe stops before the model search, which could only
    # answer sat or unknown and never shrinks a core. The probe budget
    # now bounds only bit-vector conflicts (a reduced-budget UNSAT is
    # as much a proof as a full-budget one; an undecided probe just
    # keeps its literal in the core). Kept in a separate cache so probe
    # answers never masquerade as full answers.
    probe_check = make_check(max(1, nonlinear_budget // 4), True)

    while True:
        rounds += 1
        if rounds > max_rounds:
            line_probe("dpllt.round_budget")
            return _unknown("round budget exhausted", BUDGET_UNKNOWN)
        if deadline is not None and time.monotonic() > deadline:
            line_probe("dpllt.deadline")
            return _unknown("timeout", BUDGET_UNKNOWN)
        verdict = sat_core.solve()
        if verdict is None:
            line_probe("dpllt.sat_budget")
            return _unknown("sat budget exhausted", BUDGET_UNKNOWN)
        if verdict is False:
            if saw_unknown:
                line_probe("dpllt.unsat_but_unknown")
                return _unknown(
                    "abstraction closed with unknowns",
                    GENUINE_UNKNOWN if saw_genuine else BUDGET_UNKNOWN,
                )
            line_probe("dpllt.unsat")
            return CheckOutcome(SolverResult.UNSAT)

        sat_model = sat_core.model()
        literals = abstraction.theory_assignment(sat_model)
        bool_literals = [
            (atom, value) for atom, value in literals if isinstance(atom, Var)
        ]
        theory_literals = [
            (atom, value) for atom, value in literals if not isinstance(atom, Var)
        ]

        status, theory_model, kind = cached_check(theory_literals)
        if status == SAT:
            model = _assemble_model(
                original, pre, bool_literals, theory_model or Model()
            )
            if model is not None:
                line_probe("dpllt.sat_verified")
                return CheckOutcome(SolverResult.SAT, model=model)
            line_probe("dpllt.verification_failed")
            saw_unknown = True
            saw_genuine = True
        elif status == UNKNOWN:
            line_probe("dpllt.theory_unknown")
            saw_unknown = True
            if kind == GENUINE_UNKNOWN:
                saw_genuine = True

        # Refuted (or unverifiable) abstraction: block it and continue.
        # A theory refutation depends only on the theory literals, so
        # blocking just those — shrunk to a small core — prunes the
        # search far more aggressively than blocking the assignment.
        if status == UNSAT and theory_literals:
            to_block = _shrink_core(theory_literals, probe_check)
        else:
            to_block = literals
        block = [
            abstraction.atom_to_var[atom] if value else -abstraction.atom_to_var[atom]
            for atom, value in to_block
        ]
        if not block:
            # No theory atoms at all; propositional verdict is final.
            if status == SAT:
                line_probe("dpllt.pure_bool_sat")
                model = _assemble_model(original, pre, bool_literals, Model())
                if model is not None:
                    return CheckOutcome(SolverResult.SAT, model=model)
                return _unknown("verification failed", GENUINE_UNKNOWN)
            return _unknown("empty abstraction", GENUINE_UNKNOWN)
        abstraction.block(block)


def _shrink_core(theory_literals, cached_check, max_literals=32):
    """QuickXplain-style divide-and-conquer conflict minimization.

    Conflict cores here are tiny (often 1-3 literals out of ~30), so
    the divide-and-conquer recursion reaches them in ``O(k log n)``
    refutation probes where greedy per-literal deletion needs ``O(n)``.
    ``cached_check`` answers each probe; only whether it is ``UNSAT``
    matters, so the search passes a refutation-only check (see
    :func:`_check_theory`) that skips the model search of arithmetic
    subsets, where hard probes used to burn their budget.

    Soundness needs only the *top-level* refutation (established by the
    caller before shrinking): every subset the recursion returns is
    itself probed ``UNSAT``, or kept conservatively when a probe cannot
    decide. A probe that answers ``unknown`` merely keeps extra
    literals — the result is always a refuted (not necessarily
    minimum) core whose negation makes a valid lemma.
    """
    function_probe("dpllt.shrink_core")
    if len(theory_literals) > max_literals:
        line_probe("dpllt.shrink_skipped")
        return theory_literals

    def minimize(background, candidates, background_changed):
        if background_changed and cached_check(background)[0] == UNSAT:
            return []
        if len(candidates) == 1:
            return list(candidates)
        half = len(candidates) // 2
        first, second = candidates[:half], candidates[half:]
        core_second = minimize(background + first, second, True)
        core_first = minimize(
            background + core_second, first, bool(core_second)
        )
        return core_first + core_second

    return minimize([], list(theory_literals), False)


def _check_theory(
    theory_literals,
    string_config,
    seed,
    nonlinear_budget=900,
    deadline=None,
    refute=False,
    atom_table=None,
):
    """Dispatch a conjunction of theory literals to the right core.

    Returns ``(status, model, unknown_kind)``: the kind distinguishes a
    budget-bounded ``unknown`` (string/nonlinear enumeration ran out of
    steps — more budget could decide it) from a genuine one (an atom
    outside every core's fragment).

    ``refute`` makes an arithmetic conjunction refutation-only (see
    :func:`~repro.solver.nonlinear.check_nonlinear`): ``unsat`` exactly
    when the full check is, ``unknown`` where it would find a model.
    ``atom_table`` maps ``(term, polarity)`` to the literal's
    :func:`_literal_facts`; a search passes one table to all its checks
    so each literal is analysed once (``None``: a table for this call).
    """
    function_probe("dpllt.check_theory")
    if not theory_literals:
        return SAT, Model(), ""
    if atom_table is None:
        atom_table = {}
    facts = []
    for literal in theory_literals:
        entry = atom_table.get(literal)
        if entry is None:
            entry = atom_table[literal] = _literal_facts(*literal)
        facts.append(entry)
    if branch_probe("dpllt.uses_strings", any(entry[0] for entry in facts)):
        status, model = strings.check_strings(
            theory_literals, string_config, seed, deadline
        )
        return status, model, BUDGET_UNKNOWN if status == UNKNOWN else ""
    if branch_probe("dpllt.uses_bv", any(entry[1] for entry in facts)):
        return bitblast.check_bv(
            theory_literals, nonlinear_budget=nonlinear_budget, deadline=deadline
        )

    poly_atoms = []
    int_vars = set()
    for _strings, _bv, kind, payload, int_names in facts:
        int_vars.update(int_names)
        if kind == "decided":
            if not payload:
                return UNSAT, None, ""
        elif kind == "poly":
            poly_atoms.append(payload)
        else:
            line_probe("dpllt.stuck_atom")
            return UNKNOWN, None, GENUINE_UNKNOWN
    status, values = nonlinear.check_nonlinear(
        poly_atoms,
        int_vars,
        seed=seed,
        enum_budget=nonlinear_budget,
        deadline=deadline,
        refute=refute,
    )
    if status != SAT:
        return status, None, BUDGET_UNKNOWN if status == UNKNOWN else ""
    model = Model()
    for name, value in (values or {}).items():
        model[name] = int(value) if name in int_vars else Fraction(value)
    return SAT, model, ""


def _literal_facts(term, polarity):
    """``(strings, bv, kind, payload, int_names)`` of one theory literal.

    ``strings`` and ``bv`` say whether the atom mentions either theory;
    ``kind, payload`` is its :func:`~repro.solver.nonlinear.atom_to_poly`
    result and ``int_names`` the names of its Int variables. A string
    atom sends every conjunction it is in to the string core, and a
    bit-vector atom without strings to the bit-blaster. Neither needs
    its polynomial, nor a string atom its bit-vector flag, so those
    are not computed.
    """
    if strings.involves_strings((term,)):
        return True, False, None, None, ()
    if bitblast.involves_bv((term,)):
        return False, True, None, None, ()
    kind, payload = nonlinear.atom_to_poly(term, polarity)
    int_names = tuple(var.name for var in free_vars(term) if var.sort == INT)
    return False, False, kind, payload, int_names


def _guess_model(original, max_variables=128):
    """The model-guess fast path: cheap candidate assignments, verified.

    Before DPLL(T) builds any abstraction, evaluate the original
    assertions under a couple of deterministic candidate models (all
    defaults, all ones). A candidate that makes every assertion true
    *is* a verified model — the exact check ``sat`` verdicts already
    rest on — so the fast path can only ever add sat answers the full
    search would also have found, never flip one. Fused sat mutants (a
    disjunction of substituted seeds with ``z`` free) are frequently
    satisfied by such trivial assignments.
    """
    function_probe("dpllt.guess_model")
    every_var = {}
    for term in original:
        for var in free_vars(term):
            every_var[var.name] = var
    if len(every_var) > max_variables:
        return None
    for make in (default_value, _one_value):
        model = Model()
        for name, var in every_var.items():
            model[name] = make(var.sort)
        try:
            if all(evaluate(term, model) for term in original):
                line_probe("dpllt.model_guess_hit")
                return CheckOutcome(SolverResult.SAT, model=model)
        except EvaluationError:
            continue
    return None


def _one_value(sort):
    """The all-ones candidate: nonzero, nonempty, true."""
    if sort == INT:
        return 1
    if sort == REAL:
        return Fraction(1)
    if sort == BOOL:
        return True
    if is_bitvec(sort):
        return 1
    return "a"


def _assemble_model(original, pre, bool_literals, theory_model):
    """Build and *verify* a full model for the original assertions.

    Returns the model, or ``None`` if verification fails (in which case
    the caller treats the candidate as refuted).
    """
    function_probe("dpllt.assemble_model")
    model = theory_model.copy()
    for atom, value in bool_literals:
        model[atom.name] = bool(value)

    # Default any variable the theories left unconstrained.
    every_var = {}
    for term in original:
        for var in free_vars(term):
            every_var[var.name] = var
    for term in pre.assertions:
        for var in free_vars(term):
            every_var.setdefault(var.name, var)
    eliminated_names = {name for name, _sort, _term in pre.eliminated}
    for name, var in every_var.items():
        if name in eliminated_names:
            continue
        if name not in model:
            model[name] = default_value(var.sort)
        elif var.sort == REAL and isinstance(model[name], int):
            model[name] = Fraction(model[name])

    # Reconstruct eliminated definition variables (``(= z (f x y))``
    # substituted away before the search) by evaluating their recorded
    # defining terms — closed over surviving variables thanks to the
    # back-substitution in the elimination pass.
    for name, sort, definition in pre.eliminated:
        try:
            value = evaluate(definition, model)
        except EvaluationError:
            line_probe("dpllt.eliminated_eval_error")
            return None
        if sort == REAL and isinstance(value, int):
            value = Fraction(value)
        model[name] = value

    # Translate purified division variables into division-at-zero
    # choices so the original formula evaluates consistently.
    for op, numer, denom, fresh in pre.divisions:
        if op not in ("/", "div", "mod"):
            continue
        try:
            denominator = evaluate(denom, model)
        except EvaluationError:
            return None
        if denominator == 0:
            try:
                numerator = evaluate(numer, model)
            except EvaluationError:
                return None
            model.set_div_at_zero(op, numerator, model[fresh])

    try:
        ok = all(evaluate(term, model) for term in original)
    except EvaluationError:
        # Quantifiers the bounded evaluator cannot decide: fall back to
        # verifying the preprocessed (skolemized / expanded) assertions,
        # whose truth under the model implies the original's.
        line_probe("dpllt.verify_fallback")
        try:
            ok = all(evaluate(term, model) for term in pre.assertions)
        except EvaluationError:
            line_probe("dpllt.verify_error")
            return None
    if branch_probe("dpllt.model_ok", ok):
        return model
    return None


def _refutation_path(original, pre, string_config, seed, deadline=None):
    """Quantified residue: attempt refutation by finite instantiation."""
    function_probe("dpllt.refutation_path")
    candidates = _instantiation_candidates(pre.assertions)
    weakened = [
        instantiate_for_refutation(term, candidates) for term in pre.assertions
    ]
    if any(_still_quantified(t) for t in weakened):
        line_probe("dpllt.refutation_stuck")
        return _unknown("quantifier out of fragment", GENUINE_UNKNOWN)
    outcome = check_assertions(weakened, string_config, seed, deadline=deadline)
    if outcome.result is SolverResult.UNSAT:
        line_probe("dpllt.refutation_success")
        return CheckOutcome(SolverResult.UNSAT)
    kind = GENUINE_UNKNOWN
    if outcome.result is SolverResult.UNKNOWN:
        kind = outcome.stats.get("unknown_kind", GENUINE_UNKNOWN)
    return _unknown("quantified: refutation failed", kind)


def _instantiation_candidates(assertions):
    """Ground instantiation terms per sort name, harvested from the input."""
    ints = {0, 1, -1}
    reals = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)}
    strings_ = {"", "a"}
    variables = {}
    for term in assertions:
        for node in term.walk():
            if isinstance(node, Const):
                if node.sort == INT:
                    ints.add(int(node.value))
                elif node.sort == REAL:
                    reals.add(Fraction(node.value))
                elif node.sort == STRING:
                    strings_.add(node.value)
            elif isinstance(node, Var) and node.name not in variables:
                variables[node.name] = node
    candidates = {
        "Int": [mk_const(v, INT) for v in sorted(ints)][:8],
        "Real": [mk_const(v, REAL) for v in sorted(reals)][:8],
        "String": [mk_const(v, STRING) for v in sorted(strings_)][:6],
        "Bool": [mk_const(False, BOOL), mk_const(True, BOOL)],
    }
    for var in variables.values():
        bucket = candidates.get(var.sort.name)
        if bucket is not None and len(bucket) < 10:
            bucket.append(var)
    return candidates


def _still_quantified(term):
    from repro.smtlib.ast import Quantifier

    return any(isinstance(node, Quantifier) for node in term.walk())


declare_module_probes(__file__)
