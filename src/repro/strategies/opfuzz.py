"""Type-aware operator mutation (OpFuzz-style): the second workload.

Per *On the Unusual Effectiveness of Type-Aware Operator Mutations for
Testing SMT Solvers* (Winterer, Zhang, Su — same authors as Semantic
Fusion): take one seed, pick k operator occurrences, and rewrite each
with a different operator of the same type — ``<=`` for ``<``, ``or``
for ``and``, ``div`` for ``mod`` — so the mutant stays well-sorted by
construction while its semantics shift freely.

The replacement candidates come straight from the typecheck layer:
:func:`repro.smtlib.typecheck.mutation_alternatives` derives the
type-equivalence classes from the operator dispatch table itself (ops
sharing a handler share a signature), and every rewritten node is
rebuilt through the typechecked :func:`repro.smtlib.typecheck.app`, so
a mutant that fails to sort-check cannot be constructed at all — the
well-typedness property tests in ``tests/test_strategies.py`` pin this.

Unlike fusion, operator mutation does **not** preserve satisfiability,
so the expected verdict is established differentially: each mutant is
solved once by a trusted reference solver in its deterministic
configuration (purely step-counted budgets, no wall clock — the same
recipe as ``--deterministic`` campaigns), and that verdict becomes the
oracle the solvers under test are compared against. The reference draws
no randomness, so shard partitions and worker counts still reproduce
bit-for-bit. Mutants the reference cannot decide carry an empty oracle
and are skipped (counted as unknowns).

With incremental solving on, the oracle solves through a session that
holds the campaign's theory memo and an outcome cache cleared before
every solve. Theory checks are pure
functions of their arguments, so a memo hit replays the miss exactly
and the oracle's verdicts stay the cold reference's verdicts. A
campaign cell draws each mutant once for all solvers under test, so the
oracle solves each mutant once; the memo answers the theory checks that
mutants of one seed pool repeat.

Occurrences are counted in *tree* preorder (a shared DAG node occurring
twice is two occurrences), skipping quantifier bodies; unmutated
subtrees keep their interned identity, so sharing survives the rewrite.
"""

from __future__ import annotations

from repro.errors import MutationError
from repro.observability.telemetry import NULL_TELEMETRY
from repro.smtlib.ast import App, mk_app
from repro.smtlib.typecheck import app as typed_app
from repro.smtlib.typecheck import mutation_alternatives
from repro.solver.result import SolverCrash
from repro.strategies.base import ORACLE_DIFFERENTIAL, Mutant, MutationStrategy


def _mutable_positions(term):
    """Preorder positions of App nodes with at least one type-compatible
    replacement. Position numbering counts *every* App node (mutable or
    not) so the rewrite pass can replay it without knowing the filter;
    quantifier bodies are never entered (binders stay untouched)."""
    positions = []
    counter = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is not App:
            continue
        if mutation_alternatives(node.op, len(node.args)):
            positions.append(counter)
        counter += 1
        # Reversed push keeps preorder = leftmost-first, matching the
        # recursive rewrite in _rewrite_term.
        stack.extend(reversed(node.args))
    return positions


def _rewrite_term(term, targets):
    """Rebuild ``term`` with the App at preorder position ``p`` rewritten
    to ``targets[p]``; untouched subtrees are returned by identity."""
    counter = 0

    def rec(node):
        nonlocal counter
        if type(node) is not App:
            return node
        position = counter
        counter += 1
        new_args = tuple(rec(a) for a in node.args)
        new_op = targets.get(position)
        if new_op is not None:
            # The typechecked constructor re-validates sorts: a
            # replacement that does not fit (impossible within a class,
            # but cheap to enforce) fails loudly here, never downstream.
            return typed_app(new_op, *new_args)
        if new_args == node.args:
            return node
        return mk_app(node.op, new_args, node.sort)

    return rec(term)


class OpFuzzStrategy(MutationStrategy):
    """Type-aware operator mutation (OpFuzz): rewrite k operator
    occurrences with same-type replacements; the verdict is established
    differentially by a deterministic reference solve per mutant."""

    name = "opfuzz"
    seeds_per_iteration = 1
    oracle_preservation = ORACLE_DIFFERENTIAL
    mutate_phase = "mutate"

    #: Upper bound on rewritten occurrences per mutant (k is drawn
    #: uniformly from [1, min(max_mutations, candidates)]).
    max_mutations = 2

    def __init__(self, config=None):
        # Accepts (and ignores) a FusionConfig for registry uniformity.
        self.config = config
        self._oracle_solver = None
        self._oracle_session = None

    def theories(self):
        """Operator mutation needs replacement candidates: only theories
        owning at least one operator in a multi-member type-equivalence
        class (a lone op in its class has nothing to rewrite to)."""
        from repro.smtlib import theory as _theory
        from repro.smtlib.typecheck import operator_equivalence_classes

        mutable = {
            _theory.op_theory(op)
            for ops in operator_equivalence_classes()
            for op in ops
        }
        return tuple(
            t.name for t in _theory.value_theories() if t.name in mutable
        )

    # -- the trusted ground-truth solver ---------------------------------

    def _reference(self):
        """The deterministic reference solver (built lazily, cached).

        Runs :meth:`SolverConfig.deterministic`, the base configuration
        of :func:`repro.campaign.runner.deterministic_solvers`:
        wall-clock deadline off, purely step-counted budgets — the same
        verdict on every machine, mode, and worker count, which is what
        keeps the differential oracle shard-safe.
        """
        if self._oracle_solver is None:
            from repro.solver.solver import ReferenceSolver, SolverConfig

            self._oracle_solver = ReferenceSolver(SolverConfig.deterministic())
        return self._oracle_solver

    def attach_theory_memo(self, memo, telemetry=NULL_TELEMETRY):
        """Solve the oracle through the campaign's theory memo.

        ``memo=None`` restores the plain cold solve.
        """
        self._oracle_session = None
        if memo is not None:
            from repro.solver.session import SolverSession

            self._oracle_session = SolverSession(telemetry=telemetry, theory_memo=memo)

    def resolve_oracle(self, script, tel=NULL_TELEMETRY):
        """Ground truth for one mutant: ``"sat"``/``"unsat"``, or ``""``
        when the reference cannot decide (the mutant is then skipped)."""
        session = self._oracle_session
        with tel.phase("oracle"):
            if session is not None:
                # Outcomes stay scoped to one solve: a hit would skip
                # the preprocess, and with it the gensyms it draws.
                session.begin_iteration()
            try:
                outcome = self._reference().check_script(script, session=session)
            except SolverCrash:
                return ""
        result = outcome.result
        return str(result) if result.is_definite else ""

    # -- the mutator ------------------------------------------------------

    def mutate(self, rng, work, tel=NULL_TELEMETRY):
        scripts = work.scripts
        with tel.phase("seed_pick"):
            i = rng.randrange(len(scripts))
        seed = scripts[i]
        with tel.phase("mutate"):
            asserts = seed.asserts
            candidates = []  # (assert index, preorder position)
            for ai, term in enumerate(asserts):
                candidates.extend(
                    (ai, position) for position in _mutable_positions(term)
                )
            if not candidates:
                raise MutationError(
                    "no type-compatible operator occurrence to mutate"
                )
            k = rng.randint(1, min(self.max_mutations, len(candidates)))
            chosen = sorted(rng.sample(range(len(candidates)), k))
            per_assert = {}
            labels = []
            for index in chosen:
                ai, position = candidates[index]
                term = asserts[ai]
                # Re-derive the node's op for the label: cheap relative
                # to the rewrite, and keeps candidates position-only.
                old_op = _op_at(term, position)
                new_op = rng.choice(
                    mutation_alternatives(old_op, _arity_at(term, position))
                )
                per_assert.setdefault(ai, {})[position] = new_op
                labels.append(f"{old_op}->{new_op}")
            new_asserts = [
                _rewrite_term(term, per_assert[ai])
                if ai in per_assert
                else term
                for ai, term in enumerate(asserts)
            ]
            script = seed.with_asserts(new_asserts)
        oracle = self.resolve_oracle(script, tel)
        return Mutant(
            script=script,
            oracle=oracle,
            seed_indices=(i, i),
            logic=work.logics[i],
            schemes=tuple(labels),
            strategy=self.name,
        )


def _node_at(term, position):
    """The App node at tree-preorder ``position`` (as _mutable_positions
    numbers them); None when out of range."""
    counter = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is not App:
            continue
        if counter == position:
            return node
        counter += 1
        stack.extend(reversed(node.args))
    return None


def _op_at(term, position):
    return _node_at(term, position).op


def _arity_at(term, position):
    return len(_node_at(term, position).args)
