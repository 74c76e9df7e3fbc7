"""Hash-consed term layer: interning, cached metadata, deep-formula safety.

Covers the interning invariants the rest of the stack now leans on:

- structurally equal terms built inside one scope are the *same* object,
- ``parse(print(t))`` returns the identical interned object,
- interning is invisible to ``==``, printing, and round-trips,
- ``fresh_scope()`` swaps the intern table (bounded memory, no leaks),
- the recursion-prone hot paths (count/substitute/print/evaluate)
  handle ~10k-deep formulas without touching the recursion limit, and
- interned campaigns stay byte-for-byte deterministic across worker
  counts.
"""

import sys

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.substitution import (
    count_free_occurrences,
    random_occurrence_substitution,
    substitute_occurrences,
)
from repro.seeds import build_corpus
from repro.semantics.evaluator import evaluate
from repro.semantics.model import Model
from repro.smtlib import builder as b
from repro.smtlib.ast import (
    TRUE,
    fresh_scope,
    free_names,
    free_vars,
    intern_stats,
    mk_app,
    mk_const,
    mk_var,
    substitute,
    term_depth,
    term_size,
)
from repro.smtlib.parser import parse_script, parse_term
from repro.smtlib.printer import print_script, print_term
from repro.smtlib.sorts import BOOL, INT, REAL, STRING

X = b.int_var("x")


def _sample_terms():
    x, y = b.int_var("x"), b.int_var("y")
    s = b.string_var("s")
    return [
        b.and_(b.gt(x, 0), b.lt(x, 10)),
        b.or_(b.eq(b.add(x, y, 1), b.mul(2, y)), b.not_(b.eq(x, y))),
        b.eq(b.concat(s, "a"), b.replace(s, "b", "c")),
        b.forall([x], b.implies(b.and_(b.le(0, x), b.le(x, 3)), b.ge(b.add(x, 1), 1))),
        b.eq(b.lift(True), b.gt(b.sub(x), b.neg(y))),
    ]


class TestInterning:
    def test_structural_equality_is_identity(self):
        for t in _sample_terms():
            again = parse_term(print_term(t), free_vars(t))
            assert again == t
            assert again is t, print_term(t)

    def test_parse_print_identity_in_one_scope(self):
        with fresh_scope():
            script = parse_script(
                "(declare-const x Int)\n"
                "(declare-const y Int)\n"
                "(assert (> (+ x y 1) 0))\n"
                "(assert (> (+ x y 1) 0))\n"
                "(check-sat)\n"
            )
            assert script.asserts[0] is script.asserts[1]
            reparsed = parse_script(print_script(script))
            assert reparsed.asserts[0] is script.asserts[0]

    def test_real_print_roundtrip_reaches_fixpoint_identity(self):
        # Fraction(3, 7) prints as a division term, which parses to an
        # App — identity cannot hold on the first round trip, but the
        # second parse must return the identical interned object.
        t = b.eq(b.real_var("r"), b.lift(__import__("fractions").Fraction(3, 7)))
        t2 = parse_term(print_term(t), free_vars(t))
        t3 = parse_term(print_term(t2), free_vars(t2))
        assert t3 is t2

    def test_interning_keeps_distinct_value_types_apart(self):
        assert mk_const(True, BOOL) is not mk_const(1, BOOL)
        assert mk_const(True, BOOL) == mk_const(1, BOOL)  # Python True == 1
        assert print_term(mk_const(True, BOOL)) == "true"

    def test_true_singleton_survives_scopes(self):
        with fresh_scope():
            assert mk_const(True, BOOL) is TRUE

    def test_scope_swaps_intern_table(self):
        outer = b.add(b.int_var("scoped"), 41)
        with fresh_scope():
            inner = b.add(b.int_var("scoped"), 41)
            assert inner is not outer  # fresh table inside the scope
            assert inner == outer  # ...but interning never changes meaning
            assert print_term(inner) == print_term(outer)
        assert b.add(b.int_var("scoped"), 41) is outer  # outer table restored

    def test_intern_stats_count_hits(self):
        with fresh_scope():
            before = intern_stats()
            t1 = b.add(b.int_var("st"), 1)
            t2 = b.add(b.int_var("st"), 1)
            assert t1 is t2
            after = intern_stats()
        assert after["hits"] > before["hits"]
        assert after["size"] > 0


class TestCachedMetadata:
    def test_hash_is_cached_and_stable(self):
        t = b.and_(b.gt(X, 0), b.lt(X, 10))
        assert hash(t) == t._hash
        with fresh_scope():
            rebuilt = b.and_(b.gt(b.int_var("x"), 0), b.lt(b.int_var("x"), 10))
            assert hash(rebuilt) == hash(t)

    def test_node_count_and_depth_precomputed(self):
        t = b.add(X, b.mul(X, 2))
        assert term_size(t) == 5
        assert term_depth(t) == 3
        assert t.node_count == 5 and t.depth == 3

    def test_free_sets_are_cached(self):
        t = b.and_(b.gt(X, 0), b.forall([b.int_var("q")], b.eq(b.int_var("q"), X)))
        assert free_names(t) == frozenset({"x"})
        assert {v.name for v in free_vars(t)} == {"x"}
        assert t._free_names == frozenset({"x"})  # cached on the node


def _deep_chain(n):
    """x + x + ... nested n levels deep (n+1 occurrences of x)."""
    t = X
    for _ in range(n):
        t = b.add(t, X)
    return t


class TestDeepFormulas:
    DEPTH = 10_000

    def test_count_and_substitute_beyond_recursion_limit(self):
        t = _deep_chain(self.DEPTH)
        assert term_depth(t) == self.DEPTH + 1
        # The point of the regression: the formula is deeper than the
        # recursion limit, so any recursive traversal would blow up.
        assert self.DEPTH > sys.getrecursionlimit()
        assert count_free_occurrences(t, X) == self.DEPTH + 1
        replaced = substitute_occurrences(t, X, b.lift(7), range(self.DEPTH + 1))
        assert count_free_occurrences(replaced, X) == 0
        partial = substitute_occurrences(t, X, b.lift(7), [0, self.DEPTH])
        assert count_free_occurrences(partial, X) == self.DEPTH - 1

    def test_random_substitution_and_print_deep(self):
        import random

        t = _deep_chain(self.DEPTH)
        new, replaced, total = random_occurrence_substitution(
            t, X, b.lift(3), random.Random(1), 0.5
        )
        assert total == self.DEPTH + 1
        assert 0 < replaced < total
        text = print_term(new)  # iterative printer survives the depth
        assert text.startswith("(+ ")

    def test_substitute_and_evaluate_deep(self):
        t = _deep_chain(self.DEPTH)
        closed = substitute(t, {X: b.lift(1)})
        assert free_vars(closed) == set()
        model = Model()
        assert evaluate(closed, model) == self.DEPTH + 1
        model["x"] = 2
        assert evaluate(t, model) == 2 * (self.DEPTH + 1)


class TestSemanticsPreserved:
    def test_substitute_noop_returns_same_object(self):
        t = b.and_(b.gt(X, 0), b.lt(X, 10))
        assert substitute(t, {b.int_var("unrelated"): b.lift(1)}) is t

    def test_evaluator_memo_respects_binders(self):
        # The same interned subterm (+ x 1) occurs both ground and under
        # a binder for x; a memo entry cached from the ground occurrence
        # must not leak into the quantified one (or vice versa).
        x = X
        ground = b.gt(b.add(x, 1), 0)
        quantified = b.forall(
            [x],
            b.implies(b.and_(b.le(0, x), b.le(x, 2)), b.gt(b.add(x, 1), 0)),
        )
        model = Model()
        model["x"] = -5
        assert evaluate(ground, model) is False
        assert evaluate(b.or_(ground, quantified), model) is True
        assert evaluate(b.or_(quantified, ground), model) is True

    def test_occurrence_indexing_matches_tree_order(self):
        t = b.add(b.mul(X, X), X)  # occurrences 0, 1 inside *, 2 at top
        out = substitute_occurrences(t, X, b.lift(9), [1])
        assert print_term(out) == "(+ (* x 9) x)"
        out = substitute_occurrences(t, X, b.lift(9), [2])
        assert print_term(out) == "(+ (* x x) 9)"

    def test_shared_subterm_occurrences_counted_per_position(self):
        shared = b.add(X, 1)
        t = b.eq(shared, shared)  # interning makes both sides one object
        assert t.args[0] is t.args[1]
        assert count_free_occurrences(t, X) == 2
        out = substitute_occurrences(t, X, b.lift(5), [1])
        assert print_term(out) == "(= (+ x 1) (+ 5 1))"


@pytest.mark.slow
class TestInternedCampaignDeterminism:
    def test_journals_identical_at_workers_1_2_4(self, tmp_path):
        corpora = {"QF_LIA": build_corpus("QF_LIA", scale=0.002, seed=11)}
        campaign = dict(
            iterations_per_cell=6,
            seed=4,
            performance_threshold=None,
            solver_factory=deterministic_solvers,
        )
        journals = []
        for workers in (1, 2, 4):
            path = tmp_path / f"w{workers}.jsonl"
            run_campaign(
                corpora, journal=path, mode="process", workers=workers, **campaign
            )
            journals.append(path.read_bytes())
        assert journals[0] == journals[1] == journals[2]
