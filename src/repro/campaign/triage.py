"""Mutant triage: a deterministic structural difficulty predictor and
the tiered budget policy that routes mutants by it.

Fusion's campaign bottleneck is not fusing but *solving*: variable
fusion's inversion terms make many mutants nonlinear, and each one
burns the full deterministic solve budget before answering ``unknown``
(``benchmarks/results/strategy_throughput.txt``). Triage reads the
difficulty off the formula's structure — nonlinear multiplications,
quantifier depth, string/regex operator count, node count — and routes
hopeless mutants to a fail-fast budget tier, reclaiming the saved wall
clock as extra iterations.

Determinism contract (property-tested in ``tests/test_triage.py``):

- :func:`term_features` is a **pure function of the term's structure**:
  it recurses over the tree exactly as the printer does, so the same
  formula scores identically across ``fresh_scope()`` boundaries,
  interning-table states, pickling (spawn), and parse→print round
  trips. Journals therefore stay byte-identical across shard shapes
  with triage on.
- It is **total**: every node is a ``Const``/``Var``/``App``/
  ``Quantifier``, each with a defined contribution — no operator or
  sort can make it raise.
- :func:`difficulty_score` is **monotone in the nonlinear-term count**:
  adding a nonlinear multiplication strictly increases the score.

Features are cached per interned node (``_difficulty`` in the node's
``__dict__``, the same idiom as the lazy free-variable caches), so a
mutant sharing subterms with its seeds — the normal case under
hash-consing — scores in O(new nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smtlib import theory as _theory
from repro.smtlib.ast import App, Const, Quantifier, Var
from repro.solver.budget import SolveDirective

_ZERO = (0, 0, 0)

# Difficulty-relevant operator sets, as declared by the registered
# theories: ``*``/``bvmul`` (product enumeration / shift-and-add
# blasting) and ``/``/``div``/``mod``/``bvshl``/``bvlshr`` (purified
# division constraints / barrel shifters).
_HARD_MUL_OPS = _theory.hard_mul_ops()
_HARD_DIV_OPS = _theory.hard_div_ops()

#: Per-feature weights of :func:`difficulty_score`. Nonlinear terms
#: dominate (they exhaust the enumeration budget), quantifier residue
#: sends the solver down the refutation path, and string/node counts
#: only matter in bulk.
_W_NONLINEAR = 3
_W_QUANT = 2
_STRING_OPS_PER_POINT = 16
_NODES_PER_POINT = 2048


@dataclass(frozen=True)
class DifficultyFeatures:
    """The structural features the predictor scores a formula by."""

    nonlinear: int  # multiplications of >=2 non-constant factors, etc.
    quant_depth: int  # maximum quantifier nesting depth
    string_ops: int  # str.* / re.* applications
    node_count: int  # total tree size


def _nonlinear_app(node):
    """Does this application itself contribute a nonlinear term?

    ``*`` with at least two non-constant factors, or a division-like
    operator with a non-constant divisor (purification turns those into
    multiplication constraints the nonlinear core must solve).
    """
    op = node.op
    if op in _HARD_MUL_OPS:
        non_const = 0
        for a in node.args:
            if not isinstance(a, Const):
                non_const += 1
                if non_const >= 2:
                    return True
        return False
    if op in _HARD_DIV_OPS:
        return any(not isinstance(a, Const) for a in node.args[1:])
    return False


def term_features(term):
    """The :class:`DifficultyFeatures` of one term (pure, total, cached)."""
    features = _tree_features(term)
    return DifficultyFeatures(
        nonlinear=features[0],
        quant_depth=features[1],
        string_ops=features[2],
        node_count=term.node_count,
    )


def _tree_features(term):
    """(nonlinear, quant_depth, string_ops) with tree (per-occurrence)
    semantics, matching ``node_count``: a subterm shared through
    hash-consing counts once per occurrence, so the result depends only
    on the formula's structure, never on how it was interned."""
    if isinstance(term, (Const, Var)):
        return _ZERO
    cached = term.__dict__.get("_difficulty")
    if cached is not None:
        return cached
    stack = [term]
    while stack:
        node = stack[-1]
        if isinstance(node, (Const, Var)) or "_difficulty" in node.__dict__:
            stack.pop()
            continue
        if isinstance(node, Quantifier):
            body = node.body
            below = _child_features(body)
            if below is None:
                stack.append(body)
                continue
            node.__dict__["_difficulty"] = (below[0], below[1] + 1, below[2])
            stack.pop()
            continue
        # App: fold the children (all of which must be resolved first).
        missing = [a for a in node.args if _child_features(a) is None]
        if missing:
            stack.extend(missing)
            continue
        nonlinear = 1 if _nonlinear_app(node) else 0
        quant_depth = 0
        string_ops = (
            1 if node.op.startswith("str.") or node.op.startswith("re.") else 0
        )
        for a in node.args:
            below = _child_features(a)
            nonlinear += below[0]
            string_ops += below[2]
            if below[1] > quant_depth:
                quant_depth = below[1]
        node.__dict__["_difficulty"] = (nonlinear, quant_depth, string_ops)
        stack.pop()
    return term.__dict__["_difficulty"]


def _child_features(node):
    if isinstance(node, (Const, Var)):
        return _ZERO
    return node.__dict__.get("_difficulty")


def script_features(script):
    """Features of a whole script: assertions folded like a conjunction
    (counts summed, quantifier depth maxed)."""
    nonlinear = string_ops = node_count = quant_depth = 0
    for term in script.asserts:
        below = _tree_features(term)
        nonlinear += below[0]
        string_ops += below[2]
        node_count += term.node_count
        if below[1] > quant_depth:
            quant_depth = below[1]
    return DifficultyFeatures(
        nonlinear=nonlinear,
        quant_depth=quant_depth,
        string_ops=string_ops,
        node_count=node_count,
    )


def difficulty_score(features):
    """A single integer difficulty; strictly monotone in ``nonlinear``."""
    return (
        _W_NONLINEAR * features.nonlinear
        + _W_QUANT * features.quant_depth
        + features.string_ops // _STRING_OPS_PER_POINT
        + features.node_count // _NODES_PER_POINT
    )


# ---------------------------------------------------------------------------
# The tiered budget policy
# ---------------------------------------------------------------------------

#: The easy tier runs the configured budgets unchanged but switches on
#: the fused-structure fast paths: both are sound (elimination is an
#: equisatisfiable rewrite, a guessed model is verified by evaluation
#: before it is believed), so they can speed a verdict up but never
#: change it from definite to definite.
EASY_TIER = SolveDirective(
    tier="easy", eliminate_definitions=True, model_guess=True
)

#: The hard tier halves every step budget: borderline mutants get one
#: real attempt, not the full crawl.
HARD_TIER = SolveDirective(
    tier="hard",
    rounds=(1, 2),
    nonlinear=(1, 2),
    strings=(1, 2),
    timeout=0.5,
    eliminate_definitions=True,
    model_guess=True,
)

#: The hopeless tier fails fast: 1/8th of every budget is enough for
#: the model-guess and elimination fast paths to answer the easy
#: stragglers, while a genuinely hopeless nonlinear mutant exits in
#: milliseconds instead of seconds. The denominator is deliberately 8,
#: not 16: at the deterministic config's 30 DPLL rounds, 1/8 still
#: leaves 3 rounds — enough for an eliminated unsat-fusion mutant to
#: propagate its contradiction — where 1/16 would floor to a single
#: round and turn cheap definite verdicts into unknowns.
HOPELESS_TIER = SolveDirective(
    tier="hopeless",
    rounds=(1, 8),
    nonlinear=(1, 8),
    strings=(1, 8),
    timeout=1 / 8,
    eliminate_definitions=True,
    model_guess=True,
)


#: Score thresholds: a mutant scoring at least ``HARD_AT`` runs on the
#: hard tier, at least ``HOPELESS_AT`` on the hopeless tier.
HARD_AT = 4
HOPELESS_AT = 9

#: The spec string triage campaigns journal in their meta
#: (``hard@SCORE:NUM/DEN`` per reduced tier). Frozen as a literal:
#: existing journals carry it and a resume refuses a meta value that
#: differs.
TRIAGE_SPEC = "hard@4:1/2,hopeless@9:1/8"


class TriagePolicy:
    """Routes each mutant to the tier its difficulty score selects.

    Stateless: every worker recomputes the tier per mutant — a pure
    function of the formula, so the routing is identical at any worker
    count.
    """

    __slots__ = ()

    def route(self, script, hint=None):
        """(tier name, directive) for one mutant script.

        ``hint`` short-circuits the feature pass when the strategy
        already stamped :class:`DifficultyFeatures` on the mutant.
        """
        features = hint if isinstance(hint, DifficultyFeatures) else None
        if features is None:
            features = script_features(script)
        score = difficulty_score(features)
        if score >= HOPELESS_AT:
            return "hopeless", HOPELESS_TIER
        if score >= HARD_AT:
            return "hard", HARD_TIER
        return "easy", EASY_TIER
