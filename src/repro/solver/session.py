"""Per-cell solver sessions: cross-iteration incremental solving.

Semantic fusion generates thousands of mutants from the *same* seed
pool, yet every check used to rebuild Tseitin encodings, preprocessing
and DPLL(T) search from scratch. A :class:`SolverSession` is scoped to
one campaign cell (seed pool × strategy) and carries the state that is
sound to reuse across that cell's mutant stream:

- an **outcome cache** keyed on the full argument tuple of a check
  (assertion terms, scaled budgets, flags). Unchanged-from-seed
  assertion terms are the *same interned objects* across iterations
  (PR 3), so keys are cheap; entries are snapshots, handed back as
  fresh :class:`~repro.solver.result.CheckOutcome` copies because
  wrappers (the fault layer) mutate ``outcome.stats``. The cache is
  cleared at every iteration boundary (:meth:`begin_iteration`): its
  job is deduplicating the N-solvers-per-mutant fan-out — a hit means
  "this exact check already ran *this iteration*" — and the
  iteration scoping is what makes hits provably independent of how a
  campaign is sharded (no shard can see another iteration's entries).
- a **theory-lemma cache**: ``_check_theory`` is a pure function of
  its ordered literal list, budgets and seed (it draws no gensyms and
  no ambient randomness), so memoizing it on the *ordered* tuple is
  result-identical — a hit returns exactly what the miss would have
  computed. This cache is the one that legitimately spans iterations:
  mutants of the same seeds keep re-asserting the same theory atoms.
- a **warm SAT prototype**: the cell's seed assertions, Tseitin-encoded
  once with a *selector* (assumption) variable guarding each
  assertion's root literal, then presolved under all selectors for a
  bounded number of conflicts. Each mutant solve clones the prototype
  (CNF, variable maps, VSIDS activity and saved phases — the
  warm-start ordering), assumes the selectors of the seed assertions
  the mutant actually retained, guards mutant-specific assertions
  behind one fresh per-solve selector, and searches under assumptions.

Soundness of the warm path: every mutant-specific root assertion is
guarded by the per-solve selector, and the selectors of the seed
assertions the mutant dropped are simply not assumed, so a warm search
constrains exactly the mutant's own assertions. Clauses the presolve
learned are consequences of the selector-guarded seed clauses alone
(assumptions are decisions, never clauses), hence valid for every
mutant of the cell.

Determinism: the prototype is built eagerly at session construction,
inside its own fresh-name scope, from the seed scripts alone — a pure
function of the cell — and a warm solve only ever clones it, so a warm
solve is a pure function of ``(cell, mutant, directive)`` and shard
partitioning cannot observe session state. The theory cache is a
pure-function memo, and the outcome cache is iteration-scoped — all
three are invisible to any partition of the iteration space.

Verdict safety: a warm solve may only *add* definite verdicts. A warm
``sat`` is model-verified, a warm ``unsat`` is derived from the
mutant's own assertions plus valid lemmas; a warm ``unknown`` falls
back to the exact cold path (whose session theory-cache hits are
result-identical), so versus incremental-off no definite verdict can be
lost or flipped — only ``unknown`` → definite improvements remain.

All caches evict in *insertion order* (the oldest entry goes first),
never by clock: eviction order is then a pure function of the
insertion sequence, which keeps memory bounds from introducing
wall-clock dependence into an otherwise deterministic run.
"""

from __future__ import annotations

from repro.observability.telemetry import NULL_TELEMETRY
from repro.smtlib.ast import fresh_scope
from repro.smtlib.sorts import BOOL
from repro.solver.preprocess import preprocess
from repro.solver.result import CheckOutcome
from repro.solver.sat import SatSolver
from repro.solver.tseitin import Abstraction, is_theory_atom


#: Entry caps of the session's caches.
OUTCOME_CACHE_CAP = 256
THEORY_CACHE_CAP = 4096
ATOM_MEMO_CAP = 2048
#: Conflict budget of the one-off prototype presolve under all selectors.
PRESOLVE_CONFLICTS = 64
#: DPLL(T) round cap of a warm attempt. Kept small: a warm attempt that
#: cannot decide quickly falls back to the cold path, and the fallback
#: re-pays theory checks only where the session cache misses.
WARM_ROUNDS = 8

#: The spec string incremental campaigns journal in their meta. Frozen
#: as a literal: existing journals carry it and a resume refuses a meta
#: value that differs, so it keeps the ``clauses=256`` cap of the
#: retired learned-clause store.
SESSION_SPEC = "outcome=256,theory=4096,clauses=256,presolve=64,warm=8"


class _Prototype:
    """The cell's selector-guarded seed encoding (built once)."""

    __slots__ = ("sat", "abstraction", "selectors", "by_id")

    def __init__(self, sat, abstraction, selectors, by_id):
        self.sat = sat
        self.abstraction = abstraction
        # [(assertion term, selector var, frozenset of its theory atoms)]
        self.selectors = selectors
        self.by_id = by_id  # id(assertion term) -> index into selectors


class WarmCore:
    """One mutant's clone of the prototype, ready to solve."""

    __slots__ = ("sat", "abstraction", "assumptions", "relevant")

    def __init__(self, sat, abstraction, assumptions, relevant):
        self.sat = sat
        self.abstraction = abstraction
        self.assumptions = assumptions
        # The theory atoms of the *asserted* formulas: exactly the atom
        # universe a cold encode of the same assertions would have, so
        # filtering the SAT model to it makes warm theory queries range
        # over the same conjunctions the cold path would check.
        self.relevant = relevant


class SolverSession:
    """Answer-invariant caches plus the warm-solve machinery of one cell.

    ``seed_scripts`` is the cell's seed pool (Script objects); the
    prototype is built from their assertions immediately, inside a
    private fresh-name scope, so its content is a pure function of the
    cell regardless of when or on which shard the session is created.
    """

    def __init__(self, seed_scripts, telemetry=None):
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._outcome_cache = {}
        self._theory_cache = {}
        self._atom_memo = {}  # term -> frozenset of theory atoms
        self._proto = self._build_prototype(seed_scripts or [])

    # -- construction ------------------------------------------------------

    def _build_prototype(self, seed_scripts):
        seen = set()
        seed_assertions = []
        for script in seed_scripts:
            for term in getattr(script, "asserts", ()):
                if id(term) not in seen:
                    seen.add(id(term))
                    seed_assertions.append(term)
        if not seed_assertions:
            return None
        # A private scope: preprocessing probes below may intern rewritten
        # nodes and draw gensyms; neither may leak into (or depend on) the
        # caller's scope, or the prototype would stop being a pure
        # function of the seed pool.
        with fresh_scope():
            sat = SatSolver()
            abstraction = Abstraction(sat)
            selectors = []
            by_id = {}
            for term in seed_assertions:
                # Register only assertions that preprocessing provably
                # leaves untouched (same interned object in, same object
                # out, no divisions/eliminations/extras): those are the
                # ones a mutant's own preprocessed assertion list can
                # contain *by identity*, which is what selector matching
                # keys on. Anything else simply never matches and is
                # encoded fresh per mutant — a missed optimization, never
                # a wrong answer.
                pre = preprocess([term])
                if pre.quantified or pre.divisions or pre.eliminated:
                    continue
                if len(pre.assertions) != 1 or pre.assertions[0] is not term:
                    continue
                selector = sat.new_var()
                abstraction.assert_term_under(term, selector)
                by_id[id(term)] = len(selectors)
                selectors.append((term, selector, self._atoms_of(term)))
            if not selectors:
                return None
            # Presolve under the full seed conjunction: whatever the
            # bounded search learns is a consequence of the guarded seed
            # clauses alone, valid for every mutant, and rides every
            # clone (assumptions are decisions, never clauses, so they
            # cannot contaminate learned resolvents).
            sat.solve(
                max_conflicts=PRESOLVE_CONFLICTS,
                assumptions=tuple(sel for _, sel, _ in selectors),
            )
        return _Prototype(sat, abstraction, selectors, by_id)

    def _atoms_of(self, term):
        cached = self._atom_memo.get(term)
        if cached is None:
            cached = frozenset(
                node
                for node in term.walk()
                if node.sort == BOOL and is_theory_atom(node)
            )
            self._bounded_put(self._atom_memo, term, cached, ATOM_MEMO_CAP)
        return cached

    # -- bounded caches ----------------------------------------------------

    def _bounded_put(self, cache, key, value, cap):
        if key not in cache:
            while len(cache) >= cap:
                cache.pop(next(iter(cache)))
                self.tel.count("session.evictions")
        cache[key] = value

    def cache_sizes(self):
        """Current entry counts, for the telemetry gauges."""
        return {
            "outcome_cache": len(self._outcome_cache),
            "theory_cache": len(self._theory_cache),
            "atom_memo": len(self._atom_memo),
        }

    # -- iteration lifecycle -----------------------------------------------

    def begin_iteration(self):
        """Reset the iteration-scoped state (called by the checker).

        Outcome entries deduplicate the several solver checks of *one*
        mutant; letting them survive into later iterations would make a
        hit depend on which iterations share a shard.
        """
        self._outcome_cache.clear()

    def close(self):
        """Drop every cache (a lease ends, the session dies with it)."""
        self._outcome_cache.clear()
        self._theory_cache.clear()
        self._atom_memo.clear()

    # -- outcome cache -----------------------------------------------------

    def lookup_outcome(self, key):
        entry = self._outcome_cache.get(key)
        if entry is None:
            self.tel.count("session.outcome.miss")
            return None
        self.tel.count("session.outcome.hit")
        result, model, reason, stats = entry
        outcome = CheckOutcome(result, model=model, reason=reason)
        outcome.stats.update(stats)
        return outcome

    def store_outcome(self, key, outcome):
        # Snapshot the stats dict: callers (the fault layer) stamp their
        # own keys onto the outcome they received, and those must never
        # bleed into a later hit's copy.
        self._bounded_put(
            self._outcome_cache,
            key,
            (outcome.result, outcome.model, outcome.reason, dict(outcome.stats)),
            OUTCOME_CACHE_CAP,
        )

    # -- theory-lemma cache ------------------------------------------------

    def theory_lookup(self, literal_list, budget, seed, strings_key):
        key = (tuple(literal_list), budget, seed, strings_key)
        hit = self._theory_cache.get(key)
        if hit is None:
            self.tel.count("session.theory.miss")
            return None
        self.tel.count("session.theory.hit")
        return hit

    def theory_store(self, literal_list, budget, seed, strings_key, result, cacheable):
        """Memoize one ``_check_theory`` answer.

        Keyed on the *ordered* literal tuple: the theory cores are
        order-sensitive searches, so only the exact call is a pure
        replay. ``cacheable`` is False for wall-clock-bounded unknowns
        (a timeout is not a function of the arguments).
        """
        if not cacheable:
            return
        key = (tuple(literal_list), budget, seed, strings_key)
        self._bounded_put(self._theory_cache, key, result, THEORY_CACHE_CAP)

    # -- warm solves -------------------------------------------------------

    def warm_rounds(self, max_rounds):
        """The DPLL(T) round cap of a warm attempt under ``max_rounds``."""
        return max(1, min(WARM_ROUNDS, max_rounds))

    def should_warm(self, max_rounds):
        """Whether a warm attempt can pay for itself under ``max_rounds``.

        A warm attempt is a *cheaper prefilter* in front of the exact
        cold search; when the caller's round budget is already at or
        below the warm cap (the fail-fast triage tiers), the attempt
        would cost as much as the search it tries to skip and every
        fallback would pay double. A pure function of the directive's
        budget, so the gate is shard-invisible.
        """
        return max_rounds > WARM_ROUNDS

    def warm_start(self, pre_assertions):
        """Clone the prototype for one mutant; ``None`` if nothing is shared."""
        proto = self._proto
        if proto is None:
            self.tel.count("session.warm.skipped")
            return None
        shared = []
        rest = []
        for term in pre_assertions:
            index = proto.by_id.get(id(term))
            if index is not None:
                shared.append(index)
            else:
                rest.append(term)
        if not shared:
            # No seed assertion survived into this mutant's preprocessed
            # form: a clone would reuse nothing, the cold path is strictly
            # cheaper.
            self.tel.count("session.warm.skipped")
            return None
        sat = proto.sat.clone()
        abstraction = proto.abstraction.clone_onto(sat)
        relevant = set()
        assumptions = []
        for index in shared:
            _, selector, atoms = proto.selectors[index]
            assumptions.append(selector)
            relevant.update(atoms)
        mutant_selector = sat.new_var()
        for term in rest:
            abstraction.assert_term_under(term, mutant_selector)
            relevant.update(self._atoms_of(term))
        assumptions.append(mutant_selector)
        self.tel.count("session.warm.attempt")
        return WarmCore(
            sat=sat,
            abstraction=abstraction,
            assumptions=tuple(assumptions),
            relevant=relevant,
        )

    def note_warm_decided(self):
        self.tel.count("session.warm.decided")

    def note_warm_fallback(self):
        self.tel.count("session.warm.fallback")
