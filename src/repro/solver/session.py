"""Solver sessions: exact replays shared across a cell's checks.

A :class:`SolverSession` is scoped to one campaign cell or fleet lease
and binds that cell's telemetry. It holds two caches, and both are
*exact replays*: a hit returns what the miss would have computed, so
an incremental campaign journals the same cells as a cold one and only
the meta line (which names the session spec) differs.

- an **outcome cache** keyed on the full argument tuple of a check
  (assertion terms, scaled budgets, flags). Unchanged-from-seed
  assertion terms are the *same interned objects* across iterations,
  so keys are cheap; entries are snapshots, handed back as
  fresh :class:`~repro.solver.result.CheckOutcome` copies because
  wrappers (the fault layer) mutate ``outcome.stats``. The cache is
  cleared at every iteration boundary (:meth:`begin_iteration`): its
  job is deduplicating the fan-out of each mutant to every solver
  under test (``check_mutant``) — a hit means
  "this exact check already ran *this iteration*" — and the
  iteration scoping is what makes hits provably independent of how a
  campaign is sharded (no shard can see another iteration's entries).
- a handle on the **theory memo**: ``_check_theory`` is a pure function
  of its ordered literal list, budgets, seed and refutation-only mode
  (it draws no gensyms and no ambient randomness), so memoizing it on
  the *ordered* tuple is result-identical. The memo is not the
  session's own: it is a plain dict scoped to the campaign process
  (serial: the whole campaign; a process campaign's worker: the worker's
  lifetime), shared by every cell's session and by opfuzz's
  differential oracle. Mutants of the same seeds keep re-asserting the
  same theory atoms, and the oracle and the solvers under test check
  the same mutants, so the repeats span checks as well as iterations.
  It is never module state: two campaigns in one process build two
  memos.

Determinism: the theory memo is a pure-function memo, so how a fleet
shape splits it between processes changes only its hit rate, and the
outcome cache is iteration-scoped, so neither can observe a partition
of the iteration space.

Both caches evict in *insertion order* (the oldest entry goes first),
never by clock: eviction order is then a pure function of the
insertion sequence, which keeps memory bounds from introducing
wall-clock dependence into an otherwise deterministic run.
"""

from __future__ import annotations

from repro.observability.telemetry import NULL_TELEMETRY
from repro.solver.result import CheckOutcome

# Unused here: imported only because verdict_bench/tracing.py wraps it.
from repro.solver.preprocess import preprocess  # noqa: F401


#: Entry caps of the session's caches.
OUTCOME_CACHE_CAP = 256
THEORY_CACHE_CAP = 4096

#: The spec string incremental campaigns journal in their meta. Frozen
#: as a literal: existing journals carry it and a resume refuses a meta
#: value that differs, so it keeps the caps of retired mechanisms: the
#: learned-clause store's ``clauses=256`` and the warm SAT prototype's
#: ``presolve=64`` and ``warm=8``.
SESSION_SPEC = "outcome=256,theory=4096,clauses=256,presolve=64,warm=8"


class SolverSession:
    """The outcome cache of one cell, plus the campaign's theory memo.

    ``theory_memo`` is the campaign's theory memo, a dict shared by
    every session of the campaign process; ``None`` gives the session
    a private one.
    """

    def __init__(self, telemetry=None, theory_memo=None):
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._outcome_cache = {}
        self._theory_memo = {} if theory_memo is None else theory_memo

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
            "theory_cache": len(self._theory_memo),
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
        """Drop the cell's outcomes (a lease ends, the session dies with it).

        The theory memo is left alone: it belongs to the campaign scope
        and keeps serving the other cells and the oracle.
        """
        self._outcome_cache.clear()

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

    # -- theory memo -------------------------------------------------------

    def theory_lookup(self, literal_list, budget, seed, strings_key, refute=False):
        key = (tuple(literal_list), budget, seed, strings_key, refute)
        hit = self._theory_memo.get(key)
        if hit is None:
            self.tel.count("session.theory.miss")
            return None
        self.tel.count("session.theory.hit")
        return hit

    def theory_store(
        self, literal_list, budget, seed, strings_key, result, cacheable, refute=False
    ):
        """Memoize one ``_check_theory`` answer.

        Keyed on the *ordered* literal tuple: the theory cores are
        order-sensitive searches, so only the exact call is a pure
        replay. ``refute`` is part of the key: a refutation-only answer
        (a probe's ``unknown`` where the full check may find a model)
        must never answer a full check. ``cacheable`` is False for
        wall-clock-bounded unknowns (a timeout is not a function of the
        arguments).
        """
        if not cacheable:
            return
        key = (tuple(literal_list), budget, seed, strings_key, refute)
        self._bounded_put(self._theory_memo, key, result, THEORY_CACHE_CAP)

    # -- benchmark seams ---------------------------------------------------

    def warm_start(self, pre_assertions):
        return None  # Kept only because verdict_bench/tracing.py wraps it.

    def note_warm_decided(self):
        pass  # Kept only because verdict_bench/tracing.py wraps it.
