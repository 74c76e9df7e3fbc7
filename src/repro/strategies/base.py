"""The mutation-strategy protocol: what a campaign workload must provide.

Semantic Fusion, ConcatFuzz and OpFuzz-style operator mutation are all
the same loop — *draw seeds, mutate, ask a solver, compare against an
oracle* — differing only in the mutator and in how the expected answer
is known. A :class:`MutationStrategy` captures exactly that difference,
so the campaign core (:mod:`repro.core.yinyang`), the worker fleet
(:mod:`repro.core.parallel`), the journal and the telemetry stack drive
any workload without knowing which one it is.

The contract every strategy must keep, because every layer above relies
on it:

- **Determinism**: :meth:`MutationStrategy.mutate` draws randomness
  *only* from the ``rng`` it is handed (the per-iteration RNG seeded by
  ``(campaign seed, iteration index)``) and runs inside the caller's
  ``fresh_scope()``. A mutant is then a pure function of
  ``(strategy, seed corpus, campaign seed, index)`` — which is what
  makes shard partitions, resume, and worker counts invisible to the
  oracle.
- **Picklability by name**: strategies cross the process boundary as
  their registry name plus the shared
  :class:`~repro.core.config.YinYangConfig`; live instances (which may
  hold solver handles or caches) never travel.
- **Telemetry is observational**: the ``tel`` handed to ``mutate`` may
  time phases and bump counters but must never feed back into the
  mutation (it defaults to the null telemetry).

Oracle-preservation kinds:

- :data:`ORACLE_PRESERVING` — the mutant provably keeps the seeds'
  satisfiability label (fusion's Propositions 1/2, concatenation), so
  the expected answer is the cell's oracle, free of charge.
- :data:`ORACLE_DIFFERENTIAL` — the mutation does not preserve
  satisfiability (operator mutation), so the strategy must establish
  ground truth per mutant (here: a trusted, deterministically
  configured reference solve). A mutant whose truth cannot be
  established carries an empty ``oracle`` and is skipped, counted as an
  unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MutationError
from repro.observability.telemetry import NULL_TELEMETRY

ORACLE_PRESERVING = "oracle-preserving"
ORACLE_DIFFERENTIAL = "differential"


@dataclass
class WorkItem:
    """One prepared cell: the seed pool a strategy mutates from.

    Built once per cell/shard by :meth:`MutationStrategy.prepare`;
    strategies may subclass or wrap it to stash precomputed views, but
    must keep whatever they add derivable from the seeds (no hidden
    RNG, no mutable cross-iteration state).
    """

    oracle: str  # the cell's seed label ("sat" | "unsat"), "" if none
    scripts: list
    logics: list


@dataclass
class Mutant:
    """One mutated script plus the provenance the report layer records."""

    script: object  # Script
    oracle: str  # expected verdict; "" = ground truth unknown, skip checks
    seed_indices: tuple = (0, 0)
    logic: str = ""
    schemes: tuple = ()  # per-mutation labels (fusion schemes, op rewrites)
    strategy: str = "fusion"  # the registry name, journaled per record
    # Optional triage hint: precomputed
    # :class:`~repro.campaign.triage.DifficultyFeatures` a strategy may
    # stamp when it already walked the script (must equal
    # ``script_features(script)`` — triage falls back to computing that
    # when the hint is absent, so the hint is a cache, never an input).
    difficulty: object = None


class MutationStrategy:
    """Base class / protocol for campaign workloads.

    Subclasses override the three methods and the class metadata:

    - ``name`` — the registry identity (CLI ``--strategy``, journal
      meta, per-record provenance);
    - ``seeds_per_iteration`` — how many seeds one mutant consumes
      (informational: the strategy draws its own indices from ``rng``);
    - ``oracle_preservation`` — :data:`ORACLE_PRESERVING` or
      :data:`ORACLE_DIFFERENTIAL` (see the module docstring);
    - ``mutate_phase`` — the telemetry span name of the mutation step.
    """

    name = "abstract"
    seeds_per_iteration = 1
    oracle_preservation = ORACLE_PRESERVING
    mutate_phase = "mutate"

    def prepare(self, oracle, scripts, logics):
        """Build the per-cell work item (called once per cell/shard)."""
        return WorkItem(oracle=oracle, scripts=scripts, logics=logics)

    def mutate(self, rng, work, tel=NULL_TELEMETRY):
        """Produce one :class:`Mutant` from ``work`` using ``rng``.

        Must raise :class:`~repro.errors.MutationError` when no mutant
        can be built for this draw; draws randomness only from ``rng``.
        """
        raise NotImplementedError

    def attach_theory_memo(self, memo, telemetry=NULL_TELEMETRY):
        """Hand the strategy the campaign's theory memo (a dict, or
        ``None`` when incremental solving is off).

        Only strategies that solve while mutating (a differential
        oracle) use it; the default ignores it.
        """

    def theories(self):
        """Names of the registered theories this strategy can mutate
        over. The default — every value theory — fits structural
        strategies (concatenation works over any vocabulary); strategies
        with theory-specific machinery override it with a registry
        query (fusion needs fusion schemes, opfuzz needs multi-member
        operator equivalence classes)."""
        from repro.smtlib import theory as _theory

        return tuple(t.name for t in _theory.value_theories())

    def logics(self):
        """The SMT-LIB logics covered by :meth:`theories`, in theory
        registration order."""
        from repro.smtlib import theory as _theory

        out = []
        for name in self.theories():
            for logic in _theory.theory(name).logics:
                if logic not in out:
                    out.append(logic)
        return tuple(out)

    def describe(self):
        """One registry row: (name, seeds/iter, oracle kind, theories,
        summary)."""
        doc = (self.__doc__ or "").strip().splitlines()
        summary = doc[0].rstrip(".") if doc else ""
        return (
            self.name,
            self.seeds_per_iteration,
            self.oracle_preservation,
            "/".join(self.theories()),
            summary,
        )


__all__ = [
    "Mutant",
    "MutationError",
    "MutationStrategy",
    "ORACLE_DIFFERENTIAL",
    "ORACLE_PRESERVING",
    "WorkItem",
]
