"""Tiered solve budgets: the directive a triage layer hands a solver.

A :class:`SolveDirective` scales the reference solver's step-counted
budgets (DPLL rounds, nonlinear enumeration, string assignments) and
its optional wall-clock deadline, and switches on the fused-structure
fast paths (definition elimination, model guessing). It is frozen, so
the three tier directives of :mod:`repro.campaign.triage` are shared
module constants that every worker routes to identically.

Budget scales are exact rationals ``(numerator, denominator)`` applied
with :func:`scale_int` — deterministic integer arithmetic, never
floats, so the scaled budget of a tier is identical on every machine
and the triage layer's determinism guarantee survives the scaling. A
:class:`WorkMeter` carries one check's scaled budgets to every layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The identity scale: leave the configured budget untouched.
FULL = (1, 1)


def scale_int(value, ratio):
    """``value`` scaled by the rational ``ratio``, floored, at least 1.

    Pure integer arithmetic — no float rounding — so every host
    computes the same scaled budget. The floor of 1 keeps a directive
    from zeroing a budget entirely: even the fail-fast tier must make
    one attempt so a trivially easy formula can still answer.
    """
    numerator, denominator = ratio
    return max(1, (value * numerator) // denominator)


@dataclass(frozen=True)
class SolveDirective:
    """How hard one solver check should try.

    - ``tier`` — the triage tier name this directive implements
      (``"easy"`` / ``"hard"`` / ``"hopeless"``), surfaced in
      telemetry as ``triage.tier.<tier>``;
    - ``rounds`` / ``nonlinear`` / ``strings`` — rational scales
      applied to ``max_rounds``, ``nonlinear_budget`` and the string
      solver's ``max_assignments`` (see :meth:`WorkMeter.for_check`);
    - ``timeout`` — multiplier on the wall-clock deadline (only
      meaningful for non-deterministic configs; deterministic solvers
      run with ``timeout_seconds=0`` and stay wall-clock free);
    - ``eliminate_definitions`` — substitute away pinned definition
      variables (the unsat-fusion constraint ``(= z (f x y))``) before
      DPLL(T);
    - ``model_guess`` — try cheap candidate assignments through the
      evaluator before building the abstraction (verified-sat only, so
      it can never flip a definite verdict).

    Every tier keeps conflict minimization and the cell's incremental
    session (when one is active): both are answer-invariant, so no
    directive switches them off.
    """

    tier: str = "full"
    rounds: tuple = FULL
    nonlinear: tuple = FULL
    strings: tuple = FULL
    timeout: float = 1.0
    eliminate_definitions: bool = False
    model_guess: bool = False


@dataclass
class WorkMeter:
    """One check's step limits and wall-clock deadline, and its counters.

    ``rounds`` bounds the DPLL(T) rounds of a search, ``enumeration``
    the model-search nodes of a nonlinear check (``probes`` for a
    conflict-minimization probe; both also size the bit-blaster's
    conflict budget), ``assignments`` a string check and ``splits`` the
    case splits of a linear check with disequalities. ``deadline`` is an
    absolute ``time.monotonic()`` timestamp, or ``None``. Each layer
    resets its counter where its unit of work starts, so a theory
    check's answer depends only on its literals and the limits.
    """

    rounds: int = 600
    enumeration: int = 900
    assignments: int = 30000
    splits: int = 64
    deadline: float | None = None
    spent: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_check(cls, config, directive=None):
        """The meter of one check under a ``SolverConfig`` and an
        optional :class:`SolveDirective`; its deadline starts now."""
        rounds = config.max_rounds
        enumeration = config.nonlinear_budget
        assignments = config.strings.max_assignments
        seconds = config.timeout_seconds
        if directive is not None:
            rounds = scale_int(rounds, directive.rounds)
            enumeration = scale_int(enumeration, directive.nonlinear)
            if directive.strings != FULL:
                assignments = scale_int(assignments, directive.strings)
            if seconds > 0:
                seconds *= directive.timeout
        deadline = time.monotonic() + seconds if seconds > 0 else None
        return cls(rounds, enumeration, assignments, deadline=deadline)

    @property
    def probes(self):
        """The enumeration limit of a conflict-minimization probe."""
        return max(1, self.enumeration // 4)

    def reset(self, counter):
        self.spent[counter] = 0

    def charge(self, counter):
        """Charge a step to ``counter``: its name once past its limit,
        else ``"deadline"`` once the deadline has passed, else ``None``."""
        spent = self.spent[counter] = self.spent[counter] + 1
        if spent > getattr(self, counter):
            return counter
        return "deadline" if self.expired() else None

    def expired(self):
        return self.deadline is not None and time.monotonic() > self.deadline
