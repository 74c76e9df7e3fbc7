"""Public solver API: :class:`ReferenceSolver`.

The reference solver plays the role Z3 and CVC4 play in the paper: a
black box that takes an SMT-LIB script and answers ``sat`` / ``unsat``
/ ``unknown`` (or crashes — which the reference solver itself never
does; the fault-injected variants in :mod:`repro.faults` do).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.coverage.probes import declare_module_probes, function_probe
from repro.observability.telemetry import NULL_TELEMETRY
from repro.smtlib.ast import Script
from repro.smtlib.parser import parse_script
from repro.solver.dpllt import check_assertions
from repro.solver.result import SolverResult
from repro.solver.strings import StringConfig


@dataclass
class SolverConfig:
    """Tunable budgets for the reference solver."""

    seed: int = 0
    max_rounds: int = 600
    nonlinear_budget: int = 900
    # Wall-clock limit per check (0 = unlimited). Enforced as a
    # cooperative deadline checked at DPLL(T) round boundaries, so it
    # holds on any thread (the guard watchdog runs checks on its helper
    # thread, where a SIGALRM-based limit would silently not engage).
    # Timeouts answer ``unknown``, like a
    # real solver driven with a fuzzing time limit.
    timeout_seconds: float = 0.0
    strings: StringConfig = field(default_factory=StringConfig)

    @classmethod
    def fast(cls):
        """Reduced budgets for high-throughput campaigns: hard inputs
        answer ``unknown`` sooner (exactly how one configures a real
        solver with a short timeout for fuzzing)."""
        return cls(
            max_rounds=60,
            nonlinear_budget=250,
            timeout_seconds=1.5,
            strings=StringConfig(max_assignments=6000, max_len_per_var=3, max_total_len=6),
        )

    @classmethod
    def deterministic(cls):
        """:meth:`fast` with the wall-clock deadline replaced by tighter
        step-counted budgets: every check is bounded identically on
        every machine, so verdicts cannot flip with load. The
        configuration of ``--deterministic`` campaigns' solvers and of
        opfuzz's reference oracle; both share one theory memo, whose
        key includes these budgets."""
        return cls(
            max_rounds=30,
            nonlinear_budget=120,
            timeout_seconds=0.0,
            strings=StringConfig(max_assignments=600, max_len_per_var=3, max_total_len=6),
        )

    @classmethod
    def thorough(cls):
        """A higher-budget configuration for offline validation."""
        return cls(
            max_rounds=2000,
            strings=StringConfig(
                max_len_per_var=4, max_total_len=10, max_assignments=200000
            ),
        )


class ReferenceSolver:
    """The reproduction's from-scratch SMT solver.

    Supports the paper's logics: quantifier-free linear and nonlinear
    integer/real arithmetic, strings with regular expressions, and the
    quantified fragments our seed generators emit (skolemizable
    existentials, bounded integer universals).
    """

    name = "reference"
    version = "1.0.0"

    def __init__(self, config=None):
        self.config = config or SolverConfig()
        # Observability hook: attach_telemetry() points this at a
        # Telemetry so every check is counted (and, under --trace,
        # timed). None costs a single truthiness test per check.
        self.telemetry = None

    def check(self, source, directive=None):
        """Check an SMT-LIB script (text or :class:`Script`).

        Returns a :class:`CheckOutcome`; never raises on well-formed
        input.
        """
        function_probe("solver.check")
        script = parse_script(source) if isinstance(source, str) else source
        return self.check_script(script, directive=directive)

    def check_script(self, script, directive=None, session=None):
        """Check a parsed :class:`Script`; returns a :class:`CheckOutcome`.

        ``directive`` (a :class:`~repro.solver.budget.SolveDirective`)
        scales the configured budgets for this one check and switches
        on the fused-structure fast paths; ``None`` is exactly the
        pre-triage behaviour.

        ``session`` (a :class:`~repro.solver.session.SolverSession`)
        enables the incremental layer for this check.
        """
        if not isinstance(script, Script):
            raise TypeError(f"expected a Script, got {type(script).__name__}")
        seconds = self.config.timeout_seconds
        max_rounds = self.config.max_rounds
        nonlinear_budget = self.config.nonlinear_budget
        strings = self.config.strings
        eliminate_definitions = False
        model_guess = False
        if directive is not None:
            seconds = directive.scaled_timeout(seconds)
            max_rounds = directive.scaled_rounds(max_rounds)
            nonlinear_budget = directive.scaled_nonlinear(nonlinear_budget)
            strings = directive.scaled_strings(strings)
            eliminate_definitions = directive.eliminate_definitions
            model_guess = directive.model_guess
        deadline = time.monotonic() + seconds if seconds > 0 else None
        tel = self.telemetry
        with (tel or NULL_TELEMETRY).phase("solver.check"):
            outcome = check_assertions(
                script.asserts,
                string_config=strings,
                seed=self.config.seed,
                max_rounds=max_rounds,
                nonlinear_budget=nonlinear_budget,
                deadline=deadline,
                eliminate_definitions=eliminate_definitions,
                model_guess=model_guess,
                session=session,
            )
        if tel is not None:
            tel.count("solver.checks")
            tel.count("solver.result." + outcome.result.value)
        return outcome

    def check_result(self, source):
        """Convenience: just the :class:`SolverResult` verdict."""
        return self.check(source).result

    def model(self, source):
        """A verified model if the script is satisfiable, else ``None``."""
        outcome = self.check(source)
        if outcome.result is SolverResult.SAT:
            return outcome.model
        return None


declare_module_probes(__file__)
