"""A solver wrapper that injects catalog faults: the buggy Z3/CVC4 stand-in.

``FaultySolver`` behaves exactly like its base solver until a fault's
trigger fires on the input formula; then it misbehaves according to the
fault's effect. A ``release`` tag selects which faults are live,
simulating historical builds for the Figure 10 study.
"""

from __future__ import annotations

import threading
import time

from repro.coverage.probes import (
    declare_module_probes,
    function_probe,
    line_probe,
)
from repro.faults.fault import analyze_script
from repro.semantics.values import default_value
from repro.smtlib.ast import App, Var, mk_app, mk_const
from repro.smtlib.sorts import INT, STRING
from repro.smtlib.typecheck import app as mk
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

_CRASH_MESSAGES = {
    "z3-like": (
        "Failed to verify: m_util.is_numeral(rhs, _k)\n"
        "[2] 25133 segmentation fault (core dumped)"
    ),
    "cvc4-like": (
        "Fatal failure within CVC4::theory::TheoryEngine::check()\n"
        "Internal error detected; aborting"
    ),
}


class FaultySolver:
    """The base solver plus a catalog of injected defects."""

    def __init__(self, base_solver, faults, name, release="trunk", slow_seconds=0.4):
        self.base = base_solver
        self.name = name
        self.release = release
        self.slow_seconds = slow_seconds
        self.faults = [
            f for f in faults if release in f.affected_releases
        ]
        # Per-thread: a guard's watchdog can abandon a timed-out check
        # still running on its helper thread while the next check runs
        # on another, and the two must not race one trigger list.
        self._local = threading.local()

    @property
    def last_triggered(self):
        """Faults triggered by the calling thread's most recent check."""
        return getattr(self._local, "last_triggered", [])

    def active_faults(self):
        return list(self.faults)

    def triggered_faults(self, script):
        """The faults whose triggers fire on ``script`` (in catalog order)."""
        info = analyze_script(script)
        return [f for f in self.faults if f.triggers_on(info)]

    def check_script(self, script, directive=None, session=None):
        """Check a script, subject to the injected faults."""
        function_probe("faulty.check")
        triggered = self.triggered_faults(script)
        self._local.last_triggered = triggered
        if len(triggered) > 1:
            # Which buggy code path wins depends on the formula (as it
            # would in a real solver); rotate deterministically so no
            # fault permanently shadows another across a campaign.
            offset = (
                len(script.asserts)
                + sum(len(v.name) for v in script.free_variables())
            ) % len(triggered)
            triggered = triggered[offset:] + triggered[:offset]

        working = script
        slow_ids = []
        for fault in triggered:
            if fault.effect == "crash":
                line_probe("faulty.crash")
                crash = SolverCrash(
                    _CRASH_MESSAGES.get(self.name, "internal error"),
                    kind="segfault",
                )
                crash.fault_id = fault.fault_id
                raise crash
            if fault.effect == "answer":
                line_probe("faulty.answer")
                outcome = CheckOutcome(
                    SolverResult.from_string(fault.wrong_answer),
                    reason=f"fault:{fault.fault_id}",
                )
                outcome.stats["triggered"] = [fault.fault_id]
                if fault.wrong_answer == "sat":
                    outcome.model = _bogus_model(script)
                return outcome
            if fault.effect == "rewrite":
                line_probe("faulty.rewrite")
                working = _apply_rewrite(fault.fault_id, working)
            if fault.effect == "slow":
                slow_ids.append(fault.fault_id)
            if fault.effect == "unknown":
                line_probe("faulty.unknown")
                outcome = CheckOutcome(
                    SolverResult.UNKNOWN,
                    reason=f"error: rewriter failed to converge ({fault.fault_id})",
                )
                outcome.stats["triggered"] = [fault.fault_id]
                return outcome

        if slow_ids:
            line_probe("faulty.slow")
            time.sleep(self.slow_seconds)
        outcome = self.base.check_script(
            working, directive=directive, session=session
        )
        outcome.stats["triggered"] = [f.fault_id for f in triggered]
        if slow_ids:
            outcome.stats["slow_faults"] = slow_ids
        rewrites = [f.fault_id for f in triggered if f.effect == "rewrite"]
        if rewrites:
            outcome.stats["rewrite_faults"] = rewrites
            if not outcome.reason:
                outcome.reason = "fault:" + rewrites[0]
        return outcome

    def check(self, source):
        from repro.smtlib.parser import parse_script

        script = parse_script(source) if isinstance(source, str) else source
        return self.check_script(script)

    def check_result(self, source):
        return self.check(source).result


def _bogus_model(script):
    """A default-valued 'model' for a bogus sat answer (incorrect, like
    the wrong models the paper shows solvers printing)."""
    from repro.semantics.model import Model

    model = Model()
    for var in script.free_variables():
        model[var.name] = default_value(var.sort)
    return model


# ---------------------------------------------------------------------------
# Demo rewrite effects (realistic root causes)
# ---------------------------------------------------------------------------


def _rewrite_toint_empty(term):
    """Unsound: treat ``str.to.int ""`` as 0 (Figure 13b's root cause)."""
    if isinstance(term, App):
        args = tuple(_rewrite_toint_empty(a) for a in term.args)
        term = mk_app(term.op, args, term.sort)
        if term.op == "str.to.int":
            inner = term.args[0]
            is_empty = mk("=", inner, mk_const("", STRING))
            return mk("ite", is_empty, mk_const(0, INT), term)
    return term


def _rewrite_replace_var(term):
    """Unsound: ``str.replace s pat rep`` with a variable pattern is
    simplified to ``s`` (assumes the pattern never occurs)."""
    if isinstance(term, App):
        args = tuple(_rewrite_replace_var(a) for a in term.args)
        term = mk_app(term.op, args, term.sort)
        if term.op == "str.replace" and isinstance(term.args[1], Var):
            return term.args[0]
    return term


def _rewrite_bv_negnot(term):
    """Unsound: ``bvneg x`` is folded to ``bvnot x`` — the classic
    two's-complement rewrite bug that forgets the ``+1``."""
    if isinstance(term, App):
        args = tuple(_rewrite_bv_negnot(a) for a in term.args)
        term = mk_app(term.op, args, term.sort)
        if term.op == "bvneg":
            return mk("bvnot", term.args[0])
    return term


def _rewrite_bv_ult_ule(term):
    """Unsound: ``bvult`` is weakened to ``bvule`` (strictness lost in
    a comparator simplification)."""
    if isinstance(term, App):
        args = tuple(_rewrite_bv_ult_ule(a) for a in term.args)
        term = mk_app(term.op, args, term.sort)
        if term.op == "bvult":
            return mk("bvule", term.args[0], term.args[1])
    return term


_REWRITES = {
    "demo-toint-empty": _rewrite_toint_empty,
    "demo-replace-var": _rewrite_replace_var,
    "z3-bv-negnot": _rewrite_bv_negnot,
    "cvc4-bv-ult-ule": _rewrite_bv_ult_ule,
}


def _apply_rewrite(fault_id, script):
    rewrite = _REWRITES.get(fault_id)
    if rewrite is None:
        return script
    return script.with_asserts([rewrite(t) for t in script.asserts])


declare_module_probes(__file__)
