"""Layer spans for the traced run, recorded from outside the program.

:func:`install` replaces the public entry point of each layer with a
wrapper, at the name its caller looks it up (``repro.solver.dpllt.
preprocess`` and ``repro.solver.session.preprocess`` are two wrappers
around one function). A wrapper records a span -- name, start, end and
the span that was open when it started -- and a few counts read off the
call's arguments or result. Spans stay in memory until :meth:`Tracer.
dump` writes them once the campaign is over; :func:`analyse` turns
a dump into per-layer figures.

The campaign runs single-threaded in the traced process (serial mode),
so one stack of open spans is enough. The fleet twin (process mode) is
never traced: its solver runs in spawned workers that never see these
wrappers.
"""

from __future__ import annotations

import importlib
import json
import time

# Span name -> the per-layer metric its *self* time is reported under.
# Self times of all spans plus trace.unattributed_s add up to the wall
# time of the traced run_campaign calls.
SELF_TIME_METRICS = {
    "strategies.mutate": "strategies.mutate_s",
    "triage.route": "triage.route_s",
    "faults.check": "faults.slow_sleep_s",
    "faults.analyze": "faults.analyze_s",
    "solver.check": "solver.self_s",
    "session.build": "session.build_s",
    "dpllt.check": "dpllt.self_s",
    "preprocess": "preprocess.s",
    "tseitin.encode": "tseitin.encode_s",
    "sat.solve": "sat.solve_s",
    "nonlinear.check": "nonlinear.check_s",
    "nonlinear.atom_to_poly": "nonlinear.atom_to_poly_s",
    "linarith.check": "linarith.check_s",
    "strings.check": "strings.check_s",
    "bitblast.check": "bitblast.check_s",
    "checker.check_mutant": "checker.self_s",
    "journal.record": "journal.record_s",
}

# Span name -> the per-layer metric that counts its calls.
CALL_COUNT_METRICS = {
    "preprocess": "preprocess.calls",
    "nonlinear.check": "nonlinear.checks",
    "nonlinear.atom_to_poly": "nonlinear.atom_to_poly_calls",
    "linarith.check": "linarith.checks",
    "strings.check": "strings.checks",
    "bitblast.check": "bitblast.checks",
}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.names = []  # span name table; spans refer to it by index
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent span index or -1]
        self.stack = []  # indices of the open spans, innermost last
        self.counts = {}

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name):
        """Whether a span called ``name`` is open (on the stack)."""
        name_id = self._name_ids.get(name)
        return name_id is not None and any(
            self.spans[i][0] == name_id for i in self.stack
        )

    def wrap(self, fn, name, after=None, before=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args)`` runs at entry and its return value is handed to
        ``after(args, result, token, error)``, which runs at exit, inside
        the span's parent context, whether or not ``fn`` raised.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
                if after is not None:
                    after(args, result, token, error)

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts},
                handle,
            )


def _resolve(target):
    """The object holding dotted ``target`` (a module or a class), and its
    attribute name."""
    module_name, _, attr = target.rpartition(".")
    try:
        return importlib.import_module(module_name), attr
    except ModuleNotFoundError:
        module_name, _, class_name = module_name.rpartition(".")
        return getattr(importlib.import_module(module_name), class_name), attr


def install():
    """Wrap every traced layer; returns the process's :class:`Tracer`."""
    from repro.core.checker import UNKNOWN_BUDGET, unknown_kind
    from repro.errors import MutationError

    tracer = Tracer()
    count = tracer.count

    def after_mutate(args, result, token, error):
        if isinstance(error, MutationError):
            count("strategies.mutation_failures")
        elif error is None:
            count("strategies.mutants")

    def after_route(args, result, token, error):
        if error is None:
            count("triage." + result[0])

    def after_faulty(args, result, token, error):
        count("faults.triggered", len(args[0].last_triggered))

    def after_check(args, result, token, error):
        if error is not None or tracer.inside("strategies.mutate"):
            return  # oracle solves are strategies.oracle_solve_s
        count("solver.checks")
        verdict = result.result.value
        if verdict == "unknown":
            kind = unknown_kind(result.reason, result.stats)
            verdict = "unknown_budget" if kind == UNKNOWN_BUDGET else "unknown_genuine"
        count("solver." + verdict)

    def after_lookup(prefix):
        def after(args, result, token, error):
            count(prefix + (".hit" if result is not None else ".miss"))

        return after

    def after_warm(args, result, token, error):
        if result is not None:
            count("session.warm_starts")

    def after_encode(args, result, token, error):
        count("tseitin.clauses", len(args[1].clauses) - token)

    def before_sat(args):
        sat = args[0]
        return sat.conflicts, sat.decisions, sat.propagations

    def after_sat(args, result, token, error):
        sat = args[0]
        prefix = "bitblast.sat" if tracer.inside("bitblast.check") else "sat"
        count(prefix + ".calls")
        count(prefix + ".conflicts", sat.conflicts - token[0])
        count(prefix + ".decisions", sat.decisions - token[1])
        count(prefix + ".propagations", sat.propagations - token[2])

    def after_strings(args, result, token, error):
        if error is None and result[0] == "unknown":
            count("strings.unknown")

    patches = [
        ("repro.strategies.fusion.FusionStrategy.mutate", "strategies.mutate", after_mutate, None),
        ("repro.strategies.opfuzz.OpFuzzStrategy.mutate", "strategies.mutate", after_mutate, None),
        ("repro.campaign.triage.TriagePolicy.route", "triage.route", after_route, None),
        ("repro.faults.faulty_solver.FaultySolver.check_script", "faults.check", after_faulty, None),
        ("repro.faults.faulty_solver.analyze_script", "faults.analyze", None, None),
        ("repro.solver.solver.ReferenceSolver.check_script", "solver.check", after_check, None),
        ("repro.solver.session.SolverSession.__init__", "session.build", None, None),
        ("repro.solver.solver.check_assertions", "dpllt.check", None, None),
        ("repro.solver.dpllt.preprocess", "preprocess", None, None),
        ("repro.solver.session.preprocess", "preprocess", None, None),
        ("repro.solver.tseitin.encode", "tseitin.encode", after_encode, lambda a: len(a[1].clauses)),
        ("repro.solver.sat.SatSolver.solve", "sat.solve", after_sat, before_sat),
        ("repro.solver.nonlinear.check_nonlinear", "nonlinear.check", None, None),
        ("repro.solver.nonlinear.atom_to_poly", "nonlinear.atom_to_poly", None, None),
        ("repro.solver.strings._residual_atom", "nonlinear.atom_to_poly", None, None),
        ("repro.solver.linarith.check_linear", "linarith.check", None, None),
        ("repro.solver.strings.check_linear", "linarith.check", None, None),
        ("repro.solver.strings.check_strings", "strings.check", after_strings, None),
        ("repro.solver.bitblast.check_bv", "bitblast.check", None, None),
        ("repro.core.yinyang.check_mutant", "checker.check_mutant", None, None),
        ("repro.robustness.journal.CampaignJournal.record_cell", "journal.record", None, None),
    ]
    for target, name, after, before in patches:
        owner, attr = _resolve(target)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after, before))
    # Counts only: cache lookups are too brief to be worth a span, and
    # theory dispatch time already shows in the theory solvers' spans.
    counted = [
        ("repro.solver.session.SolverSession.lookup_outcome", after_lookup("session.outcome")),
        ("repro.solver.session.SolverSession.theory_lookup", after_lookup("session.theory")),
        ("repro.solver.session.SolverSession.warm_start", after_warm),
        ("repro.solver.session.SolverSession.note_warm_decided", lambda *a: count("session.warm_decided")),
        ("repro.solver.dpllt._check_theory", lambda *a: count("dpllt.theory_checks")),
    ]
    for target, after in counted:
        owner, attr = _resolve(target)
        setattr(owner, attr, _counting(getattr(owner, attr), after))
    return tracer


def _counting(fn, after):
    """``fn`` calling ``after(args, result, None, None)`` on each return."""

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result, None, None)
        return result

    return counted


def analyse(dump):
    """Self times, call counts and inclusive solver times of one dump."""
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ids = {name: name_id for name_id, name in enumerate(names)}
    mutate_id = ids.get("strategies.mutate", -1)
    bitblast_id = ids.get("bitblast.check", -1)
    sat_id = ids.get("sat.solve", -1)
    check_id = ids.get("solver.check", -1)

    def under(index, name_id):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name_id:
                return True
            parent = spans[parent][3]
        return False

    out = dict(dump["counts"])
    for index, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        metric = SELF_TIME_METRICS[name]
        if name_id == sat_id and under(index, bitblast_id):
            metric = "bitblast.sat_s"
        out[metric] = out.get(metric, 0.0) + (end - start) - child_time[index]
        calls = CALL_COUNT_METRICS.get(name)
        if calls:
            out[calls] = out.get(calls, 0) + 1
        if name_id == check_id:
            if under(index, mutate_id):
                out["strategies.oracle_solves"] = out.get("strategies.oracle_solves", 0) + 1
                inclusive = "strategies.oracle_solve_s"
            else:
                inclusive = "solver.check_s"
            out[inclusive] = out.get(inclusive, 0.0) + (end - start)
    return out


def self_time_total(figures):
    """The sum of every layer's self time in ``figures``."""
    metrics = set(SELF_TIME_METRICS.values()) | {"bitblast.sat_s"}
    return sum(figures.get(m, 0.0) for m in metrics)
