"""The string solver's conflict pruner and its per-call verdict memo.

``check_strings`` decides each closed literal once per assignment of
its variables, by a compiled closure or by a fold, and each DFS node
checks only the literals it closed. A memo hit replays the verdict an
evaluation would have produced, and a closure gives the verdict of the
fold it replaces, so every journal byte, every check's answer and every
fired coverage probe must be what the solver produced before either.

The journal sha256s of small deterministic fusion campaigns over the
string families, with triage on, and the QF_SLIA campaign's fired probe
set were recorded before the memo existed. The other families' fired
probe sets and the ``(status, model)`` of every ``check_strings`` call
of each campaign were recorded before the pruner compiled literals to
closures, so a change to the pruner is checked per check, not only per
journal.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.observability.telemetry import Telemetry
from repro.seeds import build_corpus
from repro.smtlib import builder as b
from repro.smtlib.ast import free_vars
from repro.solver import strings

# family -> (corpus scale, corpus seed, iterations per cell, campaign seed)
GOLDEN_CAMPAIGNS = {
    "QF_S": (0.002, 5, 6, 5),
    "QF_SLIA": (0.001, 5, 3, 5),
    "StringFuzz": (0.001, 5, 3, 5),
}

# (family, incremental) -> journal sha256
GOLDEN_SHA256 = {
    ("QF_S", True): "b00ea63e496173966935919916316b6d47560f74b4ad9283ca0138401ed7c09b",
    ("QF_S", False): "8e7c60cf0306bf815c3e8e795f6c9fdc2265c4e1857df3eb437dcbf2dbb2e042",
    ("QF_SLIA", True): "4cf95c4a4c7b8b774de72cc7d6c801acaf1b283340f7570fea784a61342be461",
    ("QF_SLIA", False): "afa5c789c897f94f0ff804bbdf97521d669a0d9443f7e6585e44d4fae3356d2b",
    ("StringFuzz", True): "012fe7ec5838adb37325705cc4afa2da7621c916e8647ea4767d0340e08797a2",
    ("StringFuzz", False): "8a6c881c1302c8bc7150fcf208e95a1df4d8b3d1c04c2820e3c58c9153905465",
}

# Every family's campaign (incremental) under Telemetry(coverage=True):
# family -> kind -> the sorted ids of every probe it fired.
GOLDEN_FIRED = {
    "QF_S": {
        "branch": [
            "dpllt.quantified_residue:F",
            "dpllt.uses_strings:T",
            "linarith.integral:T",
            "sat.solve.toplevel_conflict:F",
            "sat.solve.toplevel_conflict:T",
            "simplex.check.no_pivot:F",
            "strings.length_abstraction_unsat:F",
        ],
        "function": [
            "dpllt.check",
            "dpllt.check_theory",
            "dpllt.guess_model",
            "faulty.check",
            "linarith.check_linear",
            "preprocess.run",
            "sat.add_clause",
            "sat.analyze",
            "sat.propagate",
            "sat.solve",
            "simplex.assert_atom",
            "simplex.check",
            "strings.check",
            "tseitin.build",
        ],
        "line": [
            "dpllt.theory_unknown",
            "dpllt.unsat_but_unknown",
            "eval.<=",
            "eval.=",
            "eval.and",
            "eval.or",
            "eval.re.allchar",
            "eval.str.++",
            "eval.str.contains",
            "eval.str.in.re",
            "eval.str.len",
            "eval.str.prefixof",
            "eval.str.replace",
            "eval.str.substr",
            "eval.str.suffixof",
            "eval.str.to.int",
            "faulty.answer",
            "faulty.slow",
            "preprocess.eliminate_definition",
            "sat.propagate.conflict",
            "sat.propagate.moved_watch",
            "sat.solve.sat",
            "simplex.check.sat",
            "strings.budget_exhausted",
            "strings.unknown",
            "tseitin.and",
            "tseitin.or",
        ],
    },
    "QF_SLIA": {
        "branch": [
            "dpllt.model_ok:T",
            "dpllt.quantified_residue:F",
            "dpllt.uses_strings:T",
            "linarith.integral:F",
            "linarith.integral:T",
            "nonlinear.all_linear:T",
            "sat.solve.toplevel_conflict:F",
            "sat.solve.toplevel_conflict:T",
            "simplex.check.no_pivot:F",
            "strings.length_abstraction_unsat:F",
        ],
        "function": [
            "dpllt.assemble_model",
            "dpllt.check",
            "dpllt.check_theory",
            "dpllt.guess_model",
            "faulty.check",
            "linarith.check_linear",
            "nonlinear.check",
            "nonlinear.linear_with_diseq",
            "preprocess.run",
            "sat.add_clause",
            "sat.analyze",
            "sat.propagate",
            "sat.solve",
            "simplex.assert_atom",
            "simplex.check",
            "strings.check",
            "tseitin.build",
        ],
        "line": [
            "dpllt.round_budget",
            "dpllt.sat_verified",
            "dpllt.theory_unknown",
            "dpllt.unsat_but_unknown",
            "eval.-",
            "eval.<=",
            "eval.=",
            "eval.and",
            "eval.or",
            "eval.re.allchar",
            "eval.str.++",
            "eval.str.contains",
            "eval.str.in.re",
            "eval.str.len",
            "eval.str.prefixof",
            "eval.str.replace",
            "eval.str.substr",
            "eval.str.suffixof",
            "eval.str.to.int",
            "eval.str.to.re",
            "faulty.answer",
            "faulty.crash",
            "faulty.unknown",
            "linarith.branch",
            "preprocess.eliminate_definition",
            "sat.propagate.conflict",
            "sat.propagate.moved_watch",
            "sat.solve.sat",
            "simplex.check.sat",
            "strings.budget_exhausted",
            "strings.sat_found",
            "strings.unknown",
            "tseitin.and",
            "tseitin.or",
        ],
    },
    "StringFuzz": {
        "branch": [
            "dpllt.quantified_residue:F",
            "dpllt.uses_strings:T",
            "linarith.integral:T",
            "sat.solve.toplevel_conflict:F",
            "sat.solve.toplevel_conflict:T",
            "simplex.check.no_pivot:F",
            "strings.length_abstraction_unsat:F",
        ],
        "function": [
            "dpllt.check",
            "dpllt.check_theory",
            "dpllt.guess_model",
            "faulty.check",
            "linarith.check_linear",
            "preprocess.run",
            "sat.add_clause",
            "sat.analyze",
            "sat.propagate",
            "sat.solve",
            "simplex.assert_atom",
            "simplex.check",
            "strings.check",
            "tseitin.build",
        ],
        "line": [
            "dpllt.theory_unknown",
            "dpllt.unsat_but_unknown",
            "eval.<=",
            "eval.=",
            "eval.>=",
            "eval.and",
            "eval.or",
            "eval.re.allchar",
            "eval.str.++",
            "eval.str.in.re",
            "eval.str.len",
            "eval.str.replace",
            "eval.str.substr",
            "faulty.answer",
            "faulty.crash",
            "faulty.slow",
            "preprocess.eliminate_definition",
            "sat.propagate.conflict",
            "sat.propagate.moved_watch",
            "sat.solve.sat",
            "simplex.check.sat",
            "strings.budget_exhausted",
            "strings.unknown",
            "tseitin.and",
            "tseitin.or",
        ],
    },
}

# family -> [check_strings calls, sha256 of their (status, model) records
# in call order] of the family's campaign (incremental).
GOLDEN_CHECKS = {
    "QF_S": [24, "e02e1d8f9767930392a82ba4573952401528fe2cbed140d6df5a86760d7521db"],
    "QF_SLIA": [32, "4a793fc6806e67bf704dbd2618bf92e130a2fd5ccae1f74b2b1f761e13dbb34a"],
    "StringFuzz": [13, "0a05a6535dda270e07fae6b05588e06b456921b845ed9d86ec3adb82d9faa8a3"],
}


def _string_campaign(family, incremental=True, **extra):
    scale, corpus_seed, iterations, seed = GOLDEN_CAMPAIGNS[family]
    corpora = {family: build_corpus(family, scale=scale, seed=corpus_seed)}
    return run_campaign(
        corpora,
        iterations_per_cell=iterations,
        seed=seed,
        performance_threshold=None,
        solver_factory=deterministic_solvers,
        strategy="fusion",
        triage=True,
        incremental=incremental,
        **extra,
    )


def _check_record(status, model):
    values = None if model is None else sorted((n, repr(v)) for n, v in model.items())
    return [status, values]


def check_digest(family, monkeypatch):
    """Run the family's golden campaign, hashing the ``(status, model)``
    of every ``check_strings`` call in call order; ``[calls, sha256]``."""
    digest = hashlib.sha256()
    calls = 0
    check_strings = strings.check_strings

    def recording(*args, **kwargs):
        nonlocal calls
        status, model = check_strings(*args, **kwargs)
        calls += 1
        digest.update(json.dumps(_check_record(status, model)).encode() + b"\n")
        return status, model

    monkeypatch.setattr(strings, "check_strings", recording)
    _string_campaign(family)
    return [calls, digest.hexdigest()]


class TestJournalGoldens:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("family", sorted(GOLDEN_CAMPAIGNS))
    def test_journal_matches_golden(self, family, incremental, tmp_path):
        path = tmp_path / "journal.jsonl"
        _string_campaign(family, incremental, journal=path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(family, incremental)]


class TestCheckGoldens:
    @pytest.mark.parametrize("family", sorted(GOLDEN_CAMPAIGNS))
    def test_every_check_matches_golden(self, family, monkeypatch):
        assert check_digest(family, monkeypatch) == GOLDEN_CHECKS[family]


class TestCoverageGolden:
    def test_fired_probe_set_matches_golden(self):
        for family, golden in GOLDEN_FIRED.items():
            with Telemetry(coverage=True) as tel:
                _string_campaign(family, telemetry=tel)
                sets = tel.snapshot()["sets"]
            fired = {kind: sorted(sets[f"coverage.{kind}.fired"]) for kind in golden}
            assert fired == golden, family


A, B, C = (b.string_var(name) for name in "abc")

# Three free string variables, enumerated in the order a, b, c (equal
# occurrence counts, so names break the tie), and a first literal over
# ``a`` alone: it closes at each value of ``a`` and stays closed at every
# node below. The solution needs ab = ca with b != c.
LITERALS = [
    (b.prefixof(b.lift("x"), A), True),
    (b.eq(b.concat(A, B), b.concat(C, A)), True),
    (b.eq(B, C), False),
]

# (status, model) of check_strings(LITERALS), recorded before the memo.
PINNED_RESULT = ("sat", {"a": "x", "b": "0x", "c": "x0"})


class TestWorkSaved:
    def test_each_literal_assignment_is_evaluated_once_per_check(self, monkeypatch):
        # (literal, polarity, values of its variables) -> the number of
        # times the conflict pruner evaluated it: by the closure
        # _compile_literal built, or by the fold it falls back to, which
        # it hands to _residual_atom. Neither call names the values, so
        # they are read from the pruner's frame; the leaf's own folds
        # (try_assignment) are not the pruner's and are not counted.
        evaluations = Counter()
        # The names assigned at the DFS node of each evaluation of
        # literal 0, and whether literal 0 was among the literals
        # checked at the node of each evaluation of another literal.
        first_nodes = []
        first_checked_elsewhere = []

        def record(term, polarity, pruner):
            assigned = pruner.f_locals["assigned"]
            values = tuple(sorted((v.name, assigned[v.name]) for v in free_vars(term)))
            evaluations[(term, polarity, values)] += 1
            if term is LITERALS[0][0]:
                first_nodes.append(pruner.f_locals["new_names"])
            else:
                first_checked_elsewhere.append(0 in pruner.f_locals["indices"])

        compile_literal = strings._compile_literal

        def counting_compile(term, polarity):
            closure = compile_literal(term, polarity)
            if closure is None:
                return None

            def counted(values, model):
                verdict = closure(values, model)
                record(term, polarity, sys._getframe(1))
                return verdict

            return counted

        residual_atom = strings._residual_atom

        def counting_residual(folded, polarity):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "prune_conflict":
                record(caller.f_locals["term"], polarity, caller)
            return residual_atom(folded, polarity)

        monkeypatch.setattr(strings, "_compile_literal", counting_compile)
        monkeypatch.setattr(strings, "_residual_atom", counting_residual)

        def check():
            evaluations.clear()
            first_nodes.clear()
            first_checked_elsewhere.clear()
            status, model = strings.check_strings(LITERALS)
            result = (status, {name: model[name] for name in model.names()})
            return result, Counter(evaluations)

        result, first = check()
        assert result == PINNED_RESULT
        assert max(first.values()) == 1
        first_values = [key for key in first if key[0] == LITERALS[0][0]]
        assert len(first_values) > 1
        # Literal 0 is evaluated once per value of ``a``, at the node that
        # assigns it, and the nodes below never check it again.
        assert len(first_nodes) == len(first_values)
        assert all(names is not None and "a" in names for names in first_nodes)
        assert first_checked_elsewhere and not any(first_checked_elsewhere)
        # The memo lives for one call: a second check evaluates it all again.
        assert check() == (result, first)
