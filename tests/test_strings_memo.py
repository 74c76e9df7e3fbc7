"""The string solver's per-call literal verdict memo.

``check_strings`` decides each closed literal once per assignment of
its variables. A memo hit replays the verdict a fold would have
produced, so every journal byte and every fired coverage probe must be
what the solver produced before it memoized anything.

The goldens below were recorded before the memo existed: the journal
sha256s of small deterministic fusion campaigns over the string
families, with triage on, and the fired probe set of one of them.
"""

import hashlib
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

# The QF_SLIA campaign (incremental) under Telemetry(coverage=True):
# kind -> the sorted ids of every probe it fired.
GOLDEN_FIRED = {
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


class TestJournalGoldens:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("family", sorted(GOLDEN_CAMPAIGNS))
    def test_journal_matches_golden(self, family, incremental, tmp_path):
        path = tmp_path / "journal.jsonl"
        _string_campaign(family, incremental, journal=path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(family, incremental)]


class TestCoverageGolden:
    def test_fired_probe_set_matches_golden(self):
        with Telemetry(coverage=True) as tel:
            _string_campaign("QF_SLIA", telemetry=tel)
            sets = tel.snapshot()["sets"]
        fired = {
            kind: sorted(sets[f"coverage.{kind}.fired"]) for kind in GOLDEN_FIRED
        }
        assert fired == GOLDEN_FIRED


A, B, C = (b.string_var(name) for name in "abc")

# Three free string variables, enumerated in the order a, b, c (equal
# occurrence counts, so names break the tie), and a first literal over
# ``a`` alone: the pruner meets it again at every node below each value
# of ``a``. The solution needs ab = ca with b != c.
LITERALS = [
    (b.prefixof(b.lift("x"), A), True),
    (b.eq(b.concat(A, B), b.concat(C, A)), True),
    (b.eq(B, C), False),
]

# (status, model) of check_strings(LITERALS), recorded before the memo.
PINNED_RESULT = ("sat", {"a": "x", "b": "0x", "c": "x0"})


class TestWorkSaved:
    def test_each_literal_assignment_folds_once_per_check(self, monkeypatch):
        # (literal, polarity, values of its variables) -> the number of
        # times the conflict pruner handed its fold to _residual_atom.
        # The fold alone no longer names the literal or the values, so
        # they are read from the pruner's frame; the leaf's own folds
        # (try_assignment) are not the memo's and are not counted.
        folds = Counter()
        residual_atom = strings._residual_atom

        def counting(folded, polarity):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "prune_conflict":
                term, assigned = caller.f_locals["term"], caller.f_locals["assigned"]
                values = tuple(
                    sorted((v.name, assigned[v.name]) for v in free_vars(term))
                )
                folds[(term, polarity, values)] += 1
            return residual_atom(folded, polarity)

        monkeypatch.setattr(strings, "_residual_atom", counting)

        def check():
            folds.clear()
            status, model = strings.check_strings(LITERALS)
            result = (status, {name: model[name] for name in model.names()})
            return result, Counter(folds)

        result, first = check()
        assert result == PINNED_RESULT
        assert max(first.values()) == 1
        assert sum(1 for key in first if key[0] == LITERALS[0][0]) > 1
        # The memo lives for one call: a second check folds it all again.
        assert check() == (result, first)
