"""QF_BV end-to-end: sorts, typecheck, bit-blasting, campaigns.

The bit-vector theory is the registry's proof of pluggability: it was
added without editing the campaign core, and these tests pin each layer
of the path — well-sortedness enforcement at construction, evaluator vs
bit-blasted-solver agreement, and a full fault-injection campaign
(fusion + opfuzz, ``--triage --incremental`` included) that finds every
injected BV fault with byte-identical journals across fleet shapes.
"""

import random
from dataclasses import replace

import pytest

from repro.campaign.runner import deterministic_bv_solvers, run_campaign
from repro.errors import SortError
from repro.seeds import build_corpus
from repro.seeds.bv_gen import generate_bv_seed
from repro.semantics.evaluator import evaluate
from repro.smtlib import builder as b
from repro.smtlib.bitvec import bv_const
from repro.smtlib.sorts import bitvec_sort, bitvec_width, is_bitvec
from repro.solver.solver import ReferenceSolver, SolverConfig
from repro.solver.strings import StringConfig


def _reference():
    # deterministic_bv_solvers' base recipe: step-counted budgets only.
    config = replace(
        SolverConfig.fast(),
        timeout_seconds=0.0,
        max_rounds=30,
        nonlinear_budget=120,
        strings=StringConfig(
            max_assignments=600, max_len_per_var=3, max_total_len=6
        ),
    )
    return ReferenceSolver(config)


# ---------------------------------------------------------------------------
# 1. Sorts and negative typechecking
# ---------------------------------------------------------------------------


class TestBitvecSorts:
    def test_widths_are_interned(self):
        assert bitvec_sort(8) is bitvec_sort(8)
        assert bitvec_sort(8) is not bitvec_sort(4)
        assert is_bitvec(bitvec_sort(8))
        assert bitvec_width(bitvec_sort(12)) == 12

    def test_width_mismatch_rejected(self):
        x8 = b.bv_var("x", 8)
        y4 = b.bv_var("y", 4)
        with pytest.raises(SortError):
            b.bvadd(x8, y4)
        with pytest.raises(SortError):
            b.bvult(x8, y4)
        with pytest.raises(SortError):
            b.eq(x8, y4)

    def test_non_bitvec_argument_rejected(self):
        with pytest.raises(SortError):
            b.bvadd(b.int_var("i"), b.int_var("j"))
        with pytest.raises(SortError):
            b.bvnot(b.bool_var("p"))

    def test_out_of_range_extract_rejected(self):
        x8 = b.bv_var("x", 8)
        with pytest.raises(SortError):
            b.bv_extract(8, 0, x8)  # high bit == width
        with pytest.raises(SortError):
            b.bv_extract(2, 5, x8)  # high < low
        with pytest.raises(SortError):
            b.bv_extract(-1, -2, x8)

    def test_extract_and_concat_widths(self):
        x8 = b.bv_var("x", 8)
        y4 = b.bv_var("y", 4)
        assert bitvec_width(b.bv_extract(5, 2, x8).sort) == 4
        assert bitvec_width(b.bv_concat(x8, y4).sort) == 12

    def test_constants_wrap_to_width(self):
        # bv_const is documented as ``value mod 2**width``: out-of-range
        # inputs wrap instead of raising, matching SMT-LIB's bv semantics.
        assert evaluate(bv_const(255, 8), None) == 255
        assert evaluate(bv_const(256, 8), None) == 0
        assert evaluate(bv_const(-1, 8), None) == 255


# ---------------------------------------------------------------------------
# 2. Evaluator vs bit-blasted solver agreement
# ---------------------------------------------------------------------------


class TestEvaluatorSolverAgreement:
    def test_labels_and_models_agree(self):
        # Each generated seed carries ground truth (sat ones a model);
        # the bit-blasting backend must agree, and the model it returns
        # must satisfy every assertion under the exact evaluator.
        solver = _reference()
        for i in range(30):
            oracle = "sat" if i % 2 == 0 else "unsat"
            seed = generate_bv_seed("QF_BV", oracle, random.Random(i))
            outcome = solver.check_script(seed.script)
            assert str(outcome.result) == oracle, f"seed {i}"
            if oracle == "sat":
                for term in seed.script.asserts:
                    assert evaluate(term, outcome.model) is True

    def test_modular_semantics(self):
        # 200 + 100 wraps to 44 in 8 bits: evaluator and blaster agree.
        solver = _reference()
        x = b.bv_var("x", 8)
        term = b.eq(b.bvadd(bv_const(200, 8), bv_const(100, 8)), x)
        assert evaluate(b.bvadd(bv_const(200, 8), bv_const(100, 8)), None) == 44
        from repro.smtlib.ast import Assert, CheckSat, DeclareFun, Script, SetLogic

        script = Script(
            [
                SetLogic("QF_BV"),
                DeclareFun("x", (), bitvec_sort(8)),
                Assert(term),
                CheckSat(),
            ]
        )
        outcome = solver.check_script(script)
        assert str(outcome.result) == "sat"
        assert outcome.model["x"] == 44


# ---------------------------------------------------------------------------
# 3. The QF_BV campaign: every fault found, byte-identical journals
# ---------------------------------------------------------------------------

_EXPECTED_FAULTS = {
    "z3-like": {
        "z3-bv-soundness-000",
        "z3-bv-soundness-001",
        "z3-bv-crash-000",
        "z3-bv-negnot",
    },
    "cvc4-like": {
        "cvc4-bv-soundness-000",
        "cvc4-bv-crash-000",
        "cvc4-bv-ult-ule",
    },
}

_CAMPAIGN = dict(
    iterations_per_cell=120,
    seed=0,
    performance_threshold=None,
    solver_factory=deterministic_bv_solvers,
    logic="QF_BV",
)


@pytest.fixture(scope="module")
def bv_corpora():
    return {"QF_BV": build_corpus("QF_BV", scale=0.05, seed=0)}


@pytest.fixture(scope="module")
def fusion_serial(bv_corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("bv") / "fusion-serial.jsonl"
    result = run_campaign(
        bv_corpora,
        journal=path,
        strategy="fusion",
        triage=True,
        incremental=True,
        **_CAMPAIGN,
    )
    return result, path.read_bytes()


@pytest.fixture(scope="module")
def opfuzz_serial(bv_corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("bv") / "opfuzz-serial.jsonl"
    result = run_campaign(
        bv_corpora,
        journal=path,
        strategy="opfuzz",
        triage=True,
        incremental=True,
        **_CAMPAIGN,
    )
    return result, path.read_bytes()


def _found(result):
    return {
        solver: {fault for fault in faults if fault}
        for solver, faults in result.found_faults().items()
    }


class TestBVCampaign:
    def test_union_finds_every_injected_fault(self, fusion_serial, opfuzz_serial):
        union = {"z3-like": set(), "cvc4-like": set()}
        for result, _ in (fusion_serial, opfuzz_serial):
            for solver, faults in _found(result).items():
                union[solver].update(faults)
        for solver, expected in _EXPECTED_FAULTS.items():
            assert union[solver] == expected

    def test_journal_meta_records_logic(self, fusion_serial):
        import json

        meta = json.loads(fusion_serial[1].splitlines()[0])
        assert meta["logic"] == "QF_BV"
        assert meta["triage"] == "hard@4:1/2,hopeless@9:1/8"

    def test_process_pool_matches_serial_bytes(
        self, bv_corpora, fusion_serial, tmp_path
    ):
        path = tmp_path / "fusion-process2.jsonl"
        result = run_campaign(
            bv_corpora,
            journal=path,
            strategy="fusion",
            triage=True,
            incremental=True,
            mode="process",
            workers=2,
            **_CAMPAIGN,
        )
        assert path.read_bytes() == fusion_serial[1]
        assert _found(result) == _found(fusion_serial[0])

    def test_opfuzz_process_pool_matches_serial_bytes(
        self, bv_corpora, opfuzz_serial, tmp_path
    ):
        path = tmp_path / "opfuzz-process3.jsonl"
        result = run_campaign(
            bv_corpora,
            journal=path,
            strategy="opfuzz",
            triage=True,
            incremental=True,
            mode="process",
            workers=3,
            **_CAMPAIGN,
        )
        assert path.read_bytes() == opfuzz_serial[1]
        assert _found(result) == _found(opfuzz_serial[0])
