"""Strategy-pipeline tests: the refactor must be invisible to fusion.

Three guarantees pinned here:

1. **Golden byte-identity** — the default fusion strategy reproduces
   the pre-refactor campaign journal byte-for-byte
   (``tests/golden/fusion_campaign_journal.jsonl``, generated on the
   commit *before* the strategy pipeline landed) across serial and
   process modes at several worker counts. The extraction of the
   loop into :class:`~repro.strategies.fusion.FusionStrategy` must be
   draw-for-draw exact or these fail.
2. **OpFuzz well-typedness** — every operator-mutation mutant
   round-trips through print → parse (which typechecks), and every
   rewritten operator stays inside its type-equivalence class.
3. **OpFuzz end-to-end** — a second, differential-oracle workload runs
   through the whole stack (modes, resume, journaling, stats) with the
   same byte-determinism as fusion, and journals refuse to mix
   strategies.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.yinyang import YinYang, iteration_rng
from repro.errors import FusionError, MutationError
from repro.robustness.journal import JournalError, serialize_bug_record
from repro.seeds import build_corpus
from repro.smtlib.parser import parse_script
from repro.smtlib.printer import print_script
from repro.smtlib.typecheck import (
    mutation_alternatives,
    operator_equivalence_classes,
)
from repro.strategies import (
    ConcatFuzzStrategy,
    FusionStrategy,
    MixedFusionStrategy,
    OpFuzzStrategy,
    iter_strategies,
    make_strategy,
    register_strategy,
    strategy_names,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "fusion_campaign_journal.jsonl"

# Identical to the parameters the golden journal was generated with
# (and to tests/test_parallel_determinism.py — machine-independent).
CAMPAIGN = dict(
    iterations_per_cell=8,
    seed=6,
    performance_threshold=None,
    solver_factory=deterministic_solvers,
)


@pytest.fixture(scope="module")
def corpora():
    return {
        "QF_S": build_corpus("QF_S", scale=0.0015, seed=5),
        "QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5),
    }


@pytest.fixture(scope="module")
def lia_corpus():
    return build_corpus("QF_LIA", scale=0.003, seed=5)


# ---------------------------------------------------------------------------
# 1. Fusion reproduces the pre-refactor journal byte-for-byte
# ---------------------------------------------------------------------------


class TestFusionGoldenJournal:
    def test_serial_matches_pre_refactor_bytes(self, corpora, tmp_path):
        path = tmp_path / "serial.jsonl"
        run_campaign(corpora, journal=path, **CAMPAIGN)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_matches_pre_refactor_bytes(self, corpora, tmp_path, workers):
        # Named for the retired thread mode; its worker counts now run
        # as supervised process shards.
        path = tmp_path / f"thread{workers}.jsonl"
        run_campaign(
            corpora, journal=path, mode="process", workers=workers, **CAMPAIGN
        )
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_process_matches_pre_refactor_bytes(self, corpora, tmp_path):
        path = tmp_path / "process2.jsonl"
        run_campaign(
            corpora, journal=path, mode="process", workers=2, **CAMPAIGN
        )
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.slow
    def test_process_four_workers_matches_pre_refactor_bytes(
        self, corpora, tmp_path
    ):
        path = tmp_path / "process4.jsonl"
        run_campaign(
            corpora, journal=path, mode="process", workers=4, **CAMPAIGN
        )
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_explicit_fusion_name_is_the_default(self, corpora, tmp_path):
        path = tmp_path / "named.jsonl"
        run_campaign(corpora, journal=path, strategy="fusion", **CAMPAIGN)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_fusion_journal_has_no_strategy_key(self):
        lines = [json.loads(l) for l in GOLDEN.read_text().splitlines()]
        meta = lines[0]
        assert meta["type"] == "meta"
        assert "strategy" not in meta
        for entry in lines[1:]:
            for bug in entry["report"]["bugs"]:
                assert "strategy" not in bug


# ---------------------------------------------------------------------------
# 2. The registry and the strategy protocol
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"fusion", "concatfuzz", "opfuzz"} <= set(strategy_names())

    def test_make_strategy_by_name(self):
        assert isinstance(make_strategy("fusion"), FusionStrategy)
        assert isinstance(make_strategy("concatfuzz"), ConcatFuzzStrategy)
        assert isinstance(make_strategy("opfuzz"), OpFuzzStrategy)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="fusion"):
            make_strategy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("fusion", lambda config: FusionStrategy(config))

    def test_describe_rows(self):
        for strategy in iter_strategies():
            name, seeds, kind, theories, summary = strategy.describe()
            assert name == strategy.name
            assert seeds >= 1
            assert kind in ("oracle-preserving", "differential")
            assert summary
            assert theories == "/".join(strategy.theories())

    def test_strategy_theories_from_registry(self):
        # Fusion requires registered fusion schemes; opfuzz requires
        # multi-member operator equivalence classes; concatfuzz works
        # over any value theory. All three value theories qualify today.
        for strategy in iter_strategies():
            theories = strategy.theories()
            assert {"arithmetic", "strings", "bitvectors"} <= set(theories)
            logics = strategy.logics()
            assert "QF_BV" in logics and "QF_SLIA" in logics

    def test_yinyang_accepts_name_instance_and_default(self, solver):
        assert isinstance(YinYang(solver).strategy, FusionStrategy)
        assert YinYang(solver, strategy="opfuzz").strategy.name == "opfuzz"
        inst = ConcatFuzzStrategy()
        assert YinYang(solver, strategy=inst).strategy is inst

    def test_fusion_error_is_a_mutation_error(self):
        # The generic loop catches MutationError; fusion raises
        # FusionError — the subclassing is what keeps both worlds.
        assert issubclass(FusionError, MutationError)


# ---------------------------------------------------------------------------
# 3. Type-equivalence classes and opfuzz well-typedness
# ---------------------------------------------------------------------------


class TestMutationAlternatives:
    def test_classes_have_at_least_two_members(self):
        for ops in operator_equivalence_classes():
            assert len(ops) >= 2

    def test_alternatives_exclude_self_and_stay_in_class(self):
        classes = {ops: set(ops) for ops in operator_equivalence_classes()}
        for ops, members in classes.items():
            for op in ops:
                alts = mutation_alternatives(op, 2)
                assert op not in alts
                assert set(alts) <= members - {op}

    def test_expected_pairs_are_classmates(self):
        assert "<=" in mutation_alternatives("<", 2)
        assert "or" in mutation_alternatives("and", 2)
        assert "*" in mutation_alternatives("+", 2)
        # `-` supports unary negation, so its signature (and handler)
        # differs from +/*: not a classmate.
        assert mutation_alternatives("-", 2) == ()

    def test_implies_needs_two_args(self):
        # `not` is unary-only and (=> x) is ill-formed: at arity 1 the
        # class must not offer `=>`.
        assert "=>" not in mutation_alternatives("and", 1)
        assert "=>" in mutation_alternatives("and", 2)

    def test_unknown_op_has_no_alternatives(self):
        assert mutation_alternatives("frobnicate", 2) == ()


class TestOpFuzzWellTyped:
    """Property: every opfuzz mutant is well-sorted by construction."""

    def _mutants(self, corpus, count=40):
        strategy = OpFuzzStrategy()
        seeds = [s for s in corpus.seeds]
        scripts = [s.script for s in seeds]
        logics = [s.logic for s in seeds]
        work = strategy.prepare("", scripts, logics)
        out = []
        for index in range(count):
            rng = iteration_rng(99, index)
            try:
                mutant = strategy.mutate(rng, work)
            except MutationError:
                continue
            out.append((index, mutant))
        return out

    def test_mutants_roundtrip_through_typechecking_parser(self, lia_corpus):
        mutants = self._mutants(lia_corpus)
        assert mutants, "no opfuzz mutants produced"
        for _index, mutant in mutants:
            text = print_script(mutant.script)
            # parse_script typechecks as it parses: an ill-sorted
            # mutant cannot round-trip.
            reparsed = parse_script(text)
            assert print_script(reparsed) == text

    def test_mutated_operators_change_and_stay_in_class(self, lia_corpus):
        for _index, mutant in self._mutants(lia_corpus):
            assert mutant.schemes
            for label in mutant.schemes:
                old, new = label.split("->")
                assert old != new
                assert new in mutation_alternatives(old, 2) or new in (
                    mutation_alternatives(old, 1)
                )

    def test_mutant_differs_from_seed(self, lia_corpus):
        scripts = [s.script for s in lia_corpus.seeds]
        for _index, mutant in self._mutants(lia_corpus):
            i, _j = mutant.seed_indices
            assert print_script(mutant.script) != print_script(scripts[i])

    def test_mutation_is_deterministic(self, lia_corpus):
        one = self._mutants(lia_corpus)
        two = self._mutants(lia_corpus)
        assert [(i, print_script(m.script)) for i, m in one] == [
            (i, print_script(m.script)) for i, m in two
        ]

    def test_strategy_stamp(self, lia_corpus):
        for _index, mutant in self._mutants(lia_corpus, count=10):
            assert mutant.strategy == "opfuzz"


# ---------------------------------------------------------------------------
# 4. OpFuzz end-to-end: modes, resume, journal hygiene, stats
# ---------------------------------------------------------------------------

OPFUZZ_CAMPAIGN = dict(CAMPAIGN, strategy="opfuzz")


@pytest.fixture(scope="module")
def opfuzz_baseline(lia_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("opfuzz") / "serial.jsonl"
    result = run_campaign({"QF_LIA": lia_corpus}, journal=path, **OPFUZZ_CAMPAIGN)
    return result, path.read_bytes()


class TestOpFuzzEndToEnd:
    def test_serial_runs_and_journals(self, opfuzz_baseline):
        result, blob = opfuzz_baseline
        assert result.strategy == "opfuzz"
        assert result.fused_total > 0
        meta = json.loads(blob.decode().splitlines()[0])
        assert meta["strategy"] == "opfuzz"

    def test_records_stamped_with_strategy(self, opfuzz_baseline):
        result, blob = opfuzz_baseline
        for record in result.records:
            assert record.strategy == "opfuzz"
            assert serialize_bug_record(record).get("strategy") == "opfuzz"
        for line in blob.decode().splitlines()[1:]:
            for bug in json.loads(line)["report"]["bugs"]:
                assert bug["strategy"] == "opfuzz"

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_matches_serial_bytes(
        self, lia_corpus, opfuzz_baseline, tmp_path, workers
    ):
        # Named for the retired thread mode; its worker counts now run
        # as supervised process shards.
        path = tmp_path / f"thread{workers}.jsonl"
        run_campaign(
            {"QF_LIA": lia_corpus},
            journal=path,
            mode="process",
            workers=workers,
            **OPFUZZ_CAMPAIGN,
        )
        assert path.read_bytes() == opfuzz_baseline[1]

    def test_process_matches_serial_bytes(
        self, lia_corpus, opfuzz_baseline, tmp_path
    ):
        path = tmp_path / "process2.jsonl"
        result = run_campaign(
            {"QF_LIA": lia_corpus},
            journal=path,
            mode="process",
            workers=2,
            **OPFUZZ_CAMPAIGN,
        )
        assert path.read_bytes() == opfuzz_baseline[1]
        assert result.summary_counters() == opfuzz_baseline[0].summary_counters()

    def test_resume_skips_completed_cells(self, lia_corpus, tmp_path):
        path = tmp_path / "resume.jsonl"
        first = run_campaign(
            {"QF_LIA": lia_corpus}, journal=path, **OPFUZZ_CAMPAIGN
        )
        blob = path.read_bytes()
        resumed = run_campaign(
            {"QF_LIA": lia_corpus}, journal=path, resume=True, **OPFUZZ_CAMPAIGN
        )
        assert path.read_bytes() == blob
        assert resumed.summary_counters() == first.summary_counters()
        # All cells came from the journal: nothing was re-fuzzed.
        assert all(r.elapsed == 0.0 for r in resumed.reports.values())

    def test_resume_refuses_strategy_mismatch(self, lia_corpus, tmp_path):
        path = tmp_path / "mix.jsonl"
        run_campaign({"QF_LIA": lia_corpus}, journal=path, **OPFUZZ_CAMPAIGN)
        with pytest.raises(JournalError, match="opfuzz"):
            run_campaign(
                {"QF_LIA": lia_corpus}, journal=path, resume=True, **CAMPAIGN
            )

    def test_fusion_journal_refuses_opfuzz_resume(self, lia_corpus, tmp_path):
        path = tmp_path / "mix2.jsonl"
        run_campaign({"QF_LIA": lia_corpus}, journal=path, **CAMPAIGN)
        with pytest.raises(JournalError, match="fusion"):
            run_campaign(
                {"QF_LIA": lia_corpus},
                journal=path,
                resume=True,
                **OPFUZZ_CAMPAIGN,
            )

    def test_stats_renders_strategy(self, opfuzz_baseline, tmp_path):
        from repro.observability.stats import render_stats

        path = tmp_path / "stats.jsonl"
        path.write_bytes(opfuzz_baseline[1])
        text = render_stats(path)
        assert "strategy opfuzz" in text

    def test_telemetry_per_strategy_counter(self, lia_corpus):
        from repro.observability.telemetry import Telemetry

        telemetry = Telemetry()
        try:
            run_campaign(
                {"QF_LIA": lia_corpus}, telemetry=telemetry, **OPFUZZ_CAMPAIGN
            )
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.close()
        assert counters.get("mutants.opfuzz", 0) > 0
        assert "mutants.fusion" not in counters


# ---------------------------------------------------------------------------
# 5. ConcatFuzz and mixed fusion ride the same pipeline
# ---------------------------------------------------------------------------


class TestOtherStrategiesOnPipeline:
    def test_concatfuzz_campaign_is_deterministic(self, lia_corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(
            {"QF_LIA": lia_corpus},
            journal=a,
            strategy="concatfuzz",
            mode="process",
            workers=2,
            **CAMPAIGN,
        )
        run_campaign(
            {"QF_LIA": lia_corpus}, journal=b, strategy="concatfuzz", **CAMPAIGN
        )
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads(a.read_text().splitlines()[0])
        assert meta["strategy"] == "concatfuzz"

    def test_concatfuzz_draws_same_seed_pairs_as_fusion(self, lia_corpus):
        # RQ4's controlled comparison: at a fixed (seed, index), both
        # strategies must select the same seed pair.
        fusion, concat = FusionStrategy(), ConcatFuzzStrategy()
        scripts = [s.script for s in lia_corpus.by_oracle("sat")]
        logics = [""] * len(scripts)
        fw = fusion.prepare("sat", scripts, logics)
        cw = concat.prepare("sat", scripts, logics)
        for index in range(20):
            try:
                mf = fusion.mutate(iteration_rng(3, index), fw)
            except MutationError:
                continue
            mc = concat.mutate(iteration_rng(3, index), cw)
            assert mf.seed_indices == mc.seed_indices

    def test_mixed_fusion_records_carry_strategy(self, solver, lia_corpus):
        sat = lia_corpus.by_oracle("sat")
        unsat = lia_corpus.by_oracle("unsat")
        tool = YinYang(solver)
        report = tool.test_mixed("sat", sat, unsat, iterations=6)
        assert report.iterations == 6
        for bug in report.bugs:
            assert bug.strategy == "fusion-mixed"

    def test_mixed_fusion_rejects_bad_want(self):
        with pytest.raises(ValueError, match="want"):
            MixedFusionStrategy("maybe")


# ---------------------------------------------------------------------------
# 6. CLI surface
# ---------------------------------------------------------------------------


class TestStrategyCli:
    def test_strategies_subcommand_lists_builtins(self, capsys):
        from repro.cli import main

        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("fusion", "concatfuzz", "opfuzz"):
            assert name in out

    def test_test_subcommand_accepts_strategy(self, capsys):
        from repro.cli import main

        code = main(
            [
                "test",
                "--oracle",
                "sat",
                "--corpus",
                "QF_LIA",
                "--scale",
                "0.003",
                "--seed",
                "5",
                "--iterations",
                "4",
                "--strategy",
                "opfuzz",
                "--show",
                "0",
            ]
        )
        assert code == 0
        assert "iterations" in capsys.readouterr().out

    def test_campaign_parser_rejects_unknown_strategy(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--strategy", "does-not-exist"]
            )
