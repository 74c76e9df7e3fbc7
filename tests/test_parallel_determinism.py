"""Cross-shard determinism suite: sharding must be invisible to the oracle.

The headline guarantee of the parallel campaign architecture: for a
fixed seed, both execution modes (serial and the process fleet) and
every worker count produce

- identical bug records (byte-for-byte on their serialized form),
- identical ``found_faults`` triage,
- identical deterministic summary counters, and
- byte-identical campaign journals.

If any of these ever diverges, parallelism has silently altered what
the campaign reports — the one failure mode a metamorphic testing tool
cannot tolerate.
"""

import glob
import json

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.config import YinYangConfig
from repro.core.yinyang import YinYang, merge_shard_reports, shard_indices
from repro.observability.telemetry import Telemetry
from repro.robustness.journal import serialize_bug_record
from repro.seeds import build_corpus

# deterministic_solvers: no wall-clock solver deadline, so a loaded CI
# machine cannot flip a borderline check to `unknown` in one mode only.
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
def baseline(corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "serial.jsonl"
    result = run_campaign(corpora, journal=path, **CAMPAIGN)
    return result, path.read_bytes()


@pytest.fixture(scope="module")
def process2(corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "process2.jsonl"
    result = run_campaign(
        corpora, journal=path, mode="process", workers=2, **CAMPAIGN
    )
    return result, path.read_bytes(), path


def records_of(result):
    return [json.dumps(serialize_bug_record(r), sort_keys=True) for r in result.records]


def fault_counts(result):
    return {
        solver: {fault: len(records) for fault, records in faults.items()}
        for solver, faults in result.found_faults().items()
    }


class TestFleetShapeDeterminism:
    """The cross-shape matrix (``fleet`` fixture): serial runs and
    process fleets of every worker count — including distinct
    work-stealing orders — produce the same records and the same
    journal bytes. This is the invariant every other suite leans on."""

    def test_records_and_journal_bytes_match_serial(
        self, corpora, baseline, tmp_path, fleet, run_fleet_campaign
    ):
        path = tmp_path / "fleet.jsonl"
        result = run_fleet_campaign(corpora, fleet, journal=path, **CAMPAIGN)
        assert records_of(result) == records_of(baseline[0])
        assert path.read_bytes() == baseline[1]


class TestThreadDeterminism:
    """Named for the retired thread mode; its 4-worker case now runs as
    supervised process shards (``TestProcessDeterminism`` uses 2)."""

    def test_counters_and_faults_match_serial(self, corpora, baseline):
        result = run_campaign(corpora, mode="process", workers=4, **CAMPAIGN)
        assert result.summary_counters() == baseline[0].summary_counters()
        assert fault_counts(result) == fault_counts(baseline[0])


class TestProcessDeterminism:
    def test_bug_records_match_serial(self, baseline, process2):
        assert records_of(process2[0]) == records_of(baseline[0])

    def test_counters_and_faults_match_serial(self, baseline, process2):
        assert process2[0].summary_counters() == baseline[0].summary_counters()
        assert fault_counts(process2[0]) == fault_counts(baseline[0])

    def test_journal_bytes_match_serial(self, baseline, process2):
        assert process2[1] == baseline[1]

    def test_sidecars_removed_after_completion(self, process2):
        # No file is left beside the journal: lease logs, ``.tmp``.
        assert glob.glob(f"{process2[2]}.*") == []

    def test_per_shard_counters_cover_every_cell(self, baseline, process2):
        result = process2[0]
        # Counters are per leased (family, oracle) cell, whose shards
        # ran every solver.
        assert set(result.shard_counters) == {key[1:] for key in baseline[0].reports}
        for key, shards in result.shard_counters.items():
            assert sum(c["iterations"] for c in shards) == CAMPAIGN[
                "iterations_per_cell"
            ]
            assert [c["shard"] for c in shards] == sorted(c["shard"] for c in shards)

class TestTelemetryInvisibility:
    """Telemetry is an observer: attaching it — metrics only or fully
    traced — must leave journal bytes, bug records and summaries
    untouched, in every mode and at every worker count. Anything else
    would mean observation perturbed the campaign's RNG streams or its
    durable output."""

    def _run(self, corpora, path, trace, mode="serial", workers=1):
        telemetry = Telemetry(trace=trace, profile=True)
        try:
            result = run_campaign(
                corpora,
                journal=path,
                mode=mode,
                workers=workers,
                telemetry=telemetry,
                **CAMPAIGN,
            )
            snapshot = telemetry.snapshot()
        finally:
            telemetry.close()
        return result, snapshot

    @pytest.mark.parametrize("trace", [False, True], ids=["metrics", "traced"])
    def test_serial_journal_bytes_unchanged(self, corpora, baseline, tmp_path, trace):
        path = tmp_path / "tel-serial.jsonl"
        result, _ = self._run(corpora, path, trace)
        assert path.read_bytes() == baseline[1]
        assert result.summary() == baseline[0].summary()
        assert records_of(result) == records_of(baseline[0])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_journal_bytes_unchanged(self, corpora, baseline, tmp_path, workers):
        # Named for the retired thread mode; its worker counts now run
        # as supervised process shards, here with metrics only (the
        # traced process runs are below).
        path = tmp_path / f"tel-thread{workers}.jsonl"
        result, _ = self._run(
            corpora, path, trace=False, mode="process", workers=workers
        )
        assert path.read_bytes() == baseline[1]
        assert result.summary_counters() == baseline[0].summary_counters()
        assert fault_counts(result) == fault_counts(baseline[0])

    def test_process_journal_bytes_unchanged(self, corpora, baseline, tmp_path):
        path = tmp_path / "tel-process2.jsonl"
        result, _ = self._run(corpora, path, trace=False, mode="process", workers=2)
        assert path.read_bytes() == baseline[1]
        assert result.summary_counters() == baseline[0].summary_counters()
        assert records_of(result) == records_of(baseline[0])

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 4])
    def test_process_traced_journal_bytes_unchanged(
        self, corpora, baseline, tmp_path, workers
    ):
        path = tmp_path / f"tel-process{workers}.jsonl"
        result, _ = self._run(
            corpora, path, trace=True, mode="process", workers=workers
        )
        assert path.read_bytes() == baseline[1]
        # summary() embeds the mode tag, so compare its mode-independent
        # ingredients instead.
        assert result.summary_counters() == baseline[0].summary_counters()
        assert fault_counts(result) == fault_counts(baseline[0])

    def test_process_trace_reports_print_phase(self, corpora, baseline, tmp_path):
        """Seeds cross to the workers as SMT-LIB text; the coordinator
        times that serialization as the print phase, so a traced
        lease-backed campaign accounts for it like any other phase."""
        path = tmp_path / "tel-print.jsonl"
        _, snapshot = self._run(corpora, path, trace=True, mode="process", workers=2)
        assert path.read_bytes() == baseline[1]
        assert snapshot["histograms"]["phase.print"]["count"] > 0

    def test_counters_agree_across_modes(self, corpora, tmp_path):
        """The merged process-mode counters equal the serial counters:
        shard snapshots merged by the parent lose and invent nothing.
        The fleet adds only its own wire counters (``fleet.*``)."""
        _, serial = self._run(corpora, tmp_path / "a.jsonl", trace=False)
        _, merged = self._run(
            corpora, tmp_path / "b.jsonl", trace=False, mode="process", workers=2
        )
        counters = merged["counters"]
        assert counters["fleet.leases"] > 0
        assert serial["counters"] == {
            name: value
            for name, value in counters.items()
            if not name.startswith("fleet.")
        }

    def test_counters_match_campaign_summary(self, corpora, baseline, tmp_path):
        """The registry's counters and the journal-derived summary agree
        on the shared quantities — two views of one campaign."""
        result, snapshot = self._run(corpora, tmp_path / "c.jsonl", trace=False)
        totals = result.summary_counters()
        counters = snapshot["counters"]
        # Each iteration draws one mutant for every solver, and every
        # solver's report counts it.
        solvers = len(result.catalogs)
        assert counters["iterations"] * solvers == totals["iterations"]
        assert counters["fused"] * solvers == totals["fused"]
        assert (
            counters.get("fusion_failures", 0) * solvers == totals["fusion_failures"]
        )
        bug_kinds = ("soundness", "crash", "performance", "unknown", "harness")
        assert (
            sum(counters.get(f"bugs.{kind}", 0) for kind in bug_kinds)
            == totals["bugs"]
        )


class _AlwaysUnsat:
    """Every fused sat formula becomes a soundness record (with script)."""

    name = "always-unsat"

    def check_script(self, script, directive=None, session=None):
        from repro.solver.result import CheckOutcome, SolverResult

        return CheckOutcome(SolverResult.UNSAT)


class TestShardingPrimitive:
    """run_cell is the unit the modes are built from: any partition of
    the index space merges back to the full run."""

    def _tool_and_run(self, corpora):
        seeds = corpora["QF_LIA"].by_oracle("sat")
        tool = YinYang(_AlwaysUnsat(), YinYangConfig(seed=9))
        work = tool.strategy.prepare(
            "sat", [s.script for s in seeds], [s.logic for s in seeds]
        )
        return lambda indices: tool.run_cell(work, indices)[0]

    def test_any_partition_merges_to_full_run(self, corpora):
        run = self._tool_and_run(corpora)
        full = run(range(10))
        for workers in (2, 3, 7):
            shards = [run(shard_indices(10, t, workers)) for t in range(workers)]
            merged = merge_shard_reports(shards)
            assert [serialize_bug_record(b) for b in merged.bugs] == [
                serialize_bug_record(b) for b in full.bugs
            ]
            assert merged.counters() == full.counters()

    def test_single_iteration_rebuilds_identically(self, corpora):
        # The gensym-collision regression: iteration k run in isolation
        # (as a process shard would) must produce the very script the
        # full run produced — fresh names must not shift with history.
        run = self._tool_and_run(corpora)
        full = run(range(8))
        by_iteration = {b.iteration: b for b in full.bugs}
        for k in (0, 3, 7):
            alone = run([k])
            assert len(alone.bugs) <= 1
            if alone.bugs:
                assert serialize_bug_record(alone.bugs[0]) == serialize_bug_record(
                    by_iteration[k]
                )

    def test_bug_records_carry_iteration_ids(self, corpora):
        run = self._tool_and_run(corpora)
        report = run(range(6))
        ids = [b.iteration for b in report.bugs]
        assert ids == sorted(ids)
        assert all(0 <= i < 6 for i in ids)
