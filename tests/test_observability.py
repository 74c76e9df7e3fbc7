"""The observability layer's own test suite.

Three pillars, matching the design constraints in DESIGN.md §10:

1. **Merge laws** — snapshot merging is associative and commutative
   with the empty registry as identity, and folding any shard
   partition of an event stream equals accumulating it serially.
   Proven by Hypothesis property tests (integer-valued observations,
   so float addition cannot smuggle in order dependence).
2. **Hot-path hygiene** — no observability module imports ``random``
   (telemetry must never perturb the campaign's RNG streams), only the
   tracer reads the clock, and the steady-state instrumented path
   allocates nothing.
3. **Rendering** — the ``yinyang stats`` dashboard is pure: a
   fabricated journal plus a fabricated snapshot render byte-for-byte
   against a golden file (regenerate with ``REPRO_UPDATE_GOLDEN=1``).
"""

import ast
import gc
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.yinyang import BugRecord, YinYangReport
from repro.coverage.report import CoverageReport, coverage_counts
from repro.observability.metrics import (
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.observability.stats import coverage_rows, render_stats
from repro.observability.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetryConfig,
    attach_telemetry,
    load_snapshot,
    publish_coverage_session,
)
from repro.observability.trace import NULL_SPAN, PhaseTracer, phase_rows
from repro.robustness.journal import CampaignJournal

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OBSERVABILITY = SRC / "observability"
GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class TestMetricPrimitives:
    def test_counter_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_high_water(self):
        g = Gauge("g")
        g.set(3)
        g.track_max(1)
        assert g.value == 3
        g.track_max(9)
        assert g.value == 9

    def test_histogram_buckets_mean_quantile(self):
        h = Histogram("h", bounds=(1, 10, 100))
        for value in (0.5, 5, 5, 50, 5000):
            h.observe(value)
        assert h.counts == [1, 2, 1, 1]  # <=1, <=10, <=100, overflow
        assert h.count == 5
        assert h.mean == pytest.approx(5060.5 / 5)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 100  # overflow clamps to the last bound

    def test_empty_histogram_is_safe(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.quantile(0.9) == 0.0

    def test_registry_hands_out_stable_handles(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.value_set("d") is reg.value_set("d")

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a", 2)
        reg.value_set("s").update({"q", "p"})
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["sets"]["s"] == ["p", "q"]
        json.dumps(snap)  # must not raise

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("n", 7)
        reg.gauge("g").track_max(3)
        reg.histogram("h").observe(0.002)
        reg.value_set("s").add("x")
        assert MetricsRegistry.from_snapshot(reg.snapshot()).snapshot() == (
            reg.snapshot()
        )

    def test_histogram_bounds_mismatch_refused(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        snap = {"histograms": {"h": {"bounds": [1, 2, 3], "counts": [0] * 4,
                                     "sum": 0.0, "count": 0}}}
        with pytest.raises(ValueError):
            reg.merge_snapshot(snap)


# ---------------------------------------------------------------------------
# Merge laws (the shard-merge correctness argument)
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c"])

_HIST_SNAP = st.fixed_dictionaries(
    {
        "bounds": st.just(list(TIME_BUCKETS)),
        "counts": st.lists(
            st.integers(0, 20),
            min_size=len(TIME_BUCKETS) + 1,
            max_size=len(TIME_BUCKETS) + 1,
        ),
        # Integer-valued sums: float addition is exactly associative on
        # small integers, so the laws hold as dict equality.
        "sum": st.integers(0, 10**6).map(float),
        "count": st.integers(0, 100),
    }
)

_SNAPSHOTS = st.fixed_dictionaries(
    {
        "counters": st.dictionaries(_NAMES, st.integers(0, 1000)),
        "gauges": st.dictionaries(_NAMES, st.integers(0, 1000)),
        "histograms": st.dictionaries(
            st.sampled_from(["phase.x", "phase.y"]), _HIST_SNAP
        ),
        "sets": st.dictionaries(
            _NAMES,
            st.lists(st.sampled_from(["p", "q", "r"])).map(
                lambda vs: sorted(set(vs))
            ),
        ),
    }
)

# Events as a shardable stream: (kind, name, value).
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), _NAMES, st.integers(1, 5)),
        st.tuples(st.just("max"), _NAMES, st.integers(0, 100)),
        st.tuples(st.just("observe"), _NAMES, st.integers(0, 20)),
        st.tuples(st.just("add"), _NAMES, st.sampled_from(["p", "q", "r"])),
    ),
    max_size=60,
)


def _apply(registry, event):
    kind, name, value = event
    if kind == "inc":
        registry.inc(name, value)
    elif kind == "max":
        registry.gauge(name).track_max(value)
    elif kind == "observe":
        registry.histogram(name).observe(value)
    else:
        registry.value_set(name).add(value)


class TestMergeLaws:
    @given(a=_SNAPSHOTS, b=_SNAPSHOTS)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, a, b):
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    @given(a=_SNAPSHOTS, b=_SNAPSHOTS, c=_SNAPSHOTS)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    @given(a=_SNAPSHOTS)
    @settings(max_examples=60, deadline=None)
    def test_empty_registry_is_identity(self, a):
        empty = MetricsRegistry().snapshot()
        canonical = merge_snapshots([a])
        assert merge_snapshots([a, empty]) == canonical
        assert merge_snapshots([empty, a]) == canonical

    @given(events=_EVENTS, workers=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_shard_merge_equals_serial_accumulation(self, events, workers):
        """The invariant the process-mode parent relies on: round-robin
        sharding an event stream over k registries and merging their
        snapshots equals one registry seeing every event."""
        serial = MetricsRegistry()
        for event in events:
            _apply(serial, event)
        shards = [MetricsRegistry() for _ in range(workers)]
        for i, event in enumerate(events):
            _apply(shards[i % workers], event)
        merged = merge_snapshots([s.snapshot() for s in shards])
        assert merged == serial.snapshot()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_null_span_is_shared_and_inert(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN

    def test_span_records_into_phase_histogram(self):
        reg = MetricsRegistry()
        tracer = PhaseTracer(reg)
        with tracer.span("fuse"):
            pass
        hist = reg.histogram("phase.fuse")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_phase_rows_sorted_by_total_time(self):
        reg = MetricsRegistry()
        reg.histogram("phase.slow").observe(2.0)
        reg.histogram("phase.fast").observe(0.001)
        reg.histogram("unrelated").observe(9.0)
        rows = phase_rows(reg.snapshot())
        assert [r[0] for r in rows] == ["slow", "fast"]
        name, calls, total, mean, p90 = rows[0]
        assert calls == 1 and total == 2.0 and mean == 2.0 and p90 == 10.0


# ---------------------------------------------------------------------------
# Telemetry object
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_config_round_trip(self):
        tel = Telemetry(trace=True, profile=True)
        assert tel.config() == TelemetryConfig(trace=True, profile=True)
        clone = Telemetry.from_config(tel.config())
        assert clone.config() == tel.config()
        assert Telemetry.from_config(None) is None

    def test_phase_is_null_span_without_tracer(self):
        tel = Telemetry()
        assert tel.phase("anything") is NULL_SPAN

    def test_phase_records_with_tracer(self):
        tel = Telemetry(trace=True)
        with tel.phase("solve"):
            pass
        assert tel.snapshot()["histograms"]["phase.solve"]["count"] == 1

    def test_count_and_merge_strip_version(self):
        a, b = Telemetry(), Telemetry()
        a.count("iterations", 3)
        b.count("iterations", 4)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["iterations"] == 7
        assert "version" not in snap["counters"]

    def test_write_and_load_snapshot(self, tmp_path):
        tel = Telemetry()
        tel.count("fused", 5)
        path = tmp_path / "metrics.json"
        tel.write(path)
        snap = load_snapshot(path)
        assert snap["counters"]["fused"] == 5
        assert snap["version"] == 1

    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.count("x", 5)
        NULL_TELEMETRY.sample_term_tables()
        NULL_TELEMETRY.sample_guards([])
        assert NULL_TELEMETRY.phase("x") is NULL_SPAN

    def test_close_is_idempotent(self):
        tel = Telemetry(coverage=True)
        tel.close()
        tel.close()

    def test_context_manager_closes(self):
        from repro.coverage import probes

        with Telemetry(coverage=True) as tel:
            assert tel._coverage_session in probes._ACTIVE
        assert tel._coverage_session is None


class _Plain:
    pass


class _Wrapper:
    def __init__(self, base):
        self.base = base


class _Slotted:
    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base


class TestAttachTelemetry:
    def test_walks_wrapper_chains(self):
        inner = _Plain()
        outer = _Wrapper(_Wrapper(inner))
        tel = Telemetry()
        attach_telemetry([outer], tel)
        assert outer.telemetry is tel
        assert outer.base.telemetry is tel
        assert inner.telemetry is tel

    def test_slotted_layers_are_skipped_not_fatal(self):
        inner = _Plain()
        chain = _Wrapper(_Slotted(inner))
        tel = Telemetry()
        attach_telemetry([chain], tel)
        assert chain.telemetry is tel
        assert inner.telemetry is tel  # the walk continued past __slots__

    def test_cyclic_chains_terminate(self):
        a, b = _Plain(), _Plain()
        a.base, b.base = b, a
        tel = Telemetry()
        attach_telemetry([a], tel)
        assert a.telemetry is tel and b.telemetry is tel


# ---------------------------------------------------------------------------
# Hot-path hygiene: no RNG, clock only in the tracer, zero allocations
# ---------------------------------------------------------------------------


def _imports_of(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


class TestHotPathHygiene:
    @pytest.mark.parametrize(
        "path",
        sorted(OBSERVABILITY.glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_never_imports_random(self, path):
        """Telemetry must draw zero RNG values: if any observability
        module could reach ``random``, a future edit could silently
        perturb the campaign's per-iteration streams."""
        for name in _imports_of(path):
            assert name != "random" and not name.startswith("random."), (
                f"{path.name} imports random — telemetry must never touch RNG"
            )

    def test_only_the_tracer_reads_the_clock(self):
        for path in sorted(OBSERVABILITY.glob("*.py")):
            if path.name == "trace.py":
                continue
            for name in _imports_of(path):
                assert name != "time", (
                    f"{path.name} imports time — wall clock belongs to "
                    "trace.py alone, so metrics snapshots stay deterministic"
                )

    def test_steady_state_allocates_nothing(self):
        """The allocation smoke bound: after warm-up, the instrumented
        hot path (count + untraced phase) must not grow the allocated
        block count. Measured with gc off so a collection can't mask or
        fake a leak; the small slack absorbs allocator bookkeeping."""
        tel = Telemetry()
        null = NULL_TELEMETRY
        for _ in range(200):  # warm up: intern strings, build handles
            tel.count("iterations")
            with tel.phase("fuse"):
                pass
            null.count("iterations")
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(5000):
                tel.count("iterations")
                with tel.phase("fuse"):
                    pass
                null.count("iterations")
                with null.phase("fuse"):
                    pass
            after = sys.getallocatedblocks()
        finally:
            gc.enable()
        assert after - before <= 8, (
            f"steady-state telemetry leaked {after - before} blocks "
            "over 5000 iterations"
        )


# ---------------------------------------------------------------------------
# Cumulative coverage through the registry
# ---------------------------------------------------------------------------


class TestCumulativeCoverage:
    def test_session_spans_multiple_checks(self, solver):
        with Telemetry(coverage=True) as tel:
            solver.check_result(
                "(set-logic QF_LIA)(declare-const x Int)"
                "(assert (> x 0))(check-sat)"
            )
            first = set(tel.snapshot()["sets"]["coverage.line.fired"])
            assert first
            solver.check_result(
                "(set-logic QF_S)(declare-const s String)"
                '(assert (= (str.len s) 2))(check-sat)'
            )
            second = set(tel.snapshot()["sets"]["coverage.line.fired"])
        assert second > first  # strings fired probes arithmetic never touches

    def test_fired_sets_merge_by_union(self):
        a, b = Telemetry(), Telemetry()
        a.registry.value_set("coverage.line.fired").update({"p1", "p2"})
        b.registry.value_set("coverage.line.fired").update({"p2", "p3"})
        a.registry.gauge("coverage.line.registered").track_max(10)
        b.registry.gauge("coverage.line.registered").track_max(10)
        a.merge_snapshot(b.snapshot())
        assert coverage_counts(a.snapshot())["line"] == (3, 10)

    def test_figure11_and_stats_share_the_decode(self):
        """The one-source-of-truth fix: CoverageReport.from_metrics and
        coverage_rows read the same snapshot through coverage_counts."""
        from repro.coverage.probes import CoverageSession

        session = CoverageSession("t")
        session.fired["line"].update({"a", "b", "c"})
        registry = MetricsRegistry()
        publish_coverage_session(
            registry, session, registered={"line": 6, "function": 0, "branch": 0}
        )
        snap = registry.snapshot()
        report = CoverageReport.from_metrics(snap, "cell")
        assert report.line == pytest.approx(50.0)
        assert coverage_rows(snap) == [("line", 3, 6, "50.0")]


# ---------------------------------------------------------------------------
# The stats dashboard (golden files)
# ---------------------------------------------------------------------------


def _fabricated_journal(path):
    journal = CampaignJournal(path)
    journal.ensure_meta(seed=7, iterations_per_cell=6)
    sound = YinYangReport(iterations=6, fused=5, fusion_failures=1, unknowns=2)
    sound.bugs = [
        BugRecord(
            kind="soundness",
            solver="z3-like",
            oracle="sat",
            reported="unsat",
            script="(check-sat)",
            logic="QF_LIA",
            iteration=2,
        )
    ]
    journal.record_cell(("z3-like", "QF_LIA", "sat"), sound)
    crashy = YinYangReport(iterations=6, fused=6, retries=1, timeouts=1)
    crashy.bugs = [
        BugRecord(
            kind="crash",
            solver="cvc4-like",
            oracle="unsat",
            reported="crash",
            script="(check-sat)",
            logic="QF_S",
            iteration=1,
        ),
        BugRecord(
            kind="unknown",
            solver="cvc4-like",
            oracle="unsat",
            reported="unknown",
            script="(check-sat)",
            logic="QF_S",
            iteration=4,
        ),
    ]
    journal.record_cell(("cvc4-like", "QF_S", "unsat"), crashy)
    return journal


def _fabricated_snapshot():
    registry = MetricsRegistry()
    registry.inc("iterations", 12)
    registry.inc("fused", 11)
    registry.inc("solver.checks", 20)
    registry.inc("bugs.soundness", 1)
    registry.gauge("terms.table_size").track_max(512)
    fuse = registry.histogram("phase.fuse")
    for value in (0.001, 0.002, 0.004):
        fuse.observe(value)
    solve = registry.histogram("phase.solve")
    for value in (0.05, 0.25):
        solve.observe(value)
    registry.value_set("coverage.line.fired").update({"p1", "p2", "p3"})
    registry.gauge("coverage.line.registered").track_max(4)
    return registry.snapshot()


def _check_golden(name, text):
    golden = GOLDEN / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(text)
    assert golden.exists(), (
        f"golden file {golden} missing — run with REPRO_UPDATE_GOLDEN=1 "
        "to (re)generate, then review the diff"
    )
    assert text == golden.read_text()


class TestStatsDashboard:
    def test_dashboard_matches_golden(self, tmp_path):
        journal = _fabricated_journal(tmp_path / "campaign.jsonl")
        text = render_stats(journal, _fabricated_snapshot())
        # The journal lives in a tmp dir; normalize the one
        # machine-dependent token so the golden file is stable.
        text = text.replace(str(journal.path), "<journal>")
        _check_golden("stats_dashboard.txt", text)

    def test_journal_only_dashboard_matches_golden(self, tmp_path):
        journal = _fabricated_journal(tmp_path / "campaign.jsonl")
        text = render_stats(journal)
        text = text.replace(str(journal.path), "<journal>")
        assert "Metrics" not in text
        _check_golden("stats_journal_only.txt", text)

    def test_empty_journal_renders_placeholder(self, tmp_path):
        journal = CampaignJournal(tmp_path / "empty.jsonl")
        journal.ensure_meta(seed=1, iterations_per_cell=2)
        text = render_stats(journal)
        assert "no completed cells in the journal" in text

    def test_rendering_is_deterministic(self, tmp_path):
        journal = _fabricated_journal(tmp_path / "campaign.jsonl")
        snap = _fabricated_snapshot()
        assert render_stats(journal, snap) == render_stats(journal, snap)

    def test_accepts_a_path(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        _fabricated_journal(path)
        assert "Per-cell results" in render_stats(path)

    def test_incremental_dashboard_matches_golden(self, tmp_path):
        # An incremental campaign: the meta line carries the session
        # spec and the snapshot carries session.* counters, so the
        # header names the config and the reuse-rate section renders.
        journal = CampaignJournal(tmp_path / "campaign.jsonl")
        journal.ensure_meta(
            seed=7,
            iterations_per_cell=6,
            incremental="outcome=256,theory=4096,clauses=256,presolve=64,warm=8",
        )
        report = YinYangReport(iterations=6, fused=6, unknowns=3)
        journal.record_cell(("z3-like", "QF_LIA", "sat"), report)
        registry = MetricsRegistry()
        registry.inc("iterations", 6)
        registry.inc("session.outcome.hit", 6)
        registry.inc("session.outcome.miss", 6)
        registry.inc("session.theory.hit", 40)
        registry.inc("session.theory.miss", 160)
        registry.inc("session.evictions", 2)
        registry.gauge("session.theory_cache").track_max(96)
        text = render_stats(journal, registry.snapshot())
        text = text.replace(str(journal.path), "<journal>")
        assert "Incremental sessions" in text
        assert "incremental outcome=256" in text
        _check_golden("stats_incremental.txt", text)

    def test_cold_snapshot_renders_no_session_section(self, tmp_path):
        journal = _fabricated_journal(tmp_path / "campaign.jsonl")
        text = render_stats(journal, _fabricated_snapshot())
        assert "Incremental sessions" not in text
        assert "incremental" not in text.splitlines()[1]
