"""Telemetry overhead: campaign iterations/sec with and without the
observability layer.

The metrics registry, the NULL_TELEMETRY no-op path and the span tracer
all sit on the YinYang hot path, so they must be nearly free: the
budget is **< 5%** overhead for a fully traced-and-metered run versus
an uninstrumented one (and the untelemetered path itself must be
indistinguishable from the pre-observability code). Each arm runs the
same deterministic cell batch back-to-back (alternating which goes
first), and the overhead is the median of the per-batch time ratios —
robust against the wall-clock jitter that dominates totals on shared
hardware.

A companion microbenchmark pins the per-call cost of the no-op surface
(count + null span), the quantity multiplied by every iteration of a
months-long campaign.
"""

import statistics
import time

from _util import emit, once

from repro.core.config import YinYangConfig
from repro.core.yinyang import YinYang
from repro.observability.telemetry import NULL_TELEMETRY, Telemetry
from repro.seeds import build_corpus
from repro.solver.solver import ReferenceSolver, SolverConfig

OVERHEAD_BUDGET = 0.05
BATCHES = 14
ITERATIONS_PER_BATCH = 12


def _run_batch(telemetry):
    """One deterministic YinYang cell, instrumented or not."""
    corpus = build_corpus("QF_LIA", scale=0.003, seed=5)
    seeds = corpus.by_oracle("sat")
    tool = YinYang(
        ReferenceSolver(SolverConfig.fast()),
        YinYangConfig(seed=3),
        telemetry=telemetry,
    )
    tool.test("sat", seeds, iterations=ITERATIONS_PER_BATCH)


def test_telemetry_overhead(benchmark):
    def measure():
        # Warm up both arms: parse caches, intern tables, histograms.
        _run_batch(None)
        _run_batch(Telemetry(trace=True, profile=True))
        bare_times, traced_times = [], []
        for index in range(BATCHES):
            arms = [("bare", None), ("traced", Telemetry(trace=True, profile=True))]
            if index % 2:
                arms.reverse()
            for label, telemetry in arms:
                start = time.perf_counter()
                _run_batch(telemetry)
                elapsed = time.perf_counter() - start
                (bare_times if label == "bare" else traced_times).append(elapsed)
        return bare_times, traced_times

    bare_times, traced_times = once(benchmark, measure)
    ratios = [t / b for t, b in zip(traced_times, bare_times)]
    overhead = statistics.median(ratios) - 1.0
    bare_rate = BATCHES * ITERATIONS_PER_BATCH / sum(bare_times)
    traced_rate = BATCHES * ITERATIONS_PER_BATCH / sum(traced_times)

    emit(
        "telemetry_overhead",
        (
            "Telemetry overhead — YinYang iterations per second\n"
            f"no telemetry      : {bare_rate:,.1f}/s\n"
            f"metrics + tracing : {traced_rate:,.1f}/s "
            "(counters, phase spans, profile sampling)\n"
            f"overhead          : {overhead:+.1%} median per-batch "
            f"(budget < {OVERHEAD_BUDGET:.0%})\n"
        ),
    )
    assert overhead < OVERHEAD_BUDGET


def test_null_telemetry_call_cost(benchmark):
    """Microbenchmark: one iteration's worth of no-op instrumentation.

    This is what every *untelemetered* campaign pays per iteration for
    the observability hooks existing at all: a handful of no-op method
    calls and shared null spans. It must stay millions/sec — three
    orders of magnitude below the >=140µs cost of a real iteration."""
    tel = NULL_TELEMETRY

    def one_iteration_of_hooks():
        tel.count("iterations")
        with tel.phase("seed_pick"):
            pass
        with tel.phase("fuse"):
            pass
        tel.count("fused")
        with tel.phase("solve"):
            pass
        with tel.phase("oracle_check"):
            pass
        tel.count("checks")

    benchmark(one_iteration_of_hooks)
    mean = benchmark.stats.stats.mean
    emit(
        "telemetry_null_cost",
        (
            "NULL_TELEMETRY per-iteration hook cost (counts + null spans)\n"
            f"mean: {mean * 1e9:,.0f} ns/iteration "
            f"({1.0 / mean:,.0f} iterations/s)\n"
        ),
    )
    # Generous bound: even a loaded CI box does no-op calls in < 10µs.
    assert mean < 1e-5
