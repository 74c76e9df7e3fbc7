"""Campaign execution modes head-to-head: serial, process, tcp.

The sharded-execution work promises two things: (1) sharding never
changes what the campaign reports, and (2) process mode buys real
throughput on multi-core machines, where one interpreter is GIL-bound
for the pure-Python solvers under test. The tcp fleet adds a third claim:
(3) moving leases over sockets instead of executor pipes costs only a
constant per-campaign overhead (worker spawn + handshake + frame
codec), not a per-iteration tax. This benchmark runs the identical
deterministic campaign through all three modes, asserts the bug records
match record-for-record, and reports throughput per mode.

Honesty note: the speedup column is only meaningful on multi-core
hardware. On a single-CPU box (``os.cpu_count() == 1``) process and
tcp modes *cannot* beat serial — the workers time-slice one core and
pay spawn, pickling and framing overhead on top — so the table records
the core count and the assertion is on correctness, not speed. The
committed ``BENCH_distributed.json`` snapshot carries the same caveat
machine-readably (``cpu_cores``).
"""

import json
import os
import platform
import time

from _util import emit, emit_json, git_rev, once, smoke

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.robustness.journal import serialize_bug_record
from repro.seeds import build_corpus

WORKERS = 4
CAMPAIGN = dict(
    iterations_per_cell=4 if smoke() else 10,
    seed=3,
    performance_threshold=None,
    solver_factory=deterministic_solvers,
)

MODES = (
    ("serial", 1),
    ("process", WORKERS),
    ("tcp", WORKERS),
)


def _records(result):
    return [json.dumps(serialize_bug_record(r), sort_keys=True) for r in result.records]


def test_campaign_mode_throughput(benchmark):
    corpora = {
        "QF_LIA": build_corpus("QF_LIA", scale=0.003, seed=5),
        "QF_S": build_corpus("QF_S", scale=0.0015, seed=5),
    }

    def measure():
        rows = []
        baseline = None
        for mode, workers in MODES:
            start = time.perf_counter()
            result = run_campaign(corpora, mode=mode, workers=workers, **CAMPAIGN)
            elapsed = time.perf_counter() - start
            iterations = sum(r.iterations for r in result.reports.values())
            if baseline is None:
                baseline = _records(result)
            else:
                assert _records(result) == baseline, f"{mode} changed the bug records"
            rows.append((mode, workers, iterations, elapsed, iterations / elapsed))
        return rows

    rows = once(benchmark, measure)
    serial_rate = rows[0][4]
    lines = [
        f"Campaign throughput by execution mode ({os.cpu_count()} CPU core(s))",
        "",
        f"{'mode':<9}{'workers':>8}{'iterations':>12}{'seconds':>10}"
        f"{'iters/s':>10}{'vs serial':>11}",
    ]
    for mode, workers, iterations, elapsed, rate in rows:
        lines.append(
            f"{mode:<9}{workers:>8}{iterations:>12}{elapsed:>10.1f}"
            f"{rate:>10.2f}{rate / serial_rate:>10.2f}x"
        )
    lines += [
        "",
        "Bug records identical across all three modes (asserted).",
        "Speedup requires multiple cores: on a 1-core host, process and",
        "tcp modes add spawn + pickling/framing overhead with no",
        "parallelism to pay for it; the tcp row then measures the fleet",
        "transport's constant cost, not its scaling.",
    ]
    if smoke():
        # Smoke runs exist to exercise the rows in CI, not to time
        # them; skipping emit keeps the committed artifacts authentic.
        return
    emit("campaign_parallel", "\n".join(lines))
    emit_json(
        "BENCH_distributed",
        {
            "benchmark": "campaign_mode_throughput",
            "iterations_per_cell": CAMPAIGN["iterations_per_cell"],
            "seed": CAMPAIGN["seed"],
            "workers": WORKERS,
            "cpu_cores": os.cpu_count(),
            "caveat": (
                "throughput ratios are only meaningful when cpu_cores > "
                "workers; on a 1-core host the parallel rows measure "
                "transport overhead, not scaling"
            ),
            "host": platform.node(),
            "git_rev": git_rev(),
            "modes": [
                {
                    "mode": mode,
                    "workers": workers,
                    "iterations": iterations,
                    "seconds": round(elapsed, 3),
                    "iters_per_s": round(rate, 3),
                    "vs_serial": round(rate / serial_rate, 3),
                }
                for mode, workers, iterations, elapsed, rate in rows
            ],
        },
    )
