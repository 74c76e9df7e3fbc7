"""Strategy throughput: fusion (full, triaged, incremental) vs.
concatfuzz vs. opfuzz iterations/s.

All rows run the identical loop (same solvers, seeds, iteration
count, serial mode), so the deltas measure what each workload costs
end to end: mutation plus solving the mutants it produces. That
second part dominates. Fusion's variable fusion introduces nonlinear
definitions that historically burned the deterministic solvers' full
budgets at ~0.4 iter/s; the solver-side fast paths (definition
elimination, model guessing, incremental branch & bound, QuickXplain
core shrinking) and the triage tier policy reclaim that wall clock.
The ``fusion+triage`` row runs the same campaign with
:class:`~repro.campaign.triage.TriagePolicy` routing on; the
``fusion+triage+incremental`` row additionally turns on per-cell
solver sessions (:mod:`repro.solver.session`) — warm SAT prototypes,
theory-lemma memoization, per-iteration outcome dedup. The assertions
at the bottom pin both headline claims: triaged fusion sustains at
least ten times the 0.4 iter/s pre-triage pipeline, and incremental
sessions at least double the ~7 iter/s triaged baseline — so a
regression in the solver fast paths, the tier routing or the session
reuse fails the benchmark, not just a number in a text file.

Set ``REPRO_BENCH_SMOKE=1`` (CI's bench-smoke stage) for a tiny run
that exercises every row but skips the timing assertions and leaves
the committed result artifacts untouched.
"""

import platform
import time

from _util import emit, emit_json, git_rev, once, smoke

from repro.campaign.runner import deterministic_bv_solvers, deterministic_solvers
from repro.core.config import YinYangConfig
from repro.core.yinyang import YinYang
from repro.seeds import build_corpus
from repro.strategies import make_strategy

ITERATIONS = 6 if smoke() else 60
SEED = 11

#: The fusion throughput the pre-triage pipeline recorded on this
#: exact campaign (60 iterations, QF_LIA sat, two deterministic
#: solvers, serial). The triaged row must sustain >= 10x this.
PRE_TRIAGE_BASELINE = 0.4

#: The triaged-fusion throughput PR 7 recorded on this campaign. The
#: incremental row must sustain >= 2x this.
TRIAGED_BASELINE = 7.0


def _run_strategy(name, seeds, triage=False, incremental=False, solvers=None):
    solvers = solvers or deterministic_solvers()
    tool = YinYang(
        solvers,
        YinYangConfig(seed=SEED, triage=triage, incremental=incremental),
        performance_threshold=None,
        strategy=make_strategy(name),
    )
    began = time.perf_counter()
    report = tool.test("sat", seeds, iterations=ITERATIONS)
    elapsed = time.perf_counter() - began
    return report, elapsed


def _campaign():
    corpus = build_corpus("QF_LIA", scale=0.003, seed=SEED)
    seeds = corpus.by_oracle("sat")
    rows = {}
    for name in ("fusion", "concatfuzz", "opfuzz"):
        report, elapsed = _run_strategy(name, seeds)
        rows[name] = (report, elapsed)
    report, elapsed = _run_strategy("fusion", seeds, triage=True)
    rows["fusion+triage"] = (report, elapsed)
    report, elapsed = _run_strategy("fusion", seeds, triage=True, incremental=True)
    rows["fusion+triage+incremental"] = (report, elapsed)
    # The pluggable-theory row: the identical fusion loop over QF_BV
    # seeds, solved by eager bit-blasting onto the same SAT core. Rates
    # compare against arithmetic fusion, so this row tracks what the
    # bit-blasted backend costs relative to the arithmetic fast paths.
    bv_corpus = build_corpus("QF_BV", scale=0.02, seed=SEED)
    report, elapsed = _run_strategy(
        "fusion",
        bv_corpus.by_oracle("sat"),
        triage=True,
        incremental=True,
        solvers=deterministic_bv_solvers(),
    )
    rows["fusion@QF_BV"] = (report, elapsed)
    return rows


def test_strategy_throughput(benchmark):
    rows = once(benchmark, _campaign)
    fusion_rate = ITERATIONS / rows["fusion"][1]
    name_width = max(len(name) for name in rows)
    lines = [
        "Strategy throughput — identical loop, solvers and seeds "
        f"({ITERATIONS} iterations, QF_LIA sat, serial)",
        f"{'strategy':<{name_width}} {'iter/s':>8} {'vs fusion':>10} "
        f"{'mutants':>8} {'failed':>7} {'bugs':>5} {'unknown':>8}",
    ]
    for name, (report, elapsed) in rows.items():
        rate = ITERATIONS / elapsed
        lines.append(
            f"{name:<{name_width}} {rate:>8.1f} {rate / fusion_rate:>9.2f}x "
            f"{report.fused:>8} {report.fusion_failures:>7} "
            f"{len(report.bugs):>5} {report.unknowns:>8}"
        )
    triage_rate = ITERATIONS / rows["fusion+triage"][1]
    incremental_rate = ITERATIONS / rows["fusion+triage+incremental"][1]
    lines.append(
        "solve time dominates. The solver fast paths (definition "
        "elimination, model guess, incremental branch & bound, "
        "QuickXplain cores) lifted full-budget fusion well above the "
        f"{PRE_TRIAGE_BASELINE} iter/s it once recorded; triage "
        "additionally fail-fasts the budget-burning nonlinear mutants "
        f"(fusion+triage: {triage_rate:.1f} iter/s, "
        f"{triage_rate / PRE_TRIAGE_BASELINE:.0f}x the pre-triage "
        "pipeline), and per-cell solver sessions reuse the seed "
        "encoding and theory lemmas across the mutant stream "
        f"(fusion+triage+incremental: {incremental_rate:.1f} iter/s, "
        f"{incremental_rate / TRIAGED_BASELINE:.1f}x the triaged "
        "baseline). concatfuzz/opfuzz mutants stay as easy as their "
        "seeds — opfuzz's extra reference solve per mutant "
        "(differential oracle) is cheap on those."
    )
    for name, (report, _elapsed) in rows.items():
        assert report.iterations == ITERATIONS, name
        assert report.fused > 0, name
    # Neither triage nor incremental sessions may change what the
    # campaign reports as bugs.
    assert len(rows["fusion+triage"][0].bugs) == len(rows["fusion"][0].bugs)
    assert len(rows["fusion+triage+incremental"][0].bugs) == len(
        rows["fusion"][0].bugs
    )
    if smoke():
        # Smoke runs exist to exercise the rows in CI, not to time
        # them; skipping emit keeps the committed artifacts authentic.
        return
    # The headline acceptance bars: triaged fusion sustains >= 10x the
    # pre-triage pipeline, and incremental sessions >= 2x the triaged
    # baseline.
    assert triage_rate >= 10 * PRE_TRIAGE_BASELINE, (
        f"triaged fusion throughput regressed: {triage_rate:.2f} iter/s "
        f"< 10x the {PRE_TRIAGE_BASELINE} iter/s pre-triage baseline"
    )
    assert incremental_rate >= 2 * TRIAGED_BASELINE, (
        f"incremental fusion throughput regressed: "
        f"{incremental_rate:.2f} iter/s < 2x the {TRIAGED_BASELINE} "
        f"iter/s triaged baseline"
    )
    # Only a run that clears both bars writes its result files.
    emit("strategy_throughput", "\n".join(lines))
    emit_json(
        "BENCH_strategies",
        {
            "benchmark": "strategy_throughput",
            "iterations": ITERATIONS,
            "seed": SEED,
            "host": platform.node(),
            "git_rev": git_rev(),
            "strategies": {
                name: round(ITERATIONS / elapsed, 2)
                for name, (_report, elapsed) in rows.items()
            },
        },
    )
