"""Harness hardening overhead: fused-formulas/sec with and without
GuardedSolver, and the leased cell loop against the bare one.

The containment layer (watchdog thread handoff, retry bookkeeping,
breaker counters) sits on the hot path of every check, so it must be
nearly free: the budget is **< 5%** overhead versus the unguarded
check. Each fused script is timed back-to-back through both arms
(alternating which goes first), and the overhead is the median of the
per-script time ratios — robust against the wall-clock jitter that
dominates any totals-based comparison on shared hardware.

Every test asserts before it writes its result file, so a run that
misses a budget leaves the committed artifact alone. Set
``REPRO_BENCH_SMOKE=1`` (CI's bench-smoke stage) for a tiny run that
exercises every test but skips the budget assertions and writes no
result files.
"""

import random
import statistics
import time

from _util import emit, once, smoke

from repro.core.config import YinYangConfig
from repro.core.yinyang import YinYang
from repro.robustness import ResiliencePolicy
from repro.robustness.guard import GuardedSolver
from repro.seeds import build_corpus
from repro.solver.solver import ReferenceSolver, SolverConfig

OVERHEAD_BUDGET = 0.05
SCRIPTS = 4 if smoke() else 30


def _fused_scripts(seeds):
    """A fixed set of fused formulas, shared verbatim by both arms."""
    from repro.errors import FusionError

    tool = YinYang(ReferenceSolver(SolverConfig.fast()), YinYangConfig(seed=0))
    rng = random.Random(7)
    scripts = []
    while len(scripts) < SCRIPTS:
        i, j = rng.randrange(len(seeds)), rng.randrange(len(seeds))
        try:
            result = tool.fuse_once("sat", seeds[i], seeds[j], seed=len(scripts))
        except FusionError:
            continue
        scripts.append(result.script)
    return scripts


def test_guarded_solver_overhead(benchmark):
    corpus = build_corpus("QF_LIA", scale=0.004, seed=21)
    seeds = [s.script for s in corpus.sat_seeds]
    solver = ReferenceSolver(SolverConfig.fast())
    policy = ResiliencePolicy(check_timeout=30.0, retries=2, quarantine_after=10)
    guard = GuardedSolver(solver, policy)

    def measure():
        scripts = _fused_scripts(seeds)
        for script in scripts[:3]:  # warmup: caches, helper thread spin-up
            solver.check_script(script)
            guard.check_script(script)
        direct_times, guarded_times = [], []
        for index, script in enumerate(scripts):
            arms = [("direct", solver), ("guard", guard)]
            if index % 2:
                arms.reverse()
            for label, arm in arms:
                start = time.perf_counter()
                arm.check_script(script)
                elapsed = time.perf_counter() - start
                (direct_times if label == "direct" else guarded_times).append(elapsed)
        return direct_times, guarded_times

    direct_times, guarded_times = once(benchmark, measure)
    ratios = [g / d for g, d in zip(guarded_times, direct_times)]
    overhead = statistics.median(ratios) - 1.0
    plain_rate = len(direct_times) / sum(direct_times)
    guarded_rate = len(guarded_times) / sum(guarded_times)
    if smoke():
        return
    assert overhead < OVERHEAD_BUDGET
    emit(
        "harness_overhead",
        (
            "Harness hardening overhead — fused formulas checked per second\n"
            f"unguarded      : {plain_rate:,.1f}/s\n"
            f"GuardedSolver  : {guarded_rate:,.1f}/s "
            "(watchdog deadline + retries + breaker)\n"
            f"overhead       : {overhead:+.1%} median per-script "
            f"(budget < {OVERHEAD_BUDGET:.0%})\n"
        ),
    )


def test_supervised_loop_overhead(benchmark):
    """Leased cell loop vs the bare runner, same work.

    Every process shard runs as a lease: the cell loop a serial
    campaign runs, plus one hook call and one progress-log append
    (flocked write + flush) per iteration, and per lease a Telemetry,
    a progress-log load and the payload serialization. All of it must
    stay inside the same **< 5%** budget as the guard — supervision is
    always on, so it has to be affordable. Measured in-process (a
    worker's spawn cost and socket would only add noise): alternating
    leased ``run_worker_task`` runs, with a no-op hook, against the
    worker's own :class:`~repro.core.parallel.CellRunner` over the same
    indices with no log and no hook; overhead = median per-round time
    ratio.
    """
    import os
    import tempfile
    from dataclasses import replace as dc_replace

    from repro.campaign.runner import deterministic_solvers
    from repro.core import parallel
    from repro.core.config import CampaignSpec
    from repro.core.parallel import (
        ShardTask,
        install_worker_state,
        run_worker_task,
        serialize_seeds,
    )

    corpus = build_corpus("QF_S", scale=0.0015, seed=5)
    texts, logics = serialize_seeds(corpus.by_oracle("sat"))
    spec = CampaignSpec(
        config=YinYangConfig(seed=6),
        iterations_per_cell=3 if smoke() else 12,
        solver_factory=deterministic_solvers,
        mode="process",
    )
    install_worker_state(spec)
    runner, _telemetry = parallel._STATE
    base = ShardTask(oracle="sat", seed_texts=texts, logics=logics, shard=0)
    scripts = runner.scripts_for(base.seed_texts)
    indices = range(spec.iterations_per_cell)
    rounds = 2 if smoke() else 10

    def run_kernel():
        runner.run(base.oracle, scripts, base.logics, indices, runner.solvers)

    def hook(_index):
        pass

    def measure():
        with tempfile.TemporaryDirectory() as tmp:
            # Warmup: parse cache, strategy prepare.
            run_worker_task(dc_replace(base, lease_id=0), hook)
            run_kernel()
            kernel_times, leased_times = [], []
            for index in range(rounds):
                leased = dc_replace(
                    base,
                    lease_id=index + 1,
                    # A fresh log per round: replaying checkpoints would
                    # measure skipping the work, not doing it.
                    progress_path=os.path.join(tmp, f"round-{index}.jsonl"),
                )
                arms = [
                    ("kernel", run_kernel),
                    ("leased", lambda: run_worker_task(leased, hook)),
                ]
                if index % 2:
                    arms.reverse()
                for label, run in arms:
                    start = time.perf_counter()
                    run()
                    elapsed = time.perf_counter() - start
                    (kernel_times if label == "kernel" else leased_times).append(
                        elapsed
                    )
        return kernel_times, leased_times

    kernel_times, leased_times = once(benchmark, measure)
    ratios = [s / b for s, b in zip(leased_times, kernel_times)]
    overhead = statistics.median(ratios) - 1.0
    kernel_rate = rounds * spec.iterations_per_cell / sum(kernel_times)
    leased_rate = rounds * spec.iterations_per_cell / sum(leased_times)
    if smoke():
        return
    assert overhead < OVERHEAD_BUDGET
    emit(
        "supervised_pool_overhead",
        (
            "Supervised-lease loop overhead — iterations per second, one worker\n"
            f"bare cell loop   : {kernel_rate:,.1f}/s (CellRunner, no log, no hook)\n"
            f"supervised lease : {leased_rate:,.1f}/s "
            "(hook + progress checkpoint + payload)\n"
            f"overhead         : {overhead:+.1%} median per-round "
            f"(budget < {OVERHEAD_BUDGET:.0%})\n"
        ),
    )


def test_watchdog_handoff_latency(benchmark):
    """Microbenchmark: the raw cost of one watchdog-guarded no-op check."""
    from repro.robustness.guard import GuardedSolver
    from repro.smtlib.parser import parse_script
    from repro.solver.result import CheckOutcome, SolverResult

    script = parse_script("(declare-fun x () Int)(assert (> x 0))(check-sat)")

    class NullSolver:
        name = "null"

        def check_script(self, inner, directive=None, session=None):
            return CheckOutcome(SolverResult.SAT)

    guard = GuardedSolver(NullSolver(), ResiliencePolicy(check_timeout=30.0))
    guard.check_script(script)  # spin up the helper thread once

    benchmark(guard.check_script, script)
    mean = benchmark.stats.stats.mean
    if smoke():
        return
    # Sanity: handoff stays far below a single real solver check (~ms).
    assert mean < 0.005
    emit(
        "harness_watchdog_latency",
        (
            "Watchdog handoff latency (no-op check through the helper thread)\n"
            f"mean: {mean * 1e6:,.1f} µs/check\n"
        ),
    )
