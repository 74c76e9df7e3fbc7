"""RQ1 throughput: fused formulas generated per second.

The paper: "On average, YinYang generates 41.5 test formulas per second
when run in the single-threaded mode." This bench measures our fusion
pipeline's generation throughput (fusing only — solver time excluded,
as in the paper's figure, which measures the generator).
"""

import random

from _util import emit

from repro.core.config import FusionConfig
from repro.core.fusion import fuse
from repro.seeds import build_corpus
from repro.smtlib.ast import fresh_scope

PAPER_THROUGHPUT = 41.5


def test_fusion_throughput(benchmark):
    corpus = build_corpus("QF_LIA", scale=0.004, seed=21)
    scripts = [s.script for s in corpus.seeds]
    rng = random.Random(0)
    config = FusionConfig()

    def fuse_one():
        # Mirror the campaign loop (yinyang._one_iteration): every
        # iteration runs in its own fresh-name scope, so gensyms and
        # intern tables behave exactly as they do under a real run.
        with fresh_scope():
            i = rng.randrange(len(scripts))
            j = rng.randrange(len(scripts))
            return fuse("sat", scripts[i], scripts[j], rng, config)

    # Warmup covers the seed-pair space so the timed rounds measure the
    # steady state — campaigns run hundreds of iterations per cell
    # against the same seeds, amortizing the per-seed caches the same
    # way (the occurrence/rename caches live on the long-lived seed
    # terms, outside the per-iteration scope).
    result = benchmark.pedantic(
        fuse_one, rounds=2500, warmup_rounds=600, iterations=1
    )
    assert result.script.asserts

    per_second = 1.0 / benchmark.stats.stats.mean
    emit(
        "throughput",
        (
            f"RQ1 throughput — fused formulas per second (single-threaded)\n"
            f"ours : {per_second:,.1f}/s\n"
            f"paper: {PAPER_THROUGHPUT}/s (on their 2019 hardware, with file I/O)\n"
        ),
    )
    # Shape: generation is nowhere near the bottleneck (>= paper's rate).
    assert per_second > PAPER_THROUGHPUT


class NullSolver:
    """Answers ``unknown`` instantly: isolates the loop from solving."""

    name = "null"

    def check_script(self, script, directive=None, session=None):
        from repro.solver.result import CheckOutcome, SolverResult

        return CheckOutcome(SolverResult.UNKNOWN)


def null_solvers():
    """A picklable solver factory for process-mode runs."""
    return [NullSolver()]


def test_parallel_mode_runs(benchmark):
    """The paper's parallel mode: same loop, sharded across supervised
    worker processes."""
    from repro.core.config import YinYangConfig
    from repro.core.yinyang import YinYang

    corpus = build_corpus("QF_LIA", scale=0.002, seed=22)
    tool = YinYang(NullSolver(), YinYangConfig(seed=3))

    def run():
        return tool.test(
            "sat",
            corpus.sat_seeds,
            iterations=64,
            mode="process",
            workers=2,
            solver_factory=null_solvers,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.fused > 0
    assert report.iterations == 64
