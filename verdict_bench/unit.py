"""One campaign in a fresh process: the unit a benchmark run repeats.

Usage (run.py starts it; it is not meant to be typed)::

    python3 verdict_bench/unit.py --workload NAME --seed N --spawned-at T \
        --out DIR [--trace]

It builds the workload's corpora and solvers from ``--seed``, calls
``repro.campaign.runner.run_campaign`` once, and writes ``unit.json``
(figures and correctness evidence) into ``--out``; with ``--trace`` it
also writes ``spans.json``. ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so the
set-up time includes interpreter start-up and imports.

A shared host's CPU speed drifts by up to 1.7x within a second, and
wall and CPU time drift with it. So the unit also times a fixed speed
kernel every ``SpeedSampler.PERIOD_S`` of wall time, through set-up and
the campaign. ``ref_*`` figures are
the measured times rescaled to a reference host on which the kernel
takes ``REF_KERNEL_S`` of CPU time, and on which the process never
waits for a CPU: CPU time is rescaled, time spent runnable but not
running (``/proc/self/schedstat``) is dropped, and the rest of the wall
time (sleeps, blocked reads) is kept as it is. METRICS.md explains the
rescaling and shows its effect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The speed kernel's time on the reference host. A fixed constant of the
# benchmark: every commit is rescaled to the same host.
REF_KERNEL_S = 0.00025

_TABLE = {i: i * i for i in range(64)}


def _step(total, value):
    return (total * 31 + value) % 1000003


def _speed_kernel():
    """A fixed piece of interpreter work: dict reads, calls, int and str
    operations. It allocates no object the garbage collector tracks, so
    the program's heap cannot change its time."""
    total = 0
    for i in range(1200):
        total = _step(total, _TABLE[i & 63])
        total += len(str(i))
    return total


def _kernel_seconds():
    """CPU time of one kernel run: unlike its wall time, it does not grow
    when another process takes the CPU."""
    began = time.thread_time()
    _speed_kernel()
    return time.thread_time() - began


def run_delay_s():
    """Seconds this process's main thread has spent runnable but waiting
    for a CPU since it started; 0 where the kernel does not report it."""
    try:
        with open("/proc/self/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def on_reference_host(wall_s, cpu_s, run_delay, factor):
    """``wall_s`` as the reference host would take it: the time spent
    waiting for a CPU is dropped, the time spent computing is rescaled by
    ``factor`` and the time spent waiting for anything else is kept."""
    running = wall_s - run_delay
    waiting = max(0.0, running - cpu_s)
    return waiting + (running - waiting) * factor


@dataclass(frozen=True)
class Interval:
    """What a :class:`SpeedSampler` saw between two :meth:`~SpeedSampler.take` calls."""

    factor: float  # reference CPU seconds per measured CPU second
    kernel_wall_s: float  # the kernels' own time, to take out of the figures
    kernel_cpu_s: float
    samples: int


class SpeedSampler:
    """Times the speed kernel from a SIGALRM handler.

    Each sample pairs the kernel's time with the CPU time the process
    used since the previous sample, so the rescaling weighs each speed
    by the computing done at that speed. The kernel's own wall and CPU
    time are kept apart, to be taken out of the measured figures.
    """

    PERIOD_S = 0.025

    def __init__(self):
        self._reset()
        self._last_cpu = time.process_time()
        self._last_factor = 1.0

    def _reset(self):
        self.busy_s = 0.0  # CPU seconds of the program, summed over samples
        self.ref_busy_s = 0.0  # the same, rescaled to the reference host
        self.kernel_wall_s = 0.0
        self.kernel_cpu_s = 0.0
        self.samples = 0

    def _sample(self, signum=None, frame=None):
        wall = time.perf_counter()
        cpu = time.process_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel_s = _kernel_seconds()
        finally:
            if enabled:
                gc.enable()
        after = time.process_time()
        busy = cpu - self._last_cpu
        self._last_factor = REF_KERNEL_S / kernel_s
        self.busy_s += busy
        self.ref_busy_s += busy * self._last_factor
        self.kernel_wall_s += time.perf_counter() - wall
        self.kernel_cpu_s += after - cpu
        self.samples += 1
        self._last_cpu = after

    def start(self):
        self._last_cpu = time.process_time()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Close the current interval with one last sample, which also
        covers its tail, and start the next one."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
            factor = self.ref_busy_s / self.busy_s if self.busy_s > 0 else self._last_factor
            interval = Interval(factor, self.kernel_wall_s, self.kernel_cpu_s, self.samples)
            self._reset()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        return interval


def _cpu_seconds(*whos):
    """CPU time of ``resource.RUSAGE_SELF`` and/or ``RUSAGE_CHILDREN``."""
    usages = [resource.getrusage(who) for who in whos]
    return sum(usage.ru_utime + usage.ru_stime for usage in usages)


def _peak_rss_mb():
    """Peak RSS of this process or of its largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cell_figures(counters):
    """(decided, failed) of one cell report's counters.

    Decided: checks that answered sat/unsat. Failed: iterations that got
    no solver answer -- a failed mutation draw, an unresolved differential
    oracle (``unknowns`` minus the split solver unknowns), a contained
    harness error or a quarantine skip.
    """
    decided = (
        counters["fused"]
        - counters["unknowns"]
        - counters["crash"]
        - counters["contained_errors"]
        - counters["quarantine_skips"]
    )
    unresolved = (
        counters["unknowns"] - counters["unknowns_budget"] - counters["unknowns_genuine"]
    )
    failed = (
        counters["fusion_failures"]
        + unresolved
        + counters["contained_errors"]
        + counters["quarantine_skips"]
    )
    return decided, failed


def run_unit(workload, seed, out, spawned_at, sampler, trace=False):
    from repro.campaign.classify import attribute_fault
    from repro.campaign.runner import run_campaign, solver_factory_for_logic
    from repro.seeds import build_corpus

    corpora = {
        family: build_corpus(family, scale=workload.scale, seed=seed)
        for family in workload.families
    }
    factory = solver_factory_for_logic(workload.logic, deterministic=True)
    solvers = factory()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    journal = os.path.join(out, "journal.jsonl")
    setup_speed = sampler.take()
    setup_s = time.monotonic() - spawned_at
    setup_cpu_s = time.process_time()
    setup_delay_s = run_delay_s()
    cpu_before = _cpu_seconds(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    began = time.perf_counter()
    result = run_campaign(
        corpora,
        solvers=solvers,
        solver_factory=factory,
        iterations_per_cell=workload.iterations,
        seed=seed,
        performance_threshold=None,
        journal=journal,
        mode=workload.mode,
        workers=workload.workers,
        strategy=workload.strategy,
        triage=True,
        incremental=True,
        logic=workload.logic,
    )
    speed = sampler.take()
    wall_s = time.perf_counter() - began
    cpu_s = _cpu_seconds(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) - cpu_before
    delay_s = run_delay_s() - setup_delay_s

    decided = failed = 0
    for report in result.reports.values():
        cell_decided, cell_failed = _cell_figures(report.counters())
        decided += cell_decided
        failed += cell_failed
    catalog_ids = {
        name: {fault.fault_id for fault in faults}
        for name, faults in result.catalogs.items()
    }
    unattributed = [
        f"{record.solver}/{record.kind}: {record.note!r}"
        for record in result.records
        if attribute_fault(record) not in catalog_ids.get(record.solver, ())
    ]
    faults = sorted(
        f"{solver}:{fault_id}"
        for solver, found in result.found_faults().items()
        for fault_id in found
    )
    with open(journal, "rb") as handle:
        journal_bytes = handle.read()
    counters = result.summary_counters()
    shards = {}
    if result.shard_counters:
        # The per-cell shard barrier: a cell ends when its slowest shard
        # does, so the faster shard's worker waits out the difference.
        elapsed = [
            [shard["elapsed"] for shard in cell]
            for cell in result.shard_counters.values()
        ]
        shards = {
            "busy_s": sum(sum(cell) for cell in elapsed),
            "barrier_wait_s": sum(max(cell) - min(cell) for cell in elapsed),
            "child_cpu_s": _cpu_seconds(resource.RUSAGE_CHILDREN),
        }
    figures = {
        "seed": seed,
        "workers": workload.workers,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "run_delay_s": delay_s,
        # Without the sampler's kernels, on the reference host.
        "ref_setup_s": on_reference_host(
            setup_s - setup_speed.kernel_wall_s,
            setup_cpu_s - setup_speed.kernel_cpu_s,
            setup_delay_s,
            setup_speed.factor,
        ),
        "ref_wall_s": on_reference_host(
            wall_s - speed.kernel_wall_s, cpu_s - speed.kernel_cpu_s, delay_s, speed.factor
        ),
        "ref_cpu_s": (cpu_s - speed.kernel_cpu_s) * speed.factor,
        "speed_factor": speed.factor,
        "speed_samples": speed.samples,
        "peak_rss_mb": _peak_rss_mb(),
        "iterations": counters["iterations"],
        "decided": decided,
        "failed": failed,
        "faults": faults,
        "counters": counters,
        "journal_sha256": hashlib.sha256(journal_bytes).hexdigest(),
        "journal_bytes": len(journal_bytes),
        "unattributed": unattributed,
        "shards": shards,
    }
    if tracer is not None:
        tracer.dump(os.path.join(out, "spans.json"))
    with open(os.path.join(out, "unit.json"), "w", encoding="utf-8") as handle:
        json.dump(figures, handle, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from workloads import CAMPAIGNS

    sampler = SpeedSampler()
    sampler.start()
    try:
        run_unit(
            CAMPAIGNS[args.workload],
            args.seed,
            args.out,
            args.spawned_at,
            sampler,
            trace=args.trace,
        )
    finally:
        sampler.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
