"""Verdict-centred campaign benchmark: one workload, one run.

    python3 verdict_bench/run.py --workload fusion-arith --seed 1 \
        --seconds 25 --trace 0

Runs from the root of a checkout of the repository (``src/`` holds the
program). Each campaign runs in a fresh process (``unit.py``). A run
starts one *probe* campaign built from ``--seed``, then repeats the
workload's *pinned* campaign until ``--seconds`` have passed (at least
four times). A workload with a fleet twin also runs the pinned inputs
once on a worker fleet. The figures of every campaign must pass the
correctness gates below; only then does the run print its result, as
the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures of the pinned
campaign, median over its repetitions; times are rescaled to the
reference host (``unit.py``), and ``setup_s`` is the median over every
campaign started. With ``--trace 1`` the pinned repetitions run with
layer spans (``tracing.py``) and the metrics are their per-layer
figures, median over the repetitions. The probe moves no metric; it
must pass the gates. The line before the result holds the run's
context: core count, affinity, Python version, git revision, the seeds,
the probe's own figures, every per-campaign sample and the measured
(not rescaled) rates. METRICS.md defines each figure.

Correctness gates (any failure: exit code 1, ``"correct": false``):

- every bug record maps to a catalog fault of its solver;
- repetitions of the pinned campaign agree on every deterministic
  counter, on the faults found and on the journal's sha256;
- a workload's fleet twin writes the pinned campaign's journal, byte
  for byte (the fleet-shape check);
- traced runs: each workload's busy layers did work and its idle layers
  did none, and per-layer self times never exceed the traced wall time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
UNIT = os.path.join(HERE, "unit.py")
WORK = os.path.join(ROOT, ".verdict_bench")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import FLEET_TWINS, WORKLOADS  # noqa: E402

MIN_PINNED = 4
# A campaign past this is a hang, not a measurement.
UNIT_TIMEOUT_S = 120.0
# The probe's inputs are new on every seed, and a rare mutant costs a
# minute or more; past this the probe is stopped and counted as failed.
PROBE_TIMEOUT_S = 75.0
# The held-out seed recorded with every result: a later change confirms
# a claim on ``--seed <heldout>``, a seed it was not tuned on.
HELDOUT_OFFSET = 1_000_003

END_TO_END_UNITS = {
    "decided_per_s": "verdicts/s",
    "faults_per_cpu_s": "faults/CPU-s",
    "iter_per_s": "iterations/s",
    "decided_share": "ratio",
    "answered_share": "ratio",
    "faults_found": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "strategies.mutate_s": "s",
    "strategies.oracle_solve_s": "s",
    "strategies.oracle_solves": "count",
    "strategies.mutants": "count",
    "strategies.mutation_failures": "count",
    "triage.route_s": "s",
    "triage.easy": "count",
    "triage.hard": "count",
    "triage.hopeless": "count",
    "faults.analyze_s": "s",
    "faults.triggered": "count",
    "faults.slow_sleep_s": "s",
    "solver.checks": "count",
    "solver.check_s": "s",
    "solver.self_s": "s",
    "solver.sat": "count",
    "solver.unsat": "count",
    "solver.unknown_budget": "count",
    "solver.unknown_genuine": "count",
    "session.build_s": "s",
    "session.outcome_hit_rate": "ratio",
    "session.theory_hit_rate": "ratio",
    "session.warm_starts": "count",
    "session.warm_decided": "count",
    "dpllt.self_s": "s",
    "dpllt.theory_checks": "count",
    "preprocess.s": "s",
    "preprocess.calls": "count",
    "tseitin.encode_s": "s",
    "tseitin.clauses": "count",
    "sat.solve_s": "s",
    "sat.calls": "count",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "nonlinear.check_s": "s",
    "nonlinear.checks": "count",
    "nonlinear.atom_to_poly_s": "s",
    "nonlinear.atom_to_poly_calls": "count",
    "linarith.check_s": "s",
    "linarith.checks": "count",
    "strings.check_s": "s",
    "strings.checks": "count",
    "strings.unknown": "count",
    "bitblast.check_s": "s",
    "bitblast.sat_s": "s",
    "bitblast.checks": "count",
    "checker.self_s": "s",
    "journal.record_s": "s",
    "journal.bytes": "bytes",
    "parallel.worker_busy_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.idle_share": "ratio",
    "parallel.barrier_wait_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


class GateFailure(Exception):
    """A correctness gate failed: the run's figures must not be used."""


class CampaignTimeout(RuntimeError):
    """A campaign process ran past its time limit and was stopped."""


def _reap_group(pgid):
    """Stop whatever is left of a unit's process group and wait for it:
    its workers get five seconds to exit, then SIGTERM, then SIGKILL."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        try:
            if sig is not None:
                os.killpg(pgid, sig)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                os.killpg(pgid, 0)
                time.sleep(0.05)
        except ProcessLookupError:
            return


def spawn_unit(workload, seed, out, trace=False, timeout=UNIT_TIMEOUT_S):
    """Run one campaign in a fresh process; returns its ``unit.json``."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC, TMPDIR=tmp)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        UNIT,
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--out",
        out,
        "--spawned-at",
        repr(spawned_at),
    ]
    cmd += ["--trace"] if trace else []
    with open(os.path.join(out, "stderr.txt"), "wb") as stderr:
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            _reap_group(proc.pid)
    if code is None:
        raise CampaignTimeout(f"campaign seed={seed} ran over {timeout:.0f} s")
    if code != 0:
        with open(os.path.join(out, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"campaign seed={seed} failed (exit code {code}):\n{tail}")
    with open(os.path.join(out, "unit.json"), encoding="utf-8") as fh:
        figures = json.load(fh)
    figures["process_s"] = time.monotonic() - spawned_at
    if trace:
        with open(os.path.join(out, "spans.json"), encoding="utf-8") as fh:
            figures["layers"] = tracing.analyse(json.load(fh))
    return figures


def end_to_end(unit):
    """The end-to-end figures of one campaign, times on the reference host."""
    iterations = unit["iterations"]
    return {
        "decided_per_s": unit["decided"] / unit["ref_wall_s"],
        "faults_per_cpu_s": len(unit["faults"]) / unit["ref_cpu_s"],
        "iter_per_s": iterations / unit["ref_wall_s"],
        "decided_share": unit["decided"] / iterations,
        "answered_share": 1.0 - unit["failed"] / iterations,
        "faults_found": len(unit["faults"]),
        "setup_s": unit["ref_setup_s"],
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def measured_rates(unit):
    """The rates as the host gave them, before rescaling."""
    return {
        "decided_per_s": unit["decided"] / unit["wall_s"],
        "faults_per_cpu_s": len(unit["faults"]) / unit["cpu_s"],
        "setup_s": unit["setup_s"],
        "speed_factor": unit["speed_factor"],
    }


def parallel_figures(twin):
    """The ``parallel.*`` figures of a fleet twin campaign."""
    shards = twin["shards"]
    return {
        "parallel.worker_busy_s": shards["busy_s"],
        "parallel.worker_cpu_s": shards["child_cpu_s"],
        "parallel.idle_share": 1.0 - shards["busy_s"] / (twin["workers"] * twin["wall_s"]),
        "parallel.barrier_wait_s": shards["barrier_wait_s"],
    }


def per_layer(unit, untraced_decided_per_s, twin=None):
    """The per-layer figures of one traced campaign; ``parallel.*`` come
    from the workload's fleet twin, if it has one."""
    layers = dict(unit["layers"])
    wall = unit["wall_s"]
    for prefix in ("session.outcome", "session.theory"):
        hits = layers.get(prefix + ".hit", 0)
        lookups = hits + layers.get(prefix + ".miss", 0)
        layers[prefix + "_hit_rate"] = hits / lookups if lookups else 0.0
    layers["journal.bytes"] = unit["journal_bytes"]
    if twin is not None:
        layers.update(parallel_figures(twin))
    layers["trace.wall_s"] = wall
    layers["trace.unattributed_s"] = wall - tracing.self_time_total(layers)
    traced_decided_per_s = end_to_end(unit)["decided_per_s"]
    layers["trace.overhead"] = (
        untraced_decided_per_s / traced_decided_per_s if traced_decided_per_s else 0.0
    )
    return {name: layers.get(name, 0) for name in PER_LAYER_UNITS}


def check_gates(workload, measured, pinned, twin=None, trace=False):
    """Raise :class:`GateFailure` unless every correctness gate holds."""
    for unit in measured:
        if unit["unattributed"]:
            raise GateFailure(
                f"seed {unit['seed']}: bug records that map to no catalog "
                f"fault: {unit['unattributed'][:5]}"
            )
    first = pinned[0]
    for unit in pinned[1:]:
        for key in ("counters", "faults", "journal_sha256"):
            if unit[key] != first[key]:
                raise GateFailure(f"pinned campaign is not deterministic: {key} differs")
    if twin is not None:
        if twin["journal_sha256"] != first["journal_sha256"]:
            raise GateFailure(
                f"{workload.fleet_twin} journal differs from the serial "
                f"{workload.name} journal on the same inputs"
            )
        if not twin["shards"] or not twin["shards"]["busy_s"] > 0:
            raise GateFailure(f"{workload.fleet_twin}: its workers ran no shard")
    if not trace:
        return
    for unit in measured:
        figures = per_layer(unit, untraced_decided_per_s=0.0)
        if figures["trace.unattributed_s"] < -1e-3:
            raise GateFailure(
                f"seed {unit['seed']}: layer self times exceed the traced wall time"
            )
        for name in workload.busy_layers:
            if not figures[name] > 0:
                raise GateFailure(f"{workload.name}: layer figure {name} is 0, expected work")
        for name in workload.idle_layers:
            if figures[name] != 0:
                raise GateFailure(
                    f"{workload.name}: layer figure {name}={figures[name]}, expected 0"
                )


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def measure(workload, seed, seconds, trace, rundir):
    """Run the campaigns of one benchmark run; returns (context, result)."""
    counter = itertools.count()
    spawned = []

    def unit(unit_seed, traced=trace, timeout=UNIT_TIMEOUT_S, of=workload):
        out = os.path.join(rundir, f"unit-{next(counter):03d}")
        figures = spawn_unit(of, unit_seed, out, trace=traced, timeout=timeout)
        spawned.append(figures)
        return figures

    baseline = unit(workload.pinned_seed, traced=False) if trace else None
    started = time.monotonic()
    try:
        probe = unit(seed, timeout=PROBE_TIMEOUT_S)
    except CampaignTimeout:
        probe = None
    pinned = [unit(workload.pinned_seed)]
    while len(pinned) < MIN_PINNED or (
        time.monotonic() - started + pinned[-1]["process_s"] <= seconds
    ):
        pinned.append(unit(workload.pinned_seed))
    twin = None
    if workload.fleet_twin is not None:
        # Untraced: the tracer cannot see into the spawned workers.
        twin = unit(workload.pinned_seed, traced=False, of=FLEET_TWINS[workload.fleet_twin])
    measured = pinned if probe is None else [probe] + pinned
    check_gates(workload, measured, pinned, twin, trace)

    if trace:
        untraced = end_to_end(baseline)["decided_per_s"]
        figures = [per_layer(u, untraced, twin) for u in pinned]
        units = PER_LAYER_UNITS
    else:
        figures = [end_to_end(u) for u in pinned]
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": statistics.median(f[name] for f in figures), "unit": unit_name}
        for name, unit_name in units.items()
    }
    if not trace:
        # Every campaign of the run sets up the same way: all are samples.
        metrics["setup_s"]["value"] = statistics.median(u["ref_setup_s"] for u in spawned)
    result = {
        "correct": True,
        "attempted": len(spawned) + int(probe is None),  # campaigns started
        "failed": int(probe is None),
        "metrics": metrics,
    }
    context = {
        "workload": workload.name,
        "seed": seed,
        "heldout_seed": seed + HELDOUT_OFFSET,
        "pinned_seed": workload.pinned_seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "campaigns": len(measured),
        "failed_iterations": sum(u["failed"] for u in measured),
        "probe": end_to_end(probe) if probe is not None else "timed out",
        "pinned_journal_sha256": pinned[0]["journal_sha256"],
        "samples": {name: [f[name] for f in figures] for name in units},
        "setup_samples": [u["ref_setup_s"] for u in spawned],
        "measured": [measured_rates(u) for u in pinned],
        "fleet_twin": None if twin is None else {
            "name": workload.fleet_twin,
            "measured_decided_per_s": twin["decided"] / twin["wall_s"],
            **parallel_figures(twin),
        },
    }
    return context, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "campaign", "runner.py")):
        print("verdict_bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # One directory per workload and mode: a traced run replaces the span
    # dumps of the previous one instead of piling up.
    rundir = os.path.join(WORK, f"{workload.name}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        context, result = measure(workload, args.seed, args.seconds, bool(args.trace), rundir)
    except GateFailure as failure:
        print(f"verdict_bench: correctness gate failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except RuntimeError as error:
        print(f"verdict_bench: {error}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            # Traced runs keep their span dumps for inspection.
            shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
