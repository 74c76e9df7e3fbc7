#!/usr/bin/env bash
# The tier-1 CI gate, runnable locally and in any runner.
#
# Nine stages, strictly ordered so the cheapest failures surface first:
#
#   1. AST lint  — term nodes must be built via the interning
#      constructors, the observability layer must never import random
#      (telemetry cannot be allowed to perturb the campaign's RNG
#      streams), the campaign core must stay strategy-agnostic (no
#      fusion/concatfuzz imports in yinyang.py), no pool executor
#      appears anywhere under src/ (every multi-worker run is a
#      supervised lease on the worker fleet; no second, bare pool
#      path), Supervisor and
#      ShardTask are only built by distributed/coordinator.py (plus the
#      wire codec for tasks: one lease planner), the iteration body
#      (YinYang._one_iteration) has exactly one caller, the cell loop
#      YinYang.run_cell that serial campaigns and fleet leases share
#      (one loop over iteration indices), and every check_script takes
#      directive and session parameters (one call shape through every
#      solver layer); and the benchmark's layer tracer
#      (verdict_bench/tracing.py) still finds every name it wraps.
#   2. Strategy determinism — the default fusion strategy must
#      reproduce the pre-refactor golden journal byte-for-byte, and
#      opfuzz must journal identically across modes/worker counts.
#   3. Telemetry determinism — journals must stay byte-identical with
#      metrics off, on, or traced, across modes and worker counts.
#   4. Triage + session determinism — with the tier policy on, journals
#      must stay byte-identical across worker counts, every definite
#      full-budget verdict must survive tiering (verdict equivalence),
#      and a fault-injected campaign must find the same bugs with
#      triage on and off; incremental sessions are exact replays (an
#      iteration-scoped outcome cache and the campaign's theory memo),
#      so versus the cold loop they must change no verdict, unknowns
#      included, find the same bugs and journal the same cells, and
#      the campaign-scoped theory memo (shared by every cell and
#      opfuzz's oracle) must be a pure replay: golden opfuzz journals, oracle verdicts and
#      gensym positions unchanged, no leakage between campaigns; so
#      must the string solver's per-check literal verdict memo: golden
#      string-family journals and fired probes, one fold per literal
#      and assignment of its variables; and so must refutation-only
#      conflict-minimization probes: golden arithmetic journals, the
#      same cores and UNSAT probes as full-strength probes, probe
#      answers never replayed to a full check, and a per-search atom
#      table equal to fresh atom_to_poly calls; and so must the exact
#      arithmetic kernels (tests/test_arith_kernels.py): every ICP call
#      (answer, contraction rounds) and every linear check (status,
#      model) of small campaigns matches its golden sha256, also under
#      other PYTHONHASHSEED values, and the interval operations and the
#      simplex delta pass Hypothesis soundness properties; and so must
#      the (family, oracle) cell layout (tests/test_one_draw_per_mutant.py):
#      two-solver campaigns journal their golden bytes and per-solver
#      report counters, each mutant is drawn, triaged and oracle-solved
#      once for all solvers, every check of a mutant starts at one
#      fresh-name position, quarantine stays in its solver's report,
#      and a resume reruns only the solvers whose reports were held.
#   5. Fast lane — the full suite minus the soak/slow markers
#      (see pyproject.toml; run the slow and chaos lanes nightly:
#      `pytest -m slow` / `pytest -m chaos`).
#   6. Fault tolerance — the acceptance property of the supervised
#      worker fleet every process campaign runs on: seeded chaos
#      kills of worker processes must leave the merged
#      journal byte-identical to a failure-free deterministic run, and
#      a permanently poisonous iteration must be quarantined, under
#      the name of its death (killed, oom-kill, cpu-kill, hang-kill,
#      oom, worker-error), instead of aborting the campaign; a hung
#      worker started by hand is disconnected, never signalled.
#   7. Bench smoke — every benchmark row of the strategy and harness
#      overhead benches must *run* (tiny iteration counts,
#      REPRO_BENCH_SMOKE=1: no timing assertions, no result files
#      written), so a broken bench harness fails CI instead of the
#      next full benchmark run.
#   8. Distributed fleet — the socket transport end-to-end through the
#      real CLI: a two-worker localhost fleet under tiny budgets, a
#      non-default steal order and seeded frame chaos, plus the fleet
#      chaos soak, must merge to the byte-identical serial journal (the
#      nightly slow lane re-runs the 4-worker shape).
#   9. QF_BV theory — the SAT kernel's pinned search trajectories
#      (tests/test_sat_solver.py: conflicts, decisions, propagations and
#      models on seeded CNF and bit-blasting instances must match their
#      golden values, so a kernel change that moves the search fails in
#      seconds), then the pluggable-theory path end-to-end through the
#      real CLI: deterministic bit-vector campaigns (fusion and opfuzz,
#      --triage --incremental) run serially and on a two-worker
#      process fleet, and the journals must be byte-identical.
#
# Stages 1-4 are subsets of stage 5; running them first just makes
# the common failure modes fail in seconds instead of minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1/9: AST lint (interning, no RNG in telemetry, strategy-agnostic core, no pool executors, one lease planner, one cell loop, one check_script shape) and the bench tracer seam =="
python -m pytest tests/test_ast_lint.py \
    "tests/test_observability.py::TestHotPathHygiene" \
    tests/test_bench_tracer_seam.py -q

echo "== stage 2/9: strategy determinism (golden fusion journal, opfuzz byte-identity) =="
python -m pytest tests/test_strategies.py -q -m "not slow"

echo "== stage 3/9: telemetry determinism (journal byte-identity) =="
python -m pytest tests/test_parallel_determinism.py -q -m "not slow"

echo "== stage 4/9: triage + session determinism (verdict equivalence, bug-finding power, theory memo replay, string verdict memo: tests/test_strings_memo.py, refutation-only probes: tests/test_refute_probes.py, exact arithmetic kernels: tests/test_arith_kernels.py, one draw per mutant: tests/test_one_draw_per_mutant.py) =="
python -m pytest tests/test_triage.py tests/test_session.py tests/test_theory_memo.py \
    tests/test_strings_memo.py tests/test_refute_probes.py tests/test_arith_kernels.py \
    tests/test_one_draw_per_mutant.py -q -m "not slow"

echo "== stage 5/9: fast lane (full suite minus slow/chaos) =="
python -m pytest -m "not slow and not chaos" -q

echo "== stage 6/9: fault tolerance (chaos-kill determinism, poison quarantine) =="
python -m pytest tests/test_supervisor.py -q
python -m pytest tests/test_supervised_campaign.py -q

echo "== stage 7/9: bench smoke (strategy and harness-overhead rows run; no timing assertions) =="
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_strategies.py -q
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_harness_overhead.py -q

echo "== stage 8/9: distributed fleet (process fleet vs serial baseline, chaos soak) =="
python -m pytest tests/test_distributed.py -q -m "not slow"
fleetdir="$(mktemp -d)"
trap 'rm -rf "$fleetdir"' EXIT
python -m repro.cli campaign \
    --mode process --workers 2 --steal-seed 3 \
    --net-chaos "drop=0.5;dup=0.5;delay=0.2;delay_seconds=0.005;seed=9" \
    --iterations 6 --scale 0.0015 --seed 1 --deterministic \
    --journal "$fleetdir/fleet.jsonl"
python -m repro.cli campaign \
    --iterations 6 --scale 0.0015 --seed 1 --deterministic \
    --journal "$fleetdir/serial.jsonl" > /dev/null
cmp "$fleetdir/fleet.jsonl" "$fleetdir/serial.jsonl" \
    || { echo "fleet journal differs from serial journal" >&2; exit 1; }
if compgen -G "$fleetdir/*.jsonl.*" > /dev/null; then
    echo "transient files (lease logs, .tmp) left beside a journal" >&2
    exit 1
fi
echo "fleet smoke OK: fleet journal byte-identical to serial"

echo "== stage 9/9: QF_BV theory (pinned SAT search, bit-blasting campaign, serial vs process byte-identity) =="
python -m pytest tests/test_sat_solver.py tests/test_theory_registry.py tests/test_bv_properties.py -q
bvdir="$(mktemp -d)"
trap 'rm -rf "$fleetdir" "$bvdir"' EXIT
for strategy in fusion opfuzz; do
    python -m repro.cli campaign \
        --logic QF_BV --strategy "$strategy" --deterministic \
        --triage --incremental \
        --iterations 20 --scale 0.02 --seed 0 \
        --journal "$bvdir/$strategy-serial.jsonl" > /dev/null
    python -m repro.cli campaign \
        --logic QF_BV --strategy "$strategy" --deterministic \
        --triage --incremental \
        --mode process --workers 2 \
        --iterations 20 --scale 0.02 --seed 0 \
        --journal "$bvdir/$strategy-process2.jsonl" > /dev/null
    cmp "$bvdir/$strategy-serial.jsonl" "$bvdir/$strategy-process2.jsonl" \
        || { echo "QF_BV $strategy process journal differs from serial" >&2; exit 1; }
    if compgen -G "$bvdir/$strategy-*.jsonl.*" > /dev/null; then
        echo "QF_BV $strategy transient files (lease logs, .tmp) left beside a journal" >&2
        exit 1
    fi
done
echo "QF_BV smoke OK: fusion and opfuzz journals byte-identical across shapes"

echo "CI gate passed."
