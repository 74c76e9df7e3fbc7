"""Process-sharded execution of Algorithm 1: supervised worker leases.

The paper's campaign is embarrassingly parallel — every fuse→solve→
check iteration is independent — but the solvers under test here are
pure Python, so one interpreter runs one iteration at a time. This
module shards the iteration index space across a persistent
``multiprocessing`` pool (spawn start method, so it is safe under any
embedding):

- each worker process receives the campaign's frozen
  :class:`~repro.core.config.CampaignSpec` once, at startup, and every
  lease it then runs carries only what differs per lease (the cell's
  seeds, the shard, the lease bookkeeping);
- each worker process builds its **own solver instances** once, from
  the spec's picklable ``solver_factory`` (live solvers hold locks and
  caches and must not cross the spawn boundary);
- each worker keeps a **parse cache** for seed formulas: seeds travel
  to workers as SMT-LIB text and are parsed (which typechecks — the
  parser validates sorts as it goes) at most once per worker, no
  matter how many cells and shards reuse them;
- each worker owns its **fresh-name state** (thread-local gensyms) and
  every iteration runs inside its own ``fresh_scope()``, so a fused
  script is a pure function of ``(seed, iteration index)`` — shard
  boundaries can never shift a gensym.

Because iterations are self-contained, merging the shards of any
worker count reproduces the single-worker report bit-for-bit (see
``tests/test_parallel_determinism.py``); parallelism can never
silently alter the oracle. The one deliberate exception is quarantine:
a circuit breaker trips on *consecutive* failures, an order-dependent
notion, so the parent aggregates quarantined names from merged shard
reports and re-broadcasts them to workers via
:meth:`~repro.robustness.guard.GuardedSolver.force_quarantine`.

Every shard is a **lease** run under a
:class:`~repro.robustness.supervisor.Supervisor`, whose process
backend is :class:`SupervisedPoolBackend` (the socket backend is
:class:`~repro.distributed.endpoint.TcpFleet`). A lease runs an
iteration-by-iteration loop that heartbeats before each iteration,
fires planned :class:`~repro.robustness.chaos.ProcessChaos` faults,
and checkpoints every completed iteration to a crash-safe
:class:`~repro.robustness.journal.ShardProgress` log when it has one.
Because each iteration is a pure function of ``(strategy, seed,
index)``, a lease re-executed on a respawned worker replays its
checkpoints and re-runs only the missing iterations — the merged
report (and therefore the campaign journal) is byte-identical to a
failure-free run. The same replay carries a campaign across a crash of
the parent: a resumed campaign leases its unjournaled cells again.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.core.yinyang import YinYang, merge_shard_reports, shard_indices


def _spawn_context():
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class ShardTask:
    """One lease of one cell: shard ``shard`` of the cell's iterations.

    The campaign constants (seed, strategy, iterations per cell, shard
    count) are not here: the worker reads them from its
    :class:`~repro.core.config.CampaignSpec`, which it receives once.
    A root lease runs ``range(shard, spec.iterations_per_cell,
    spec.workers)``.
    """

    oracle: str
    seed_texts: tuple
    logics: tuple
    shard: int
    cell: tuple | None = None  # (solver, family, oracle) for journaling
    solver_names: tuple | None = None  # None = all of the worker's solvers
    quarantined: tuple = ()  # names to pre-quarantine (cross-worker breaker)
    # Lease fields (stamped by the Supervisor). ``indices`` overrides
    # the strided index set — bisected child leases carry an explicit
    # slice of the parent shard's iterations. ``lease_id`` names the
    # lease's heartbeat file in ``heartbeat_dir``; ``progress_path`` is
    # its crash-safe checkpoint log; ``attempt`` gates planned chaos
    # faults so injected deaths stop on retry.
    indices: tuple | None = None
    attempt: int = 0
    lease_id: int | None = None
    heartbeat_dir: str | None = None
    progress_path: str | None = None


def serialize_seeds(seeds):
    """Seeds as (SMT-LIB texts, logics) — the picklable wire format."""
    from repro.smtlib.printer import print_script

    texts, logics = [], []
    for seed in seeds:
        script = getattr(seed, "script", seed)
        texts.append(print_script(script))
        logics.append(getattr(seed, "logic", ""))
    return tuple(texts), tuple(logics)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_STATE = None  # per-process _WorkerState, set by install_worker_state


class _WorkerState:
    """What one worker process owns for its whole lifetime."""

    def __init__(self, spec, telemetry):
        self.spec = spec
        solvers = spec.solver_factory()
        solvers = list(solvers) if isinstance(solvers, (list, tuple)) else [solvers]
        if spec.policy is not None:
            from repro.robustness.guard import GuardedSolver

            solvers = [
                s if isinstance(s, GuardedSolver) else GuardedSolver(s, spec.policy)
                for s in solvers
            ]
        self.solvers = solvers
        self.by_name = {s.name: s for s in solvers}
        self.telemetry_config = telemetry
        self.parse_cache = {}
        # The worker's theory memo, shared by every lease it runs: a
        # memo hit replays the miss exactly, so which worker ran which
        # cell before cannot show in any journal byte.
        self.theory_memo = {} if spec.config.incremental else None

    def scripts_for(self, seed_texts):
        """Parse (and thereby typecheck) seed texts, cached per worker."""
        scripts = []
        for text in seed_texts:
            script = self.parse_cache.get(text)
            if script is None:
                from repro.smtlib.parser import parse_script

                script = self.parse_cache[text] = parse_script(text)
            scripts.append(script)
        return scripts


def install_worker_state(spec, telemetry=None):
    """Adopt the calling process as a worker of campaign ``spec``.

    Pool children get here via the executor's initializer; a socket
    fleet worker (:mod:`repro.distributed.worker`) calls it directly
    after receiving its spec frame. Either way the process ends up with
    the same :class:`_WorkerState` — same solvers, caches, containment
    — so every transport runs leases through identical machinery.
    Besides the spec, a worker needs only what it cannot derive from
    it: ``telemetry``, a picklable
    :class:`~repro.observability.telemetry.TelemetryConfig` (live
    registries must not cross the spawn boundary; each shard builds its
    own Telemetry and ships a snapshot back with its results).
    """
    global _STATE
    if spec.containment is not None:
        # Before anything else allocates: the rlimits bound the whole
        # worker lifetime, solver construction included.
        spec.containment.apply()
    _STATE = _WorkerState(spec, telemetry)


def run_worker_task(task):
    """Run one :class:`ShardTask` lease in this worker; return its payload.

    The entry point of pool children and tcp fleet workers alike. The
    payload is JSON-clean: it crosses pickling pipes and socket frames
    identically.
    """
    from repro.robustness.journal import serialize_report

    state = _STATE
    spec = state.spec
    scripts = state.scripts_for(task.seed_texts)
    if task.solver_names is None:
        solvers = state.solvers
    else:
        solvers = [state.by_name[name] for name in task.solver_names]
    for name in task.quarantined:
        solver = state.by_name.get(name)
        if solver is not None and hasattr(solver, "force_quarantine"):
            solver.force_quarantine()
    # One Telemetry per shard (not per worker): each payload carries a
    # clean per-shard snapshot, so the parent's merge — which sums
    # counters like it sums shard reports — never double-counts a
    # long-lived worker's history.
    from repro.observability.telemetry import Telemetry

    telemetry = Telemetry.from_config(state.telemetry_config)
    try:
        tool = YinYang(
            solvers,
            config=spec.config,
            performance_threshold=spec.performance_threshold,
            telemetry=telemetry,
            strategy=spec.strategy,
            theory_memo=state.theory_memo,
        )
        report = _run_leased(state, tool, task, scripts)
        telemetry_snapshot = telemetry.snapshot() if telemetry is not None else None
    finally:
        if telemetry is not None:
            telemetry.close()
    return {
        "report": serialize_report(report, unknown_split=True),
        "elapsed": report.elapsed,
        "pid": os.getpid(),
        "telemetry": telemetry_snapshot,
        "guards": [
            s.guard_state() for s in solvers if hasattr(s, "guard_state")
        ],
    }


def _run_leased(state, tool, task, scripts):
    """The per-iteration loop for one shard lease.

    Order per iteration: replay a checkpoint if one exists, else
    heartbeat (so a death at this iteration is attributable), fire any
    planned chaos fault, run the iteration, checkpoint it. Because each
    iteration is self-contained, the merge of per-iteration reports is
    exactly the report of one uninterrupted ``run_iterations`` call
    over the same indices — crash recovery cannot change the campaign's
    output, only how many times the work was attempted.
    """
    from repro.robustness.journal import (
        ShardProgress,
        deserialize_report,
        serialize_report,
    )
    from repro.robustness.supervisor import write_heartbeat

    spec = state.spec
    if task.indices is not None:
        indices = list(task.indices)
    else:
        indices = list(
            shard_indices(spec.iterations_per_cell, task.shard, spec.workers)
        )
    progress = None
    if task.progress_path:
        # The campaign's full lease meta: a log of any other campaign
        # (another partition, or any setting flipped) is discarded.
        progress = ShardProgress(
            task.progress_path, meta=dict(spec.describe()[1], shard=task.shard)
        )
    work = tool.prepare_work(task.oracle, scripts, list(task.logics))
    # The incremental session's lifetime is the lease, not one index
    # batch: created here, passed into every run_iterations call, and
    # destroyed (with the lease) below. A lease retried after a crash
    # builds a fresh session, and the session's reuse is answer-
    # invariant, so shard re-execution cannot observe cache state.
    session = tool.make_session(work)
    chaos = spec.chaos_process
    reports = []
    start = time.perf_counter()
    try:
        for index in indices:
            if progress is not None and index in progress.completed:
                reports.append(deserialize_report(progress.completed[index]))
                continue
            if task.heartbeat_dir:
                write_heartbeat(
                    task.heartbeat_dir, task.lease_id, os.getpid(), task.attempt, index
                )
            if chaos is not None:
                chaos.fire(index, task.attempt)
            report = tool.run_iterations(
                task.oracle,
                scripts,
                list(task.logics),
                [index],
                work=work,
                session=session,
            )
            if progress is not None:
                progress.record(index, serialize_report(report, unknown_split=True))
            reports.append(report)
    finally:
        if session is not None:
            session.close()
    merged = merge_shard_reports(reports)
    # The merge keeps the slowest *iteration*; the lease's busy time is
    # its whole loop (what the shard counters and barrier figures mean).
    merged.elapsed = time.perf_counter() - start
    return merged


def reconstruct_iteration_script(spec, task, index):
    """Rebuild iteration ``index``'s mutated script text in the parent.

    Used for poison artifacts: the killer iteration's formula is a pure
    function of ``(strategy, seed, index)`` over the task's seeds, so
    the coordinator can regenerate it without any worker — mutation
    needs no solvers. Returns ``None`` when the iteration's mutation
    draw failed (such an iteration runs no solver and can only die to
    injected chaos).
    """
    from repro.core.yinyang import iteration_rng
    from repro.errors import MutationError
    from repro.observability.telemetry import NULL_TELEMETRY
    from repro.smtlib.ast import fresh_scope
    from repro.smtlib.parser import parse_script
    from repro.smtlib.printer import print_script
    from repro.strategies.registry import make_strategy

    strat = make_strategy(spec.strategy, spec.config.fusion)
    scripts = [parse_script(text) for text in task.seed_texts]
    work = strat.prepare(task.oracle, scripts, list(task.logics))
    rng = iteration_rng(spec.seed, index)
    with fresh_scope():
        try:
            mutant = strat.mutate(rng, work, NULL_TELEMETRY)
        except MutationError:
            return None
        return print_script(mutant.script)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class SupervisedPoolBackend:
    """The process backend a :class:`~repro.robustness.supervisor.Supervisor`
    drives: a persistent, respawnable pool of campaign workers.

    Created once and reused across every cell of a campaign: worker
    startup (spawn + imports + solver construction) is paid once, and
    the per-worker parse cache keeps earning across cells that share
    seed corpora. Each of the ``spec.workers`` workers is installed by
    ``install_worker_state(spec, telemetry)``. Owns the
    heartbeat directory workers write into (a private temp dir) and
    translates pool breakage into the supervisor's vocabulary:
    ``respawn()`` tears down the broken executor, reports how every old
    worker exited (by pid), and stands up a fresh pool so requeued
    leases have somewhere to run.
    """

    broken_exceptions = (BrokenProcessPool,)

    def __init__(self, spec, telemetry=None):
        self.spec = spec
        self._initargs = (spec, telemetry)
        self._closed = False
        self.heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
        self._executor = self._start()

    def _start(self):
        return ProcessPoolExecutor(
            max_workers=self.spec.workers,
            mp_context=_spawn_context(),
            initializer=install_worker_state,
            initargs=self._initargs,
        )

    def submit(self, task):
        if self._closed:
            raise RuntimeError("cannot submit to a closed SupervisedPoolBackend")
        return self._executor.submit(run_worker_task, task)

    def respawn(self):
        """Replace the broken pool; return {pid: exitcode} of old workers."""
        if self._closed:
            raise RuntimeError("cannot respawn a closed SupervisedPoolBackend")
        old = self._executor
        # The executor's process table has no public API, but the
        # attribute has been stable across CPython versions and is the
        # only way to attribute deaths to pids.
        processes = dict(getattr(old, "_processes", None) or {})
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        exitcodes = {}
        for pid, proc in processes.items():
            try:
                proc.join(timeout=5)
                exitcodes[pid] = proc.exitcode
            except Exception:
                exitcodes[pid] = None
        self._executor = self._start()
        return exitcodes

    def kill_worker(self, pid):
        """SIGKILL one worker (hang recovery: stale heartbeat)."""
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass  # already gone

    def close(self):
        # Idempotent and exception-safe: a second close is a no-op, and
        # the heartbeat dir is removed even when the pool's shutdown
        # raises — a coordinator tearing down after an error must not
        # leak temp dirs or double-kill a pool it already closed.
        if self._closed:
            return
        self._closed = True
        try:
            # cancel_futures: once the pool is coming down (error or
            # exit), queued shards must be dropped, not left to run
            # against a half-torn-down parent.
            self._executor.shutdown(wait=True, cancel_futures=True)
        finally:
            shutil.rmtree(self.heartbeat_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def collect_shard(payload):
    """Deserialize a worker payload back into a YinYangReport.

    The report's scripts come back as SMT-LIB text (exactly what the
    journal stores); ``elapsed`` — excluded from the deterministic
    serialization — is restored from the payload side-channel so
    throughput accounting still works.
    """
    from repro.robustness.journal import deserialize_report

    report = deserialize_report(payload["report"])
    report.elapsed = payload["elapsed"]
    return report
