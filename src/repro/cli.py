"""The ``yinyang`` command line.

Mirrors the paper's tool surface: point it at seed files (or a
generated corpus) and a solver under test, and it fuses seed pairs and
reports inconsistencies. The reproduction adds subcommands for the
built-in buggy solvers, seed generation, single-shot fusion, and bug
reduction.

Examples::

    yinyang fuse --oracle sat seed1.smt2 seed2.smt2
    yinyang test --oracle unsat --solver z3-like --corpus QF_S --iterations 200
    yinyang test --oracle sat --strategy opfuzz --corpus QF_LIA
    yinyang generate --family QF_NRA --oracle unsat --count 5
    yinyang check formula.smt2 --solver reference
    yinyang strategies
    yinyang campaign --mode process --workers 2 --deterministic
    yinyang worker --connect 127.0.0.1:7777
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import FusionConfig, YinYangConfig
from repro.core.fusion import fuse_scripts
from repro.core.yinyang import YinYang
from repro.errors import CampaignSpecError
from repro.faults.catalog import catalog_for
from repro.faults.faulty_solver import FaultySolver
from repro.robustness.journal import JournalError
from repro.seeds import build_corpus
from repro.smtlib.parser import parse_script
from repro.smtlib.printer import print_script
from repro.solver.result import SolverCrash
from repro.solver.solver import ReferenceSolver
from repro.strategies import iter_strategies, strategy_names


def _load_script(path):
    with open(path, encoding="utf-8") as handle:
        return parse_script(handle.read())


def make_solver(name, release="trunk"):
    """Instantiate a solver by name: reference | z3-like | cvc4-like."""
    if name == "reference":
        return ReferenceSolver()
    return FaultySolver(ReferenceSolver(), catalog_for(name), name, release=release)


def make_solver_list(name, release="trunk"):
    """A one-solver list for process-mode worker factories.

    Module-level (so :func:`functools.partial` over it pickles) — each
    spawned worker rebuilds its own solver instance from the name.
    """
    return [make_solver(name, release)]


def _solver_factory(args):
    import functools

    return functools.partial(make_solver_list, args.solver, args.release)


def _policy_from_args(args):
    """A ResiliencePolicy when any hardening flag was given, else None."""
    if not (args.retries or args.check_timeout or args.quarantine_after):
        return None
    from repro.robustness import ResiliencePolicy

    return ResiliencePolicy(
        check_timeout=args.check_timeout,
        retries=args.retries,
        quarantine_after=args.quarantine_after,
    )


def _supervision_from_args(args):
    """(SupervisorPolicy or None, ContainmentPolicy or None) from the
    supervision tuning and worker-limit flags.

    Process campaigns are always supervised; ``None`` means
    the default policy (respectively no rlimits).
    """
    from repro.robustness import ContainmentPolicy, SupervisorPolicy

    policy_kwargs = {}
    if args.max_worker_restarts is not None:
        policy_kwargs["max_worker_restarts"] = args.max_worker_restarts
    if args.max_shard_retries is not None:
        policy_kwargs["max_shard_retries"] = args.max_shard_retries
    if args.heartbeat_timeout is not None:
        policy_kwargs["heartbeat_timeout"] = args.heartbeat_timeout
    supervise = SupervisorPolicy(**policy_kwargs) if policy_kwargs else None
    containment = None
    if args.worker_mem_limit is not None or args.worker_cpu_limit is not None:
        containment = ContainmentPolicy(
            mem_limit_mb=args.worker_mem_limit,
            cpu_limit_seconds=args.worker_cpu_limit,
        )
    return supervise, containment


def _telemetry_from_args(args):
    """A Telemetry when any observability flag was given, else None."""
    if not (args.metrics or args.trace or getattr(args, "coverage", False)):
        return None
    from repro.observability import Telemetry

    return Telemetry(
        trace=args.trace,
        profile=True,
        coverage=getattr(args, "coverage", False),
    )


def _finish_telemetry(telemetry, args):
    """Write the metrics sidecar (out-of-band, never the journal)."""
    if telemetry is None:
        return
    try:
        if args.metrics:
            telemetry.write(args.metrics)
            print(f"metrics written to {args.metrics}")
        elif args.trace:
            # No sidecar requested: show the phase profile directly.
            from repro.campaign.report import render_table
            from repro.observability.trace import phase_rows

            rows = [
                (name, calls, f"{total:.3f}s", f"{mean * 1e3:.2f}ms")
                for name, calls, total, mean, _p90 in phase_rows(
                    telemetry.snapshot()
                )
            ]
            if rows:
                print(
                    render_table(
                        ["phase", "calls", "total", "mean"],
                        rows,
                        "Phase profile (wall time)",
                    )
                )
    finally:
        telemetry.close()


def _add_telemetry_flags(parser, coverage=False):
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="collect campaign metrics and write them to PATH as JSON "
        "(a sidecar — journal bytes are unaffected)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace per-phase wall times (seed-pick/fuse/solve/oracle-check) "
        "into fixed-bucket histograms",
    )
    if coverage:
        parser.add_argument(
            "--coverage",
            action="store_true",
            help="accumulate solver probe coverage across all cells into "
            "the metrics (cumulative, not per-cell)",
        )


def _add_strategy_flag(parser):
    parser.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="fusion",
        help="mutation strategy (see `yinyang strategies`); opfuzz uses a "
        "differential oracle instead of fusion's metamorphic one",
    )


def _add_triage_flag(parser):
    parser.add_argument(
        "--triage",
        action="store_true",
        help="route each mutant to a solve-budget tier by structural "
        "difficulty (nonlinear terms, quantifier depth, string ops, "
        "size); hopeless mutants fail fast instead of burning the "
        "full budget",
    )


def _add_incremental_flag(parser):
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="per-cell incremental solver sessions: replay exact "
        "outcome and theory-check answers across the shared-seed "
        "mutant stream (journals the same cells as a cold run, in "
        "every mode and at every worker count)",
    )


def _add_resilience_flags(parser):
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry transient solver failures this many times (capped backoff)",
    )
    parser.add_argument(
        "--check-timeout",
        type=float,
        default=None,
        help="wall-clock deadline per check in seconds (watchdog)",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        help="quarantine a solver after N consecutive crashes/timeouts",
    )


def _cmd_fuse(args):
    phi1 = _load_script(args.seeds[0])
    phi2 = _load_script(args.seeds[1])
    config = FusionConfig(
        max_pairs=args.pairs, substitution_probability=args.probability
    )
    fused = fuse_scripts(args.oracle, phi1, phi2, seed=args.seed, config=config)
    sys.stdout.write(print_script(fused))
    return 0


def _cmd_check(args):
    solver = make_solver(args.solver, args.release)
    script = _load_script(args.file)
    try:
        outcome = solver.check_script(script)
    except SolverCrash as crash:
        print(f"crash: {crash}")
        return 2
    print(outcome.result)
    return 0


def _cmd_generate(args):
    corpus = build_corpus(args.family, scale=0.0001, seed=args.seed)
    wanted = [s for s in corpus.seeds if s.oracle == args.oracle]
    import random

    from repro.seeds.corpus import _generate

    rng = random.Random(args.seed)
    while len(wanted) < args.count:
        wanted.append(_generate(args.family, args.oracle, rng))
    for seed in wanted[: args.count]:
        sys.stdout.write(f"; oracle: {seed.oracle}  logic: {seed.logic}\n")
        sys.stdout.write(print_script(seed.script))
        sys.stdout.write("\n")
    return 0


def _cmd_reduce(args):
    buggy = make_solver(args.solver, args.release)
    trusted = make_solver("reference")
    script = _load_script(args.file)
    from repro.reduce import reduce_script
    from repro.solver.result import SolverResult

    if args.expect == "crash":

        def still_buggy(candidate):
            try:
                buggy.check_script(candidate)
            except SolverCrash:
                return True
            return False

    else:
        expected = SolverResult.from_string(args.expect)

        def still_buggy(candidate):
            try:
                outcome = buggy.check_script(candidate)
            except SolverCrash:
                return False
            if outcome.result is not expected.flipped():
                return False
            return trusted.check_script(candidate).result is not expected.flipped()

    reduced = reduce_script(script, still_buggy)
    sys.stdout.write(print_script(reduced))
    return 0


def _cmd_worker(args):
    """Serve a fleet coordinator: ``yinyang worker --connect HOST:PORT``."""
    from repro.distributed import run_worker

    return run_worker(args.connect, connect_timeout=args.connect_timeout)


def _cmd_campaign(args):
    from repro.campaign import (
        figure8a_rows,
        figure8b_rows,
        figure8c_rows,
        render_shard_table,
        render_table,
        run_campaign,
    )
    from repro.seeds import build_all_corpora

    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    logic = getattr(args, "logic", None)
    if logic:
        # A logic-restricted campaign: one corpus family, with the
        # matching fault catalogs (QF_BV swaps in the BV catalog).
        corpora = {logic: build_corpus(logic, scale=args.scale, seed=args.seed)}
    else:
        corpora = build_all_corpora(scale=args.scale, seed=args.seed)
    solver_factory = None
    performance_threshold = args.perf_threshold or None
    if args.deterministic:
        # Reproducible byte-for-byte: no wall-clock solver deadline and
        # no wall-clock performance classification.
        from repro.campaign import solver_factory_for_logic

        solver_factory = solver_factory_for_logic(logic, deterministic=True)
        performance_threshold = None
    elif logic:
        from repro.campaign import solver_factory_for_logic

        solver_factory = solver_factory_for_logic(logic)
    telemetry = _telemetry_from_args(args)
    supervise, containment = _supervision_from_args(args)
    listen = None
    if args.listen:
        from repro.distributed.protocol import parse_address

        listen = parse_address(args.listen)
    net_chaos = None
    if args.net_chaos:
        from repro.distributed import parse_net_chaos

        net_chaos = parse_net_chaos(args.net_chaos)
    try:
        result = run_campaign(
            corpora,
            iterations_per_cell=args.iterations,
            seed=args.seed,
            performance_threshold=performance_threshold,
            policy=_policy_from_args(args),
            journal=args.journal,
            resume=args.resume,
            mode=args.mode,
            workers=args.workers,
            solver_factory=solver_factory,
            telemetry=telemetry,
            strategy=args.strategy,
            supervise=supervise,
            containment=containment,
            triage=args.triage,
            incremental=args.incremental,
            logic=logic,
            steal_seed=args.steal_seed,
            listen=listen,
            spawn_workers=args.spawn_workers,
            net_chaos=net_chaos,
        )
    except (CampaignSpecError, JournalError) as exc:
        # Raised before any work: flags the chosen --mode would ignore,
        # or a --journal this run must not append to.
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    _finish_telemetry(telemetry, args)
    shard_table = render_shard_table(result)
    if shard_table:
        print(shard_table)
    headers = ["", "Z3", "CVC4", "Z3(paper)", "CVC4(paper)"]
    print(render_table(headers, figure8a_rows(result), "Figure 8a"))
    print(render_table(headers, figure8b_rows(result), "Figure 8b"))
    print(render_table(headers, figure8c_rows(result), "Figure 8c"))
    return 0


def _cmd_test(args):
    solver = make_solver(args.solver, args.release)
    corpus = build_corpus(args.corpus, scale=args.scale, seed=args.seed)
    seeds = corpus.by_oracle(args.oracle)
    if not seeds:
        print(f"no {args.oracle} seeds in corpus {args.corpus}", file=sys.stderr)
        return 1
    config = YinYangConfig(
        fusion=FusionConfig(
            max_pairs=args.pairs, substitution_probability=args.probability
        ),
        seed=args.seed,
        triage=args.triage,
        incremental=args.incremental,
    )
    telemetry = _telemetry_from_args(args)
    tool = YinYang(
        solver,
        config,
        performance_threshold=args.perf_threshold,
        policy=_policy_from_args(args),
        telemetry=telemetry,
        strategy=args.strategy,
    )
    report = tool.test(
        args.oracle,
        seeds,
        iterations=args.iterations,
        mode=args.mode,
        workers=args.workers,
        solver_factory=_solver_factory(args) if args.mode == "process" else None,
    )
    print(report.summary())
    print(f"throughput: {report.throughput:.1f} fused formulas/s")
    _finish_telemetry(telemetry, args)
    for i, bug in enumerate(report.bugs[: args.show]):
        print(f"--- bug {i}: {bug}")
        sys.stdout.write(print_script(bug.script))
    return 0


def _cmd_strategies(args):
    from repro.campaign.report import render_table

    rows = [
        (name, str(seeds), kind, theories, "/".join(s.logics()), summary)
        for s in iter_strategies()
        for name, seeds, kind, theories, summary in (s.describe(),)
    ]
    print(
        render_table(
            ["strategy", "seeds/iter", "oracle", "theories", "logics", "description"],
            rows,
            "Registered mutation strategies",
        )
    )
    return 0


def _cmd_stats(args):
    from repro.observability.stats import render_stats
    from repro.observability.telemetry import load_snapshot

    snapshot = load_snapshot(args.metrics) if args.metrics else None
    sys.stdout.write(render_stats(args.journal, snapshot))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="yinyang",
        description="Semantic Fusion testing for SMT solvers (PLDI 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="fuse two seed scripts once")
    p_fuse.add_argument("seeds", nargs=2, help="two SMT-LIB files with equal satisfiability")
    p_fuse.add_argument("--oracle", choices=["sat", "unsat"], required=True)
    p_fuse.add_argument("--seed", type=int, default=0)
    p_fuse.add_argument("--pairs", type=int, default=2)
    p_fuse.add_argument("--probability", type=float, default=0.5)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_check = sub.add_parser("check", help="run a solver on one script")
    p_check.add_argument("file")
    p_check.add_argument(
        "--solver", choices=["reference", "z3-like", "cvc4-like"], default="reference"
    )
    p_check.add_argument("--release", default="trunk")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("generate", help="generate labeled seed formulas")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--oracle", choices=["sat", "unsat"], default="sat")
    p_gen.add_argument("--count", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate)

    p_reduce = sub.add_parser("reduce", help="reduce a bug-triggering script")
    p_reduce.add_argument("file")
    p_reduce.add_argument("--solver", choices=["z3-like", "cvc4-like"], default="z3-like")
    p_reduce.add_argument("--release", default="trunk")
    p_reduce.add_argument(
        "--expect",
        choices=["sat", "unsat", "crash"],
        required=True,
        help="the ground-truth oracle (or 'crash' for crash bugs)",
    )
    p_reduce.set_defaults(func=_cmd_reduce)

    p_campaign = sub.add_parser("campaign", help="run the full Figure 8 campaign")
    p_campaign.add_argument("--scale", type=float, default=0.002)
    p_campaign.add_argument("--iterations", type=int, default=30)
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument(
        "--perf-threshold",
        type=float,
        default=0.3,
        help="wall-clock seconds before a check counts as a performance "
        "bug; 0 disables (timing-independent, hence fully deterministic)",
    )
    p_campaign.add_argument(
        "--deterministic",
        action="store_true",
        help="remove all wall-clock dependence (solver deadlines, "
        "performance classification): identical journals on every "
        "run, any mode, any worker count",
    )
    p_campaign.add_argument(
        "--logic",
        default=None,
        metavar="LOGIC",
        help="restrict the campaign to one logic's corpus and fault "
        "catalog (e.g. QF_BV); default: all Figure 7 families",
    )
    p_campaign.add_argument(
        "--mode",
        choices=["serial", "process"],
        default="serial",
        help="execution mode: process leases each cell's shards to a "
        "supervised socket worker fleet (by default --workers local "
        "processes on 127.0.0.1): dead/hung workers are respawned, shard "
        "leases resume from checkpoints, repeat-killer iterations are "
        "quarantined",
    )
    p_campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard count for --mode process",
    )
    p_campaign.add_argument(
        "--steal-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the fleet's work-stealing permutation (any "
        "seed produces identical journal bytes — vary it to check)",
    )
    p_campaign.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="fleet coordinator bind address (default 127.0.0.1 on an "
        "ephemeral port); use with --spawn-workers 0 to serve "
        "workers started in other terminals via `yinyang worker`",
    )
    p_campaign.add_argument(
        "--spawn-workers",
        type=int,
        default=None,
        metavar="N",
        help="local `yinyang worker` processes the fleet coordinator "
        "starts itself (default: --workers; 0 = external workers only)",
    )
    p_campaign.add_argument(
        "--net-chaos",
        default=None,
        metavar="SPEC",
        help="seeded frame fault plan for --mode process, e.g. "
        "'drop=0.2;dup=0.2;delay=0.05;seed=9' "
        "(recovery testing; journals must stay byte-identical)",
    )
    _add_strategy_flag(p_campaign)
    _add_triage_flag(p_campaign)
    _add_incremental_flag(p_campaign)
    _add_resilience_flags(p_campaign)
    _add_telemetry_flags(p_campaign, coverage=True)
    p_campaign.add_argument(
        "--max-worker-restarts",
        type=int,
        default=None,
        metavar="N",
        help="whole-fleet respawns allowed before the campaign gives up; "
        "the fleet replaces single dead workers itself and breaks only "
        "when none is left (--mode process; default 8)",
    )
    p_campaign.add_argument(
        "--max-shard-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-executions of a dying shard lease before its iteration "
        "range is bisected to isolate the killer (--mode process; "
        "default 2)",
    )
    p_campaign.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="end a lease as hung when its worker sends no beat for this "
        "long (--mode process; default off)",
    )
    p_campaign.add_argument(
        "--worker-mem-limit",
        type=float,
        default=None,
        metavar="MB",
        help="RLIMIT_AS ceiling per worker process in megabytes "
        "(--mode process)",
    )
    p_campaign.add_argument(
        "--worker-cpu-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="RLIMIT_CPU ceiling per worker process in CPU-seconds "
        "(--mode process)",
    )
    p_campaign.add_argument(
        "--journal",
        default=None,
        help="crash-safe JSONL journal of completed campaign cells",
    )
    p_campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in --journal",
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_stats = sub.add_parser(
        "stats", help="render a campaign dashboard from a journal (+ metrics)"
    )
    p_stats.add_argument(
        "--journal", required=True, help="campaign journal written by `campaign`"
    )
    p_stats.add_argument(
        "--metrics",
        default=None,
        help="metrics sidecar written by `campaign --metrics`",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_test = sub.add_parser("test", help="run the YinYang loop (Algorithm 1)")
    p_test.add_argument(
        "--solver", choices=["reference", "z3-like", "cvc4-like"], default="z3-like"
    )
    p_test.add_argument("--release", default="trunk")
    p_test.add_argument("--corpus", default="QF_S")
    p_test.add_argument("--oracle", choices=["sat", "unsat"], required=True)
    p_test.add_argument("--iterations", type=int, default=100)
    p_test.add_argument("--scale", type=float, default=0.002)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--pairs", type=int, default=2)
    p_test.add_argument("--probability", type=float, default=0.5)
    p_test.add_argument(
        "--mode",
        choices=["serial", "process"],
        default="serial",
        help="execution mode (process: supervised local worker processes "
        "with their own solvers and caches)",
    )
    p_test.add_argument(
        "--workers", type=int, default=1, help="shard count for process mode"
    )
    p_test.add_argument("--perf-threshold", type=float, default=0.3)
    p_test.add_argument("--show", type=int, default=2, help="bug scripts to print")
    _add_strategy_flag(p_test)
    _add_triage_flag(p_test)
    _add_incremental_flag(p_test)
    _add_resilience_flags(p_test)
    _add_telemetry_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_strategies = sub.add_parser(
        "strategies", help="list the registered mutation strategies"
    )
    p_strategies.set_defaults(func=_cmd_strategies)

    p_worker = sub.add_parser(
        "worker",
        help="serve a fleet coordinator: pull campaign leases over a socket",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's listen address "
        "(`campaign --mode process --listen`)",
    )
    p_worker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="keep retrying the connection this long before giving up",
    )
    p_worker.set_defaults(func=_cmd_worker)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
