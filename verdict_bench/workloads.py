"""The benchmark's workloads: which campaign each one runs, and on what.

A workload is one ``run_campaign`` configuration. Every campaign runs
with the deterministic solver factories, ``performance_threshold=None``,
``triage=True``, ``incremental=True`` and a journal, which is how a
bug-hunting user drives the tool. A campaign is a closed loop: one
client checks the next mutant only after the previous verdict.

Each workload has a *pinned* instance, whose corpora and campaign seed
are fixed here, and a *probe* instance built from the run's ``--seed``.
Mutant solve costs are heavy-tailed (a single mutant can cost more than
the rest of a campaign), so two fresh instances of one workload differ
in decided verdicts/s by a factor of two to four. The metrics therefore
come from repetitions of the pinned instance, so two commits are
compared on identical work. The probe moves no metric; it keeps fresh
inputs flowing through every correctness gate. See METRICS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ARITH_FAMILIES = ("LIA", "LRA", "NRA", "QF_LIA", "QF_LRA", "QF_NRA")
STRING_FAMILIES = ("QF_S", "QF_SLIA", "StringFuzz")


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    scale: float  # build_corpus scale of every family
    iterations: int  # iterations per (solver, family, oracle) cell
    pinned_seed: int  # corpus and campaign seed of the pinned instance
    strategy: str = "fusion"
    logic: str | None = None  # None: paper catalogs; "QF_BV": BV catalogs
    mode: str = "serial"
    workers: int = 1
    # The campaign that runs these inputs on a worker fleet, once per
    # run: its journal must equal the pinned journal byte for byte (the
    # fleet-shape check), and its shards give the parallel.* figures.
    fleet_twin: str | None = None
    # Layer-coverage checks of the traced run: per-layer figures that
    # must be above zero, and figures that must be zero.
    busy_layers: tuple = ()
    idle_layers: tuple = ()


FUSION_ARITH = Workload(
    name="fusion-arith",
    families=ARITH_FAMILIES,
    scale=0.003,
    iterations=5,
    pinned_seed=7,
    fleet_twin="fusion-arith-x2",
    busy_layers=("nonlinear.checks", "linarith.checks", "sat.calls"),
    idle_layers=("strings.checks", "bitblast.checks"),
)

# The fusion-arith inputs on two spawned workers: the only path through
# core.parallel. Not a workload of its own: two workers on a small shared
# host measure its scheduler more than the program (METRICS.md).
FLEET_TWINS = {
    "fusion-arith-x2": replace(
        FUSION_ARITH, name="fusion-arith-x2", mode="process", workers=2, fleet_twin=None
    ),
}

# Why each workload exists, and which layers it loads, is in METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        FUSION_ARITH,
        Workload(
            name="fusion-strings",
            families=STRING_FAMILIES,
            scale=0.001,
            iterations=4,
            pinned_seed=5,
            busy_layers=("strings.checks",),
            idle_layers=("bitblast.checks",),
        ),
        Workload(
            name="opfuzz-bv",
            families=("QF_BV",),
            scale=0.05,
            iterations=80,
            pinned_seed=7,
            strategy="opfuzz",
            logic="QF_BV",
            busy_layers=("bitblast.checks", "strategies.oracle_solves"),
            idle_layers=("strings.checks", "nonlinear.checks"),
        ),
    )
}

# Every campaign a unit process can run, by name.
CAMPAIGNS = {**WORKLOADS, **FLEET_TWINS}
