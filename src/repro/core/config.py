"""Configuration for Semantic Fusion, the YinYang loop and campaigns.

All three configs are plain picklable values. A process campaign
ships its :class:`CampaignSpec` (which holds the
:class:`YinYangConfig`) to every worker once; the worker rebuilds its
solvers, strategy, triage policy and solver sessions from it locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import CampaignSpecError


@dataclass
class FusionConfig:
    """Knobs of the fusion algorithm (paper Section 3.4).

    - ``max_pairs`` — how many variable pairs (x, y) to fuse per run
      (each gets its own fresh ``z`` and fusion function).
    - ``substitution_probability`` — the chance that any given free
      occurrence of a fused variable is replaced by its inversion term
      (the paper replaces "randomly chosen occurrences ... possibly
      none").
    - ``coefficient_range`` — random coefficients ``c, c1..c3`` of the
      affine fusion functions are drawn from ``[1, coefficient_range]``
      (sign randomized; divisor coefficients are never zero).
    - ``schemes`` — restrict fusion-function families by name (empty =
      all families of Figure 6 plus registered extensions).
    """

    max_pairs: int = 2
    substitution_probability: float = 0.5
    coefficient_range: int = 4
    schemes: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.substitution_probability <= 1.0:
            raise ValueError("substitution_probability must be in [0, 1]")
        if self.max_pairs < 1:
            raise ValueError("max_pairs must be at least 1")
        if self.coefficient_range < 1:
            raise ValueError("coefficient_range must be at least 1")


@dataclass
class YinYangConfig:
    """Knobs of the YinYang main loop (Algorithm 1)."""

    fusion: FusionConfig = field(default_factory=FusionConfig)
    # Per the paper: "the solvers may report unknown, which could be
    # either seen as a crash or ignored".
    unknown_is_crash: bool = False
    max_iterations: int = 1000
    seed: int = 0
    # Mutant triage: route each mutant to a solve-budget tier
    # (:class:`~repro.campaign.triage.TriagePolicy`) before checking.
    # Off keeps the loop byte-identical to the pre-triage tool.
    triage: bool = False
    # Incremental solving: build one
    # :class:`~repro.solver.session.SolverSession` per cell/shard (an
    # outcome cache) over one theory memo per campaign process, which
    # opfuzz's oracle shares. Both replay exact answers; off is the
    # cold loop, and both journal the same cells.
    incremental: bool = False

    def __post_init__(self):
        for name in ("triage", "incremental"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(
                    f"{name} must be True or False, got {getattr(self, name)!r}"
                )


#: The modes a campaign runs in: one process, or a socket worker fleet.
CAMPAIGN_MODES = ("serial", "process")

#: The settings only a worker fleet reads. A serial campaign must keep
#: each at its default: a setting it would ignore is rejected, never
#: silently dropped.
_FLEET_SETTINGS = (
    "supervise",
    "containment",
    "chaos_process",
    "steal_seed",
    "listen",
    "spawn_workers",
    "net_chaos",
)


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's constants, validated once and frozen.

    ``run_campaign`` builds it from its keyword arguments, and
    ``YinYang.test(mode="process")`` builds a one-cell one. Everything
    below it (the coordinator, the lease backends and every worker)
    reads the campaign from here, so it must stay picklable: every
    worker receives it, pickled, in its spec frame.
    ``strategy`` is a registry name, because a worker rebuilds the
    strategy from name and ``config.fusion``. ``supervise``,
    ``containment`` and ``chaos_process`` act at the worker boundary;
    ``steal_seed``, ``listen``, ``spawn_workers`` and ``net_chaos``
    shape the process campaign's socket fleet. Any of them in a serial
    spec is a :class:`~repro.errors.CampaignSpecError`, as are
    ``workers < 1``, ``workers > 1`` in serial, and a process spec
    without a ``solver_factory``.
    """

    config: YinYangConfig = field(default_factory=YinYangConfig)
    iterations_per_cell: int = 120
    strategy: str = "fusion"
    logic: str | None = None
    performance_threshold: float | None = 0.3
    policy: object = None  # ResiliencePolicy | None
    solver_factory: object = None  # picklable; required by process
    mode: str = "serial"
    workers: int = 1
    supervise: object = None  # SupervisorPolicy | None (the default policy)
    containment: object = None  # ContainmentPolicy | None
    chaos_process: object = None  # ProcessChaos | None
    steal_seed: int = 0
    listen: tuple | None = None  # (host, port); None is 127.0.0.1, any port
    spawn_workers: int | None = None  # None spawns ``workers``
    net_chaos: object = None  # NetChaos | None

    def __post_init__(self):
        if self.mode not in CAMPAIGN_MODES:
            raise CampaignSpecError(
                f"mode must be one of {CAMPAIGN_MODES}, got {self.mode!r}"
            )
        if not isinstance(self.strategy, str):
            raise TypeError(
                f"strategy must be a registry name, got {self.strategy!r}"
            )
        if self.supervise is not None:
            from repro.robustness.supervisor import SupervisorPolicy

            if not isinstance(self.supervise, SupervisorPolicy):
                raise TypeError(
                    "supervise must be a SupervisorPolicy or None, "
                    f"got {self.supervise!r}"
                )
        if self.workers < 1:
            raise CampaignSpecError(f"workers must be at least 1, got {self.workers}")
        if self.mode == "serial":
            if self.workers != 1:
                raise CampaignSpecError(
                    f"workers={self.workers} needs mode='process': "
                    "a serial campaign runs in one process"
                )
            defaults = {f.name: f.default for f in fields(self)}
            for name in _FLEET_SETTINGS:
                if getattr(self, name) != defaults[name]:
                    raise CampaignSpecError(
                        f"{name} needs mode='process': a serial campaign "
                        "would ignore it"
                    )
        elif self.solver_factory is None:
            raise CampaignSpecError(
                f"{self.mode} mode needs solver_factory (a picklable "
                "callable); live solver objects cannot be shipped to "
                "worker processes"
            )

    @property
    def seed(self):
        return self.config.seed

    def describe(self):
        """The campaign parameters a journal and its lease logs are
        stamped with: ``(journal_meta, lease_meta)``.

        Opt-in features (triage, incremental sessions, a logic
        restriction) stamp their spec only when on, so default-campaign
        journal bytes stay stable while a resume that would mix
        budgets, incremental and cold shards, or catalogs mismatches
        and is refused. Fusion journals predate strategies and omit the
        strategy key. Lease logs are transient (removed once the
        campaign lands in the main journal), so they always carry the
        strategy, plus the worker count their shard partition depends
        on; each log adds its shard.
        """
        # Imported lazily: both specs live above this module.
        from repro.campaign.triage import TRIAGE_SPEC
        from repro.solver.session import SESSION_SPEC

        meta = {"seed": self.seed, "iterations_per_cell": self.iterations_per_cell}
        if self.config.triage:
            meta["triage"] = TRIAGE_SPEC
        if self.config.incremental:
            meta["incremental"] = SESSION_SPEC
        if self.logic:
            meta["logic"] = self.logic
        lease_meta = dict(meta, strategy=self.strategy, workers=self.workers)
        if self.strategy != "fusion":
            meta["strategy"] = self.strategy
        return meta, lease_meta
