"""Configuration for Semantic Fusion and the YinYang loop.

Both configs are plain picklable values: a process or tcp campaign
ships its :class:`YinYangConfig` to every worker, which rebuilds the
triage policy and solver sessions it switches on locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    # :class:`~repro.solver.session.SolverSession` per cell/shard
    # (outcome cache, assumption-based warm SAT starts) over one theory
    # memo per campaign process, which opfuzz's oracle shares. Off is
    # the cold loop, byte-identical to the pre-session tool.
    incremental: bool = False

    def __post_init__(self):
        for name in ("triage", "incremental"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(
                    f"{name} must be True or False, got {getattr(self, name)!r}"
                )
