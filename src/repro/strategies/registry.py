"""The strategy registry: names are the cross-boundary identity.

Every layer that must reconstruct a strategy — CLI flags, fleet
workers in another process, journal resume validation — does so
from the registry name plus the shared
:class:`~repro.core.config.FusionConfig`. Registering a factory here is
all it takes for a new workload to gain the full stack: sharded
execution, crash-safe journaling, resume, telemetry, and the CLI.
"""

from __future__ import annotations

_REGISTRY = {}


def register_strategy(name, factory):
    """Register ``factory(fusion_config) -> MutationStrategy`` under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"strategy {name!r} is already registered")
    _REGISTRY[name] = factory


def strategy_names():
    """The registered strategy names, sorted."""
    return sorted(_REGISTRY)


def make_strategy(name, fusion_config=None):
    """Instantiate a registered strategy by name.

    ``fusion_config`` is handed to every factory (strategies that do
    not use fusion knobs ignore it), so one picklable
    :class:`~repro.core.config.YinYangConfig` fully determines the
    worker-side strategy.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(strategy_names()) or "none"
        raise ValueError(f"unknown strategy {name!r} (registered: {known})")
    return factory(fusion_config)


def iter_strategies(fusion_config=None):
    """Fresh instances of every registered strategy, in name order."""
    return [make_strategy(name, fusion_config) for name in strategy_names()]
