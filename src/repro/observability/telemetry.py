"""Campaign telemetry: one object tying metrics, tracing and profiling.

A :class:`Telemetry` instance is threaded through the campaign stack —
``YinYang`` → ``GuardedSolver`` → ``ReferenceSolver`` — and collects:

- **metrics** (always on when telemetry is present): iteration/fusion/
  bug/check counters in a :class:`~repro.observability.metrics.MetricsRegistry`;
- **phase traces** (opt-in, ``trace=True``): per-phase wall-time
  histograms via :class:`~repro.observability.trace.PhaseTracer`;
- **profiling hooks** (opt-in, ``profile=True``): term-table sizes from
  the interning layer and guard retry/timeout/quarantine counters,
  sampled at shard/cell boundaries (never per iteration);
- **cumulative coverage** (opt-in, ``coverage=True``): a long-lived
  :class:`~repro.coverage.probes.CoverageSession` spanning the whole
  campaign, so probe hits accumulate across cells instead of being
  recomputed from scratch per cell — the one source of truth shared by
  ``bench_fig11_coverage.py`` and ``yinyang stats``.

Two invariants keep telemetry invisible to the oracle (enforced by
``tests/test_parallel_determinism.py``):

1. telemetry **never draws randomness** — no module here imports
   ``random`` — so the campaign's per-iteration RNG streams are
   untouched;
2. telemetry **writes out-of-band** — snapshots go to their own sidecar
   file (:meth:`Telemetry.write`), never into the campaign journal — so
   journal bytes are identical with telemetry off, on, or traced.

Worker processes build their own instance from the picklable
:class:`TelemetryConfig` (live registries must not cross the spawn
boundary) and ship per-shard snapshots back with their results; the
parent merges them exactly like the shard reports they ride with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.observability.metrics import MetricsRegistry, merge_snapshots
from repro.observability.trace import NULL_SPAN, PhaseTracer

SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """The picklable recipe for a worker-side :class:`Telemetry`."""

    trace: bool = False
    profile: bool = False
    coverage: bool = False


class Telemetry:
    """Metrics + optional tracing/profiling/coverage for one campaign."""

    def __init__(self, trace=False, profile=False, coverage=False):
        self.registry = MetricsRegistry()
        self.tracer = PhaseTracer(self.registry) if trace else None
        self.profile = profile
        self._coverage_session = None
        if coverage:
            from repro.coverage.probes import CoverageSession, activate_session

            self._coverage_session = CoverageSession("telemetry")
            activate_session(self._coverage_session)

    # -- config / lifecycle ----------------------------------------------

    def config(self):
        return TelemetryConfig(
            trace=self.tracer is not None,
            profile=self.profile,
            coverage=self._coverage_session is not None,
        )

    @classmethod
    def from_config(cls, config):
        if config is None:
            return None
        return cls(
            trace=config.trace, profile=config.profile, coverage=config.coverage
        )

    def close(self):
        """Deactivate the cumulative coverage session (idempotent)."""
        if self._coverage_session is not None:
            from repro.coverage.probes import deactivate_session

            deactivate_session(self._coverage_session)
            self._coverage_session = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- the hot-path surface ---------------------------------------------

    def count(self, name, n=1):
        self.registry.inc(name, n)

    def phase(self, name):
        """A span timing one pipeline phase (no-op unless tracing)."""
        tracer = self.tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(name)

    # -- profiling hooks (shard/cell boundaries, never per iteration) -----

    def sample_term_tables(self):
        """Record the interning layer's table size and hit rate.

        Gauges (high-water marks), not counters: the interning counters
        are cumulative per worker thread, so summing samples taken at
        shard boundaries would double-count — the max is the honest
        merge for a point-in-time profile.
        """
        if not self.profile:
            return
        from repro.smtlib.ast import intern_stats

        stats = intern_stats()
        self.registry.gauge("terms.table_size").track_max(stats["size"])
        self.registry.gauge("terms.intern_hits").track_max(stats["hits"])
        self.registry.gauge("terms.intern_misses").track_max(stats["misses"])

    def sample_session(self, session):
        """Record an incremental session's cache sizes as gauges.

        Like the other profiling hooks, sampled at shard boundaries and
        merged by max: the sizes are point-in-time high-water marks,
        not summable counters (the session's hit/miss/eviction
        *counters* flow through :meth:`count` as ``session.*``
        unconditionally).
        """
        if not self.profile or session is None:
            return
        for name, size in session.cache_sizes().items():
            self.registry.gauge("session." + name).track_max(size)

    def sample_guards(self, solvers):
        """Record guard breaker state for every guarded solver."""
        if not self.profile:
            return
        for solver in solvers:
            state_fn = getattr(solver, "guard_state", None)
            if state_fn is None:
                continue
            state = state_fn()
            prefix = f"guard.{state['name']}."
            for key, value in state["stats"].items():
                self.registry.gauge(prefix + key).track_max(value)
            if state["quarantined"]:
                self.registry.value_set("guard.quarantined").add(state["name"])

    # -- snapshots ---------------------------------------------------------

    def _publish_coverage(self):
        session = self._coverage_session
        if session is None:
            return
        publish_coverage_session(self.registry, session)

    def snapshot(self):
        """A picklable/JSON-ready snapshot of everything collected."""
        self._publish_coverage()
        snap = self.registry.snapshot()
        snap["version"] = SNAPSHOT_VERSION
        return snap

    def merge_snapshot(self, snap):
        """Fold a shard snapshot into this (parent) telemetry."""
        self.registry.merge_snapshot(
            {k: v for k, v in snap.items() if k != "version"}
        )

    def write(self, path):
        """Persist the snapshot as JSON — out-of-band, never the journal."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _NullTelemetry:
    """The do-nothing telemetry: what instrumented code holds when no
    telemetry was requested.

    A shared singleton with ``__slots__ = ()``: every method is a bare
    ``pass``/``return`` and :meth:`phase` hands back the shared
    :data:`~repro.observability.trace.NULL_SPAN`, so the instrumented
    hot path pays a few no-op method calls per iteration and allocates
    nothing (see ``benchmarks/bench_telemetry_overhead.py``).
    """

    __slots__ = ()
    registry = None
    tracer = None
    profile = False

    def count(self, name, n=1):
        pass

    def phase(self, name):
        return NULL_SPAN

    def sample_term_tables(self):
        pass

    def sample_session(self, session):
        pass

    def sample_guards(self, solvers):
        pass


NULL_TELEMETRY = _NullTelemetry()


def attach_telemetry(solvers, telemetry):
    """Point every solver in each wrapper chain at ``telemetry``.

    Walks ``solver.base`` chains (GuardedSolver → FaultySolver →
    ReferenceSolver, chaos wrappers, ...) and sets the instance
    attribute directly, so delegation via ``__getattr__`` can never
    alias two layers to one handle. Re-attaching (e.g. per shard in a
    long-lived worker) simply overwrites.
    """
    for solver in solvers:
        obj, seen = solver, set()
        while obj is not None and id(obj) not in seen:
            seen.add(id(obj))
            try:
                obj.__dict__["telemetry"] = telemetry
            except (AttributeError, TypeError):
                pass  # __slots__ or frozen object: nothing to instrument
            obj = getattr(obj, "base", None)


def publish_coverage_session(registry, session, registered=None):
    """Publish a :class:`~repro.coverage.probes.CoverageSession` into a
    :class:`~repro.observability.metrics.MetricsRegistry`.

    Fired probe ids become ``coverage.<kind>.fired`` value-sets (so
    shard merges union exactly) and the registered-probe totals become
    ``coverage.<kind>.registered`` gauges. This is the single encoding
    of coverage into metrics: the campaign's cumulative session, the
    Figure 11 study and the ``yinyang stats`` view all go through it,
    paired with :func:`repro.coverage.report.coverage_counts` on the
    decoding side.
    """
    if registered is None:
        from repro.coverage.probes import registry_snapshot

        registered = registry_snapshot()
    for kind, fired in session.fired.items():
        registry.value_set(f"coverage.{kind}.fired").update(fired)
        registry.gauge(f"coverage.{kind}.registered").track_max(registered[kind])


def load_snapshot(path):
    """Read a snapshot written by :meth:`Telemetry.write`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetryConfig",
    "attach_telemetry",
    "load_snapshot",
    "merge_snapshots",
    "publish_coverage_session",
]
