"""The metrics registry: counters, gauges, fixed-bucket histograms.

Pure-Python and allocation-light: the hot path of every instrument is a
plain attribute increment or a short bucket scan — no string
formatting, no timestamps, and (in steady state) no allocations beyond
the boxed numbers Python itself creates. Campaign code holds metric
handles (``registry.counter("fused")``) and bumps them; everything else
— serialization, merging, rendering — happens off the hot path.

Handle creation and :meth:`MetricsRegistry.inc` hold the registry's
lock, so counting by name is thread-safe: a fleet connection's reader
thread, or a solver thread a guard watchdog has abandoned, may count
while the campaign thread does. A handle's own methods are not guarded;
only the thread that owns a handle bumps it directly.

Merge semantics are the load-bearing design point: process-sharded
campaigns collect one snapshot per shard and the parent folds them
together, exactly like the shard reports themselves. Merging must therefore be
**associative and commutative with an identity** (the empty registry),
so that any shard partition and any merge order produce the totals a
serial run would have accumulated:

- **counters** add;
- **gauges** take the maximum (a high-water mark — the only fold that
  is commutative, associative, and idempotent for point-in-time
  values);
- **histograms** add per-bucket counts, sums, and counts (they must
  share the same bucket bounds — all our histograms of one name do, by
  construction);
- **sets** (e.g. cumulative coverage probe ids) take the union.

``tests/test_observability.py`` proves these laws by property testing.

Nothing in this module reads the clock or draws randomness: telemetry
must never perturb the campaign's RNG stream (see DESIGN.md §10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

# Default histogram buckets for wall-time observations, in seconds.
# Log-spaced from 10µs to 10s; observations above the last bound land
# in the overflow bucket.
TIME_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """A point-in-time value; merges as a high-water mark."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def track_max(self, value):
        if value > self.value:
            self.value = value


class Histogram:
    """A fixed-bucket histogram of numeric observations.

    ``bounds`` are the inclusive upper bounds of each bucket; one
    overflow bucket is appended implicitly. ``observe`` is a bisect
    over a short tuple plus two increments — cheap enough for
    per-phase wall times on the campaign hot path.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name, bounds=TIME_BUCKETS):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile: the upper bound of the bucket
        holding the ``q``-th observation (the last bound for overflow)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                return self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge support."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._sets = {}
        # Guards handle creation and inc(): unguarded, two threads making
        # a name's first count could each create a handle, and the later
        # store would drop the other's increments.
        self._lock = threading.Lock()

    # -- handles ---------------------------------------------------------

    def counter(self, name):
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name):
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name, bounds=TIME_BUCKETS):
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name, bounds))
        return metric

    def value_set(self, name):
        """A named set of hashable values (merged by union)."""
        values = self._sets.get(name)
        if values is None:
            with self._lock:
                values = self._sets.setdefault(name, set())
        return values

    def inc(self, name, n=1):
        """Bump a counter by name; safe to call from any thread."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            metric.inc(n)

    # -- snapshots -------------------------------------------------------

    def snapshot(self):
        """A picklable/JSON-ready dict of everything recorded.

        Sets are serialized as sorted lists so the snapshot is
        deterministic for deterministic inputs (and diffable on disk).
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
            "sets": {n: sorted(map(str, s)) for n, s in sorted(self._sets.items())},
        }

    def merge_snapshot(self, snap):
        """Fold a snapshot into this registry (associative, commutative)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).track_max(value)
        for name, data in snap.get("histograms", {}).items():
            hist = self.histogram(name, data["bounds"])
            if tuple(data["bounds"]) != hist.bounds:
                raise ValueError(
                    f"histogram {name!r}: cannot merge bounds "
                    f"{tuple(data['bounds'])} into {hist.bounds}"
                )
            for i, n in enumerate(data["counts"]):
                hist.counts[i] += n
            hist.sum += data["sum"]
            hist.count += data["count"]
        for name, values in snap.get("sets", {}).items():
            self.value_set(name).update(values)
        return self

    @classmethod
    def from_snapshot(cls, snap):
        return cls().merge_snapshot(snap)

    def merge(self, other):
        """Fold another registry into this one."""
        return self.merge_snapshot(other.snapshot())


def merge_snapshots(snapshots):
    """Merge shard snapshots into one (the parent-side fold)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry.snapshot()
