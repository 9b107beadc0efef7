"""Counter / gauge / histogram primitives and a mergeable metrics registry.

Deliberately minimal and dependency-free: the service layers need exactly
three instrument kinds, JSON snapshots, and a merge operation that works
across shards and shard-server processes (snapshots cross process
boundaries as plain dicts over the cluster's existing readiness pipe — no
collector daemon, no sockets of its own).

* :class:`Counter` — monotonically increasing integer.
* :class:`Gauge` — a point-in-time value; merges by **summing** (the
  registry's gauges are per-process resource figures — node counts, open
  connections — whose cluster-wide reading is the sum).
* :class:`Histogram` — fixed upper-bound buckets (cumulative on export, like
  the common exposition formats), plus sum and count.  Two histograms merge
  only when their bucket layouts agree, which they always do here because
  every site uses :data:`LATENCY_BUCKETS` unless it says otherwise.

The registry itself is label-carrying: ``MetricsRegistry(labels={"shard": 0,
"process": "worker-1"})`` stamps every snapshot, and
:func:`merge_snapshots` folds any number of snapshots into a cluster-wide
aggregate (labels are kept as the list of merged identities).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "merge_snapshots",
]

#: Default latency buckets (seconds): sub-millisecond RPCs through the
#: multi-second cluster deadlines, roughly log-spaced.  The final implicit
#: +inf bucket is the exported ``count``.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative — counters only go up)."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        self.value += amount

    def to_value(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_value(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram with sum and count.

    ``buckets`` are the finite upper bounds; an implicit +inf bucket catches
    everything beyond the last bound.  Export is cumulative per bucket.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase, got {bounds}")
        self.name = name
        self.buckets = bounds
        # One slot per finite bound plus the +inf overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples (end-of-run latency lists)."""
        for value in values:
            self.observe(value)

    def to_value(self) -> Dict[str, Any]:
        """Cumulative-bucket JSON form."""
        cumulative: List[int] = []
        running = 0
        for slot in self.counts[:-1]:
            running += slot
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "cumulative": cumulative,
            "sum": self.sum,
            "count": self.count,
        }

    def quantile(self, fraction: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket.

        Samples beyond the last finite bound report that bound (the
        histogram cannot resolve the overflow bucket's interior).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"quantile fractions lie in [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        running = 0
        for bound, slot in zip(self.buckets, self.counts):
            running += slot
            if running >= target:
                return bound
        return self.buckets[-1]


class MetricsRegistry:
    """A named collection of instruments with one JSON snapshot form."""

    def __init__(self, labels: Optional[Dict[str, Any]] = None) -> None:
        self.labels: Dict[str, Any] = dict(labels or {})
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS
    ) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def to_dict(self) -> Dict[str, Any]:
        """A picklable, JSON-ready snapshot of every instrument."""
        return {
            "labels": dict(self.labels),
            "counters": {
                name: c.to_value() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.to_value() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.to_value() for name, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold registry snapshots into one aggregate.

    Counters and gauges sum; histograms sum element-wise (their bucket
    layouts must agree); the merged ``labels`` key lists every contributing
    identity.  An empty input merges to an empty snapshot.
    """
    merged: Dict[str, Any] = {
        "labels": [],
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for snapshot in snapshots:
        merged["labels"].append(snapshot.get("labels", {}))
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = merged["gauges"].get(name, 0.0) + value
        for name, histogram in snapshot.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = {
                    "buckets": list(histogram["buckets"]),
                    "cumulative": list(histogram["cumulative"]),
                    "sum": histogram["sum"],
                    "count": histogram["count"],
                }
                continue
            if existing["buckets"] != list(histogram["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ across "
                    f"snapshots; refusing a meaningless merge"
                )
            existing["cumulative"] = [
                a + b
                for a, b in zip(existing["cumulative"], histogram["cumulative"])
            ]
            existing["sum"] += histogram["sum"]
            existing["count"] += histogram["count"]
    return merged
