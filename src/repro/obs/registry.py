"""Process-wide metrics registry: counters, gauges, latency histograms.

The serving north-star needs the preprocessing-vs-query-time accounting
that real-time influence systems treat as a first-class output: how long
each offline phase took, what the per-search latency distribution looks
like, and how the bounded caches are behaving - *while the process is
serving*, not only in a post-hoc benchmark.

Design constraints, in order:

1. **Cheap enough to stay enabled.** Every event is one dict lookup plus
   a float add (counters/gauges) or a ``bisect`` into a fixed bucket
   table (histograms). No locks, no allocation on the hot path after the
   first event of a metric.
2. **Dependency-free.** Snapshots are plain dataclasses; exporters (see
   :mod:`repro.obs.export`) turn them into JSON or Prometheus text.
3. **Disableable without branches at call sites.** :class:`NullRegistry`
   subclasses :class:`MetricsRegistry` with every mutator a no-op, so
   benchmarks can swap it in (``null_registry()``) and measure the true
   instrumentation overhead - which
   ``benchmarks/bench_online_search.py`` gates at < 5%.

Percentiles (p50/p90/p99/max) are *derived from snapshots*, not tracked
online: a histogram stores fixed-bucket counts and exact ``sum``/``max``
/``min``, and :meth:`HistogramSnapshot.quantile` interpolates within the
bucket that holds the requested rank. That keeps observation O(log
buckets) and makes snapshots mergeable and exportable.

A process-wide default registry backs every component that is not given
an explicit one (:func:`get_registry` / :func:`set_registry` /
:func:`use_registry`), so the CLI, the engine, and the benchmarks all
read one coherent picture by default.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "get_registry",
    "null_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds, in seconds. Spans 50µs..10s,
#: roughly x2.5 per step - wide enough for both a 2k-node laptop search
#: (~100µs-10ms) and a cold offline build phase (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time state of one fixed-bucket histogram.

    Attributes
    ----------
    buckets:
        Finite bucket upper bounds; an implicit ``+Inf`` bucket follows.
    counts:
        Per-bucket observation counts, ``len(buckets) + 1`` long (the
        last slot is the overflow bucket).
    count / sum / max / min:
        Exact aggregate statistics over every observation.
    """

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    count: int
    sum: float
    max: float
    min: float

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0 <= q <= 1), interpolated within its bucket.

        Returns ``nan`` for an empty histogram. Ranks that land in the
        overflow bucket return the exact observed :attr:`max` - the
        snapshot cannot do better, and ``max`` is a truthful upper bound.
        """
        if self.count == 0:
            return float("nan")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i >= len(self.buckets):
                    return self.max
                lower = self.buckets[i - 1] if i else max(0.0, self.min)
                upper = self.buckets[i]
                fraction = (rank - previous) / bucket_count
                value = lower + (upper - lower) * min(1.0, max(0.0, fraction))
                # Never report beyond the exact observed extremes.
                return float(min(max(value, self.min), self.max))
        return self.max

    @property
    def p50(self) -> float:
        """Median latency, derived from the bucket counts."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th percentile, derived from the bucket counts."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th percentile, derived from the bucket counts."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Exact mean over every observation (nan when empty)."""
        if self.count == 0:
            return float("nan")
        return self.sum / self.count

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations recorded after *earlier* (same bucket layout)."""
        if earlier.buckets != self.buckets:
            raise ValueError("cannot diff histograms with different buckets")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(
                now - before for now, before in zip(self.counts, earlier.counts)
            ),
            count=self.count - earlier.count,
            sum=self.sum - earlier.sum,
            # max/min of the delta window are not derivable exactly; the
            # lifetime extremes remain truthful bounds.
            max=self.max,
            min=self.min,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload including the derived percentiles."""
        empty = self.count == 0
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "max": None if empty else self.max,
            "min": None if empty else self.min,
            "mean": None if empty else self.mean,
            "p50": None if empty else self.p50,
            "p90": None if empty else self.p90,
            "p99": None if empty else self.p99,
        }


class Histogram:
    """Mutable fixed-bucket histogram (internal to the registry)."""

    __slots__ = ("buckets", "counts", "count", "total", "max", "min")

    def __init__(self, buckets: Sequence[float]):
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram buckets must be strictly increasing, got {buckets!r}"
            )
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.max = float("-inf")
        self.min = float("inf")

    def observe(self, value: float) -> None:
        """Record one observation (O(log buckets))."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(self.counts),
            count=self.count,
            sum=self.total,
            max=self.max if self.count else 0.0,
            min=self.min if self.count else 0.0,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time state of a whole registry."""

    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0.0) -> float:
        """Value of one counter (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Value of one gauge (``default`` when never set)."""
        return self.gauges.get(name, default)

    def histogram(self, name: str) -> Optional[HistogramSnapshot]:
        """Snapshot of one histogram, or ``None``."""
        return self.histograms.get(name)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Activity between *earlier* and this snapshot.

        Counters subtract; histograms diff bucket-wise; gauges keep their
        latest value (a gauge has no meaningful difference). Metrics that
        did not exist in *earlier* are taken whole. This is how per-call
        accounting (e.g. one ``build_all``'s
        :class:`~repro.core.diagnostics.PropagationBuildStats`) is viewed
        out of the cumulative process-wide registry.
        """
        counters = {
            name: value - earlier.counters.get(name, 0.0)
            for name, value in self.counters.items()
        }
        histograms = {}
        for name, now in self.histograms.items():
            before = earlier.histograms.get(name)
            histograms[name] = now if before is None else now.delta(before)
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready nested-dict payload (see :mod:`repro.obs.export`)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.as_dict() for name, h in self.histograms.items()
            },
        }


class MetricsRegistry:
    """Named counters, gauges, and fixed-bucket histograms.

    All mutators are safe to call with never-before-seen names (metrics
    are created on first touch) and cost one dict operation plus a float
    update. ``snapshot()`` is the only place aggregate state is
    assembled, so the hot path never builds intermediate objects.
    """

    #: Whether events are actually recorded (False on NullRegistry);
    #: lets callers skip building expensive label/context values.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- mutators ------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* (default 1) to the counter *name*."""
        counters = self._counters
        counters[name] = counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Record *value* into the histogram *name*.

        *buckets* fixes the bucket bounds on first touch (default:
        :data:`DEFAULT_LATENCY_BUCKETS`); later calls ignore it.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(
                DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
            )
            self._histograms[name] = histogram
        histogram.observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager observing its wall time into histogram *name*."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - start)

    # -- introspection -------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of every metric's current state.

        Safe while another thread creates metrics: the histogram table is
        copied before the per-histogram ``snapshot()`` calls, which run
        Python code and so may let that thread insert a new histogram.
        """
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                name: h.snapshot()
                for name, h in list(self._histograms.items())
            },
        )

    def counter_value(self, name: str) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def clear(self) -> None:
        """Drop every metric (tests and long-lived processes)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class NullRegistry(MetricsRegistry):
    """A registry that records nothing - for benchmark baselines.

    Every mutator is an explicit no-op (not merely an empty registry:
    nothing is allocated, snapshots are always empty), so code
    instrumented against a registry handle runs at its uninstrumented
    speed. :func:`null_registry` returns a shared instance.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0) -> None:  # noqa: D102
        pass

    def set_gauge(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def observe(self, name, value, *, buckets=None) -> None:  # noqa: D102
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:  # noqa: D102
        yield


_NULL = NullRegistry()
_default = MetricsRegistry()


def null_registry() -> NullRegistry:
    """The shared no-op registry (disable instrumentation explicitly)."""
    return _NULL


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the process-wide default to *registry* (tests, benchmarks)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
