"""Deterministic metrics primitives: counters, gauges, histograms.

The pipeline's instrumentation problem is the inverse of a production
service's: wall-clock latency is the *least* interesting number, because
everything meaningful runs on seeds and the simulated clock.  What a run
must answer is "what did the pipeline actually do" -- how many batches
the engine emitted, how many rejection-kernel redraws it paid, how many
pages the crawler dropped, how often a breaker tripped -- and those
answers must be *reproducible*: the same seed must yield byte-identical
metrics, or the metrics themselves become noise.

Hence the design constraints of this module:

- pure stdlib (no third-party imports), so any layer may depend on it;
- every value in :meth:`MetricsRegistry.snapshot` derives from program
  events, never from wall time; wall-clock measurements live in the
  separate :meth:`MetricsRegistry.wall_clock_snapshot`;
- histograms use **fixed bucket edges** chosen at creation, so bucket
  boundaries (and therefore output) cannot drift with the data;
- all serialized mappings are emitted in sorted key order.

A process-global registry (:func:`get_registry`) is the default sink so
hot paths do not need a registry threaded through every signature;
:func:`use_registry` swaps in a fresh one for the scope of a run, which
is how the CLI guarantees per-invocation isolation and how replication
workers capture their own metrics for later merging.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKET_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket edges: a geometric ladder wide enough for
#: both sub-millisecond span durations and multi-hour simulated clocks.
DEFAULT_BUCKET_EDGES: Tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
)


class Counter:
    """A monotonically non-decreasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += int(amount)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``edges`` are the upper bounds of the first ``len(edges)`` buckets
    (a value lands in the first bucket whose edge is ``>= value``); one
    overflow bucket catches everything beyond the last edge.  The edges
    are fixed at construction, so two runs observing the same values
    produce identical bucket counts regardless of observation order.
    """

    __slots__ = ("name", "edges", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(
        self, name: str, edges: Sequence[float] = DEFAULT_BUCKET_EDGES
    ) -> None:
        ordered = tuple(float(edge) for edge in edges)
        if not ordered:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.edges = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # bisect_left: a value exactly on an edge belongs to the bucket
        # that edge bounds (edges are inclusive upper bounds).
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value


class _SpanStats:
    """Aggregated timings for one qualified span name."""

    __slots__ = ("count", "sim_seconds", "wall_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.sim_seconds = 0.0
        self.wall_seconds = 0.0


class MetricsRegistry:
    """A named collection of counters, gauges, histograms, and spans.

    All accessors are get-or-create, so instrumentation points never
    need to pre-declare their metrics.  :meth:`snapshot` is the
    deterministic view (same seed, same bytes); wall-clock measurements
    are quarantined in :meth:`wall_clock_snapshot`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, _SpanStats] = {}
        self._span_stack: List[str] = []

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_BUCKET_EDGES
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``edges`` only applies on creation; asking again with different
        edges raises, because silently returning a histogram with other
        buckets would corrupt the determinism contract.
        """
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, edges)
        elif tuple(edges) != found.edges and (
            tuple(float(edge) for edge in edges) != found.edges
        ):
            raise ValueError(
                f"histogram {name!r} already exists with edges {found.edges}"
            )
        return found

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, clock: Optional[Callable[[], float]] = None
    ) -> Iterator[None]:
        """Time a block on both clocks; nested spans get ``/`` paths.

        ``clock`` is a zero-argument callable returning the *simulated*
        time; its delta goes into the deterministic snapshot.  The
        wall-clock (``perf_counter``) delta always lands in the
        wall-clock section, never the deterministic one.
        """
        self._span_stack.append(name)
        qualified = "/".join(self._span_stack)
        sim_start = clock() if callable(clock) else None
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            wall_elapsed = time.perf_counter() - wall_start
            self._span_stack.pop()
            stats = self._spans.get(qualified)
            if stats is None:
                stats = self._spans[qualified] = _SpanStats()
            stats.count += 1
            stats.wall_seconds += wall_elapsed
            if sim_start is not None and callable(clock):
                stats.sim_seconds += float(clock()) - float(sim_start)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The deterministic state: everything except wall-clock time.

        Mappings are built in sorted key order so ``json.dumps`` output
        is stable byte for byte.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bucket_counts": list(histogram.bucket_counts),
                    "count": histogram.count,
                    "edges": list(histogram.edges),
                    "max": histogram.maximum,
                    "min": histogram.minimum,
                    "sum": histogram.total,
                }
                for name, histogram in sorted(self._histograms.items())
            },
            "spans": {
                name: {
                    "count": stats.count,
                    "sim_seconds": stats.sim_seconds,
                }
                for name, stats in sorted(self._spans.items())
            },
        }

    def wall_clock_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Wall-clock durations only: real but not reproducible."""
        return {
            "spans": {
                name: {"wall_seconds": stats.wall_seconds}
                for name, stats in sorted(self._spans.items())
            }
        }

    # -- merging ---------------------------------------------------------

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters, histogram buckets, and span counts add; gauges take
        the incoming value (last write wins, as with a direct ``set``).
        Merging is associative over integer metrics, so fan-out callers
        should merge worker snapshots in a fixed order when float sums
        (histogram totals, simulated span seconds) matter byte-for-byte.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).add(int(value))
        for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            histogram = self.histogram(name, data["edges"])
            for index, bucket in enumerate(data["bucket_counts"]):
                histogram.bucket_counts[index] += int(bucket)
            histogram.count += int(data["count"])
            histogram.total += float(data["sum"])
            for extreme, better in (("min", min), ("max", max)):
                incoming = data.get(extreme)
                if incoming is None:
                    continue
                current = histogram.minimum if extreme == "min" else histogram.maximum
                merged = (
                    float(incoming)
                    if current is None
                    else better(float(current), float(incoming))
                )
                if extreme == "min":
                    histogram.minimum = merged
                else:
                    histogram.maximum = merged
        for name, data in snapshot.get("spans", {}).items():  # type: ignore[union-attr]
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = _SpanStats()
            stats.count += int(data["count"])
            stats.sim_seconds += float(data["sim_seconds"])


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry instrumentation writes to."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global default; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the global default registry to ``registry``.

    The CLI wraps each command in a fresh registry through this, so two
    invocations never see each other's counts; replication workers use
    it to capture a per-process snapshot for merging.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
