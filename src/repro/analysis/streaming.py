"""Incremental popularity analytics for the always-on service.

The batch analyses (:mod:`repro.analysis.popularity`,
:func:`repro.stats.zipf.fit_zipf_exponent_mle`,
:func:`repro.core.pareto.pareto_summary`) assume the whole crawl is on
disk before any statistic is computed.  The always-on service
(:mod:`repro.service`) instead receives snapshots one at a time, in
whatever order its concurrent clients land them, and must keep the
paper's headline numbers -- the Zipf slope of the rank distribution
(§3.2), the Pareto concentration shares (§3.1, Figure 2) -- current as
the stream flows.  "A Simple Generative Model of Collective Online
Behaviour" (PAPERS.md) motivates exactly this: popularity statistics as
*running* quantities over an adoption stream, not end-of-run batches.

Three estimators live here:

- :class:`OnlineZipfSlope` and :class:`RollingParetoShare` share a
  last-write-wins-by-day per-app download state.  Updates are O(1) and
  **order-invariant**: any arrival order of the same snapshot set
  yields the same state, so their outputs match the batch analyses on
  the final day *exactly* (the equivalence property suite shuffles
  arrival orders to prove it).
- :class:`P2Quantile` is the constant-space P² algorithm (Jain &
  Chlamtac, CACM 1985): five markers track a quantile of the raw
  per-snapshot download stream without storing it.  It is genuinely
  approximate; tests bound its *rank* error rather than demanding
  equality.

:class:`StreamingAnalytics` bundles the three behind a per-day
``observe_day`` fold (``observe_snapshot`` is the one-row case) plus a
per-tick ``export`` into a :class:`~repro.obs.metrics.MetricsRegistry`,
which is how the service publishes them next to its latency histograms.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pareto import gini_coefficient
from repro.obs.metrics import MetricsRegistry
from repro.stats.distributions import cumulative_share
from repro.stats.zipf import fit_zipf_exponent_mle

__all__ = [
    "DownloadState",
    "OnlineZipfSlope",
    "P2Quantile",
    "RollingParetoShare",
    "SegmentDownloadShares",
    "StreamingAnalytics",
]


class DownloadState:
    """Last-write-wins-by-day per-app download totals.

    One ``observe`` per snapshot keeps, for every app, the download
    total from the *newest* day seen so far -- which is precisely the
    vector ``SnapshotDatabase.download_vector(store, last_day)`` holds
    after a batch crawl.  Because "newest day wins" is a join over
    (day, value) pairs, the state is independent of arrival order, and
    re-observing the same (app, day) is idempotent: safe under the
    service's crash-and-rerun day supervision.
    """

    __slots__ = ("_by_app", "_version")

    def __init__(self) -> None:
        self._by_app: Dict[int, Tuple[int, int]] = {}
        self._version = 0

    def observe(self, app_id: int, day: int, total_downloads: int) -> None:
        """Fold in one snapshot's download total."""
        self.observe_day(day, (app_id,), (total_downloads,))

    def observe_day(
        self, day: int, app_ids: Sequence[int], totals: Sequence[int]
    ) -> None:
        """Fold in one day's snapshots: app ``app_ids[i]`` had ``totals[i]``.

        Rows apply in order; a row older than the app's stored day is
        ignored, and every other row replaces it and bumps the version.
        """
        by_app = self._by_app
        accepted = 0
        for app_id, total in zip(app_ids, totals):
            current = by_app.get(app_id)
            if current is None or current[0] <= day:
                by_app[app_id] = (day, int(total))
                accepted += 1
        self._version += accepted

    @property
    def version(self) -> int:
        """Bumped on every accepted write; lets readers cache safely."""
        return self._version

    @property
    def n_apps(self) -> int:
        """Number of distinct apps observed so far."""
        return len(self._by_app)

    def positive_downloads(self) -> np.ndarray:
        """Current positive download totals, sorted descending.

        Sorted output keeps the result independent of dict insertion
        order, which is the arrival order -- the one thing streaming
        consumers must never depend on.
        """
        if not self._by_app:
            return np.zeros(0, dtype=np.float64)
        values = np.fromiter(
            (value for _, value in self._by_app.values()),
            dtype=np.float64,
            count=len(self._by_app),
        )
        positive = values[values > 0]
        positive[::-1].sort()
        return positive


class OnlineZipfSlope:
    """Running MLE of the Zipf exponent over a download state.

    The discrete Zipf MLE needs the *ranked* count vector, and ranks
    shuffle as totals grow, so no exact O(1)-per-update closed form
    exists; instead the state updates in O(1) and the golden-section
    solve runs lazily, memoized on the state version, when the value is
    read (the service reads once per daily tick).  On the final tick
    this equals ``fit_zipf_exponent_mle`` over the batch download
    vector bit for bit, because it *is* that call on identical input.
    """

    def __init__(self, state: DownloadState, max_exponent: float = 5.0) -> None:
        self._state = state
        self._max_exponent = max_exponent
        self._cached_version = -1
        self._cached_value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current slope estimate; None until two positive-download apps."""
        if self._cached_version != self._state.version:
            positive = self._state.positive_downloads()
            if positive.size < 2:
                self._cached_value = None
            else:
                self._cached_value = fit_zipf_exponent_mle(
                    positive, max_exponent=self._max_exponent
                )
            self._cached_version = self._state.version
        return self._cached_value


class RollingParetoShare:
    """Running Figure-2 concentration shares over a download state.

    Same lazy-materialization contract as :class:`OnlineZipfSlope`:
    O(1) state updates, shares computed on read and memoized on the
    state version.  ``shares()`` matches
    ``pareto_summary(positive_downloads)`` exactly.
    """

    TOP_FRACTIONS = (0.01, 0.10, 0.20)

    def __init__(self, state: DownloadState) -> None:
        self._state = state
        self._cached_version = -1
        self._cached: Optional[Dict[str, float]] = None

    def shares(self) -> Optional[Dict[str, float]]:
        """``{"top_1pct", "top_10pct", "top_20pct", "gini"}`` or None."""
        if self._cached_version != self._state.version:
            positive = self._state.positive_downloads()
            if positive.size == 0:
                self._cached = None
            else:
                top = cumulative_share(positive, list(self.TOP_FRACTIONS))
                self._cached = {
                    "top_1pct": float(top[0]),
                    "top_10pct": float(top[1]),
                    "top_20pct": float(top[2]),
                    "gini": gini_coefficient(positive),
                }
            self._cached_version = self._state.version
        return self._cached


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac, 1985).

    Five markers -- minimum, three interior, maximum -- chase the
    ``q``-quantile of a stream in O(1) space and time per observation.
    Interior marker heights move by piecewise-parabolic interpolation
    when their positions drift from the ideal positions for ``q``.

    Exact while five or fewer values have been seen (it just sorts
    them); approximate afterwards.  The property suite bounds the
    *rank* error of the estimate against the full stored stream.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        # Marker heights, integer positions (1-based), and desired
        # positions; live only once 5 observations have arrived.
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold observations in order, as one :meth:`observe` per value.

        Each value runs the same float operations in the same order, so
        the markers stay bit-identical however a stream is split into
        calls.  The loop keeps the five markers in locals, with the cell
        search and the three interior-marker nudges written out.
        """
        stream = map(float, values)
        if self.count < 5:
            for value in stream:
                self.count += 1
                self._initial.append(value)
                if self.count == 5:
                    self._initial.sort()
                    self._heights = list(self._initial)
                    self._positions = [1, 2, 3, 4, 5]
                    self._desired = [
                        1.0 + 4.0 * increment for increment in self._increments
                    ]
                    break
            else:
                return

        h0, h1, h2, h3, h4 = self._heights
        n0, n1, n2, n3, n4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        i0, i1, i2, i3, i4 = self._increments
        first = n4
        for value in stream:
            # Locate the cell containing the new value, extending
            # extremes; every marker above the cell moves up one.
            if value < h0:
                h0 = value
                n1 += 1
                n2 += 1
                n3 += 1
            elif value >= h4:
                h4 = value
            elif value < h1:
                n1 += 1
                n2 += 1
                n3 += 1
            elif value < h2:
                n2 += 1
                n3 += 1
            elif value < h3:
                n3 += 1
            n4 += 1
            d0 += i0
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += i4

            # Nudge interior markers toward their desired positions:
            # parabolic interpolation, or linear when that would leave
            # the neighbours' bracket.
            drift = d1 - n1
            if (drift >= 1.0 and n2 - n1 > 1) or (drift <= -1.0 and n0 - n1 < -1):
                step = 1 if drift >= 1.0 else -1
                candidate = h1 + (step / (n2 - n0)) * (
                    (n1 - n0 + step) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - step) * (h1 - h0) / (n1 - n0)
                )
                if h0 < candidate < h2:
                    h1 = candidate
                elif step == 1:
                    h1 = h1 + step * (h2 - h1) / (n2 - n1)
                else:
                    h1 = h1 + step * (h0 - h1) / (n0 - n1)
                n1 += step
            drift = d2 - n2
            if (drift >= 1.0 and n3 - n2 > 1) or (drift <= -1.0 and n1 - n2 < -1):
                step = 1 if drift >= 1.0 else -1
                candidate = h2 + (step / (n3 - n1)) * (
                    (n2 - n1 + step) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - step) * (h2 - h1) / (n2 - n1)
                )
                if h1 < candidate < h3:
                    h2 = candidate
                elif step == 1:
                    h2 = h2 + step * (h3 - h2) / (n3 - n2)
                else:
                    h2 = h2 + step * (h1 - h2) / (n1 - n2)
                n2 += step
            drift = d3 - n3
            if (drift >= 1.0 and n4 - n3 > 1) or (drift <= -1.0 and n2 - n3 < -1):
                step = 1 if drift >= 1.0 else -1
                candidate = h3 + (step / (n4 - n2)) * (
                    (n3 - n2 + step) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - step) * (h3 - h2) / (n3 - n2)
                )
                if h2 < candidate < h4:
                    h3 = candidate
                elif step == 1:
                    h3 = h3 + step * (h4 - h3) / (n4 - n3)
                else:
                    h3 = h3 + step * (h2 - h3) / (n2 - n3)
                n3 += step
        # The top marker moves up once per value: it counts them.
        self.count += n4 - first
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d0, d1, d2, d3, d4]

    @property
    def value(self) -> Optional[float]:
        """Current quantile estimate; None before any observation."""
        if self.count == 0:
            return None
        if self.count <= 5:
            ordered = sorted(self._initial)
            # With so few points, report the same convention numpy's
            # "lower" interpolation uses; exactness here is what the
            # small-stream tests pin down.
            index = int(self.q * (len(ordered) - 1))
            return ordered[index]
        return self._heights[2]


class SegmentDownloadShares:
    """Running per-persona-segment concentration stats for the service.

    Fed with the store's ``(n_segments, n_apps)`` cumulative download
    matrix once per daily tick.  The matrix is simulator state -- a pure
    function of the store seed and the day, never of client count or
    arrival order -- so the exported ``streaming.segment.*`` gauges
    belong in the deterministic data-plane registry alongside the other
    streaming estimators.
    """

    def __init__(self, segment_names: Tuple[str, ...]) -> None:
        if not segment_names:
            raise ValueError("at least one segment name is required")
        self.segment_names = tuple(segment_names)
        self._matrix: Optional[np.ndarray] = None

    def observe_matrix(self, matrix: np.ndarray) -> None:
        """Replace the current per-(segment, app) download totals."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.segment_names):
            raise ValueError(
                "matrix must have one row per segment "
                f"({len(self.segment_names)}), got shape {matrix.shape}"
            )
        self._matrix = matrix

    def summaries(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Per-segment ``{downloads, share, top_10pct, gini}``; None if unfed."""
        if self._matrix is None:
            return None
        totals = self._matrix.sum(axis=1).astype(np.float64)
        grand_total = float(totals.sum())
        out: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(self.segment_names):
            row = self._matrix[index]
            positive = np.sort(row[row > 0].astype(np.float64))[::-1]
            summary = {
                "downloads": float(totals[index]),
                "share": (
                    float(totals[index] / grand_total) if grand_total > 0 else 0.0
                ),
            }
            if positive.size:
                summary["top_10pct"] = float(
                    cumulative_share(positive, [0.10])[0]
                )
                summary["gini"] = gini_coefficient(positive)
            out[name] = summary
        return out

    def export(self, metrics: MetricsRegistry) -> None:
        """Publish ``streaming.segment.<name>.*`` gauges."""
        summaries = self.summaries()
        if summaries is None:
            return
        for name, summary in summaries.items():
            prefix = f"streaming.segment.{name}"
            for key, value in summary.items():
                metrics.gauge(f"{prefix}.{key}").set(value)


class StreamingAnalytics:
    """Per-snapshot analytics sink for one store's live crawl stream.

    ``observe_day`` is called by the service with each committed day's
    snapshots; ``export`` publishes the current estimates as gauges on a
    metrics registry once per daily tick.  All exported values are a
    pure function of the committed snapshot *set* -- never of arrival
    order or client count -- so they belong in the service's
    deterministic data-plane registry.
    """

    QUANTILES = (0.50, 0.90, 0.99)

    def __init__(self, store: str, max_exponent: float = 5.0) -> None:
        self.store = store
        self.state = DownloadState()
        self.zipf = OnlineZipfSlope(self.state, max_exponent=max_exponent)
        self.pareto = RollingParetoShare(self.state)
        self.quantiles = {q: P2Quantile(q) for q in self.QUANTILES}
        self.snapshots_seen = 0

    def observe_snapshot(self, app_id: int, day: int, total_downloads: int) -> None:
        """Fold one committed snapshot into every estimator."""
        self.observe_day(day, (app_id,), (total_downloads,))

    def observe_day(
        self, day: int, app_ids: Sequence[int], totals: Sequence[int]
    ) -> None:
        """Fold one committed day, in commit order, into every estimator:
        the same result as one :meth:`observe_snapshot` per row."""
        self.snapshots_seen += len(app_ids)
        self.state.observe_day(day, app_ids, totals)
        for sketch in self.quantiles.values():
            sketch.observe_many(totals)

    def export(self, metrics: MetricsRegistry) -> None:
        """Publish current estimates as ``streaming.*`` gauges."""
        metrics.gauge("streaming.snapshots_seen").set(float(self.snapshots_seen))
        metrics.gauge("streaming.apps_tracked").set(float(self.state.n_apps))
        slope = self.zipf.value
        if slope is not None:
            metrics.gauge("streaming.zipf_slope").set(slope)
        shares = self.pareto.shares()
        if shares is not None:
            metrics.gauge("streaming.pareto_top_1pct").set(shares["top_1pct"])
            metrics.gauge("streaming.pareto_top_10pct").set(shares["top_10pct"])
            metrics.gauge("streaming.pareto_top_20pct").set(shares["top_20pct"])
            metrics.gauge("streaming.gini").set(shares["gini"])
        for q, sketch in self.quantiles.items():
            estimate = sketch.value
            if estimate is not None:
                label = f"streaming.downloads_p{int(round(q * 100)):02d}"
                metrics.gauge(label).set(estimate)
