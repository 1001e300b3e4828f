"""Popularity gauges for the always-on service, read from committed data.

The paper's popularity results are functions of one per-app download
vector: the Pareto concentration shares of §3.1 (Figure 2) and the Zipf
slope of the rank distribution (§3.2).  The always-on service
(:mod:`repro.service`) commits that vector every day as a sealed column,
so its ``streaming.*`` gauges are the batch functions
(:func:`~repro.stats.zipf.fit_zipf_exponent_mle`,
:func:`~repro.stats.distributions.cumulative_share`,
:func:`~repro.core.pareto.gini_coefficient`) over the newest committed
column, recomputed at each daily tick.  "A Simple Generative Model of
Collective Online Behaviour" (PAPERS.md) treats popularity as a
*running* quantity over an adoption stream; here that running quantity
is the gauge series a served run publishes, one value per day.

Because the gauges read only committed columns, they are a pure function
of the committed data: the same for any client count or arrival order,
and the same again from a JSONL or packed copy of the database.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.pareto import gini_coefficient
from repro.crawler.database import SnapshotDatabase
from repro.obs.metrics import MetricsRegistry
from repro.stats.distributions import cumulative_share
from repro.stats.zipf import fit_zipf_exponent_mle

__all__ = ["StreamingAnalytics", "export_segment_shares"]


class StreamingAnalytics:
    """The ``streaming.*`` gauges of one store's committed crawl.

    Holds nothing but the store name: :meth:`export` reads everything it
    publishes from the database.
    """

    QUANTILES = (0.50, 0.90, 0.99)

    def __init__(self, store: str) -> None:
        self.store = store

    def export(
        self, database: SnapshotDatabase, day: int, metrics: MetricsRegistry
    ) -> None:
        """Publish the gauges of the download column committed for ``day``.

        ``snapshots_seen`` counts every committed snapshot row of the
        store; ``apps_tracked`` and the popularity gauges read the day's
        per-app totals.  The slope, Pareto shares and Gini take the
        positive totals as float64, sorted descending; the quantiles are
        ``np.quantile(totals, q, method="lower")``, so each is one of the
        totals.  The slope needs two positive totals and the shares one.
        """
        metrics.gauge("streaming.snapshots_seen").set(
            float(database.columnar.n_snapshot_rows(self.store))
        )
        totals = database.download_vector(self.store, day)
        metrics.gauge("streaming.apps_tracked").set(float(totals.size))
        positive = totals[totals > 0].astype(np.float64)
        positive[::-1].sort()
        if positive.size >= 2:
            metrics.gauge("streaming.zipf_slope").set(fit_zipf_exponent_mle(positive))
        if positive.size:
            top = cumulative_share(positive, [0.01, 0.10, 0.20])
            metrics.gauge("streaming.pareto_top_1pct").set(float(top[0]))
            metrics.gauge("streaming.pareto_top_10pct").set(float(top[1]))
            metrics.gauge("streaming.pareto_top_20pct").set(float(top[2]))
            metrics.gauge("streaming.gini").set(gini_coefficient(positive))
        for q in self.QUANTILES:
            metrics.gauge(f"streaming.downloads_p{round(q * 100):02d}").set(
                float(np.quantile(totals, q, method="lower"))
            )


def export_segment_shares(
    names: Sequence[str], matrix: np.ndarray, metrics: MetricsRegistry
) -> None:
    """Publish ``streaming.segment.<name>.*`` gauges of a segment matrix.

    ``matrix`` is the store's ``(n_segments, n_apps)`` cumulative
    download matrix, one row per name.  Each segment gets its
    ``downloads`` and its ``share`` of all downloads; a segment with a
    positive total also gets the ``top_10pct`` share and the ``gini`` of
    its positive per-app totals.  The matrix is simulator state -- a
    function of the store seed and the day, never of client count or
    arrival order -- so these gauges belong in the data plane too.
    """
    if not names:
        raise ValueError("at least one segment name is required")
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != len(names):
        raise ValueError(
            f"matrix must have one row per segment ({len(names)}), "
            f"got shape {matrix.shape}"
        )
    totals = matrix.sum(axis=1).astype(np.float64)
    grand_total = float(totals.sum())
    for name, row, total in zip(names, matrix, totals):
        prefix = f"streaming.segment.{name}"
        metrics.gauge(f"{prefix}.downloads").set(float(total))
        metrics.gauge(f"{prefix}.share").set(
            float(total / grand_total) if grand_total > 0 else 0.0
        )
        positive = np.sort(row[row > 0].astype(np.float64))[::-1]
        if positive.size:
            metrics.gauge(f"{prefix}.top_10pct").set(
                float(cumulative_share(positive, [0.10])[0])
            )
            metrics.gauge(f"{prefix}.gini").set(gini_coefficient(positive))
