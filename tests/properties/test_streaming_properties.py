"""Property-based tests (hypothesis) for the served popularity gauges.

The ``streaming.*`` gauges are a view of the committed data: after a day
commits, :class:`StreamingAnalytics` reads that day's download column
and the store's row count, and sets each gauge with the batch function.
The property commits random days, each with its rows in shuffled order,
and requires every gauge to equal the batch answer over the committed
column bit for bit.  The per-segment gauges are one stateless call on
the store's segment matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import StreamingAnalytics, export_segment_shares
from repro.core.pareto import gini_coefficient
from repro.crawler.database import SnapshotDatabase
from repro.obs.metrics import MetricsRegistry
from repro.stats.distributions import cumulative_share
from repro.stats.rng import make_rng
from repro.stats.zipf import fit_zipf_exponent_mle

STORE = "demo"

# Days of ``{app_id: total_downloads}`` rows.
days_of_rows = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10**9),
        min_size=1,
        max_size=13,
    ),
    min_size=1,
    max_size=4,
)


def batch_gauges(database, store, day):
    """The ``streaming.*`` gauges as the batch functions compute them
    from the data committed for ``day``; a gauge its data cannot define
    (a slope of fewer than two positive totals, shares of none) is left
    out."""
    downloads = database.download_vector(store, day)
    positive = downloads[downloads > 0]
    positive = positive[positive.argsort()[::-1]].astype(float)
    gauges = {
        "streaming.snapshots_seen": float(database.columnar.n_snapshot_rows(store)),
        "streaming.apps_tracked": float(downloads.size),
    }
    if positive.size >= 2:
        gauges["streaming.zipf_slope"] = fit_zipf_exponent_mle(positive)
    if positive.size:
        top = cumulative_share(positive, [0.01, 0.10, 0.20])
        gauges["streaming.pareto_top_1pct"] = float(top[0])
        gauges["streaming.pareto_top_10pct"] = float(top[1])
        gauges["streaming.pareto_top_20pct"] = float(top[2])
        gauges["streaming.gini"] = gini_coefficient(positive)
    for q, label in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
        gauges[f"streaming.downloads_{label}"] = float(
            np.quantile(downloads, q, method="lower")
        )
    return gauges


def exported_gauges(database, store, day):
    """What :meth:`StreamingAnalytics.export` publishes for ``day``."""
    metrics = MetricsRegistry()
    StreamingAnalytics(store).export(database, day, metrics)
    return metrics.snapshot()["gauges"]


def commit_rows(database, day, totals, rng):
    """Commit one day of ``{app_id: total}`` rows in shuffled order."""
    app_ids = list(totals)
    rng.shuffle(app_ids)
    n = len(app_ids)
    database.columnar.extend_snapshots(
        STORE,
        day,
        {
            "app_id": app_ids,
            "name": [f"app-{app_id}" for app_id in app_ids],
            "category": ["tools"] * n,
            "developer_id": [app_id % 3 for app_id in app_ids],
            "price": [0.0] * n,
            "declares_ads": [False] * n,
            "total_downloads": [totals[app_id] for app_id in app_ids],
            "rating_count": [0] * n,
            "average_rating": [0.0] * n,
            "comment_count": [0] * n,
            "version_name": ["1.0"] * n,
        },
    )


class TestBatchReaderEquivalence:
    @given(days=days_of_rows, shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_zipf_and_pareto_match_batch_bit_for_bit(self, days, shuffle_seed):
        rng = make_rng(shuffle_seed)
        database = SnapshotDatabase()
        rows = 0
        for day, totals in enumerate(days):
            commit_rows(database, day, totals, rng)
            rows += len(totals)
            committed = database.download_vector(STORE, day)
            assert committed.tolist() == [totals[app_id] for app_id in sorted(totals)]
            gauges = exported_gauges(database, STORE, day)
            assert gauges["streaming.snapshots_seen"] == float(rows)
            assert gauges == batch_gauges(database, STORE, day)


class TestSegmentDownloadShares:
    """Unit contract for the per-segment service gauges."""

    NAMES = ("alpha", "beta")

    def _gauges(self, matrix):
        metrics = MetricsRegistry()
        export_segment_shares(self.NAMES, np.array(matrix), metrics)
        return metrics.snapshot()["gauges"]

    def test_requires_names(self):
        with pytest.raises(ValueError):
            export_segment_shares((), np.zeros((0, 3)), MetricsRegistry())

    def test_matrix_shape_validated(self):
        for matrix in (np.zeros(4), np.zeros((3, 4))):
            with pytest.raises(ValueError):
                export_segment_shares(self.NAMES, matrix, MetricsRegistry())

    def test_summaries_match_batch_math(self):
        gauges = self._gauges([[40, 0, 10], [10, 30, 10]])
        assert gauges["streaming.segment.alpha.downloads"] == 50.0
        assert gauges["streaming.segment.alpha.share"] == pytest.approx(0.5)
        positive = np.array([40.0, 10.0])
        assert gauges["streaming.segment.alpha.top_10pct"] == pytest.approx(
            cumulative_share(positive, [0.10])[0]
        )
        assert gauges["streaming.segment.alpha.gini"] == gini_coefficient(positive)

    def test_all_zero_segment_has_no_concentration_stats(self):
        gauges = self._gauges([[0, 0, 0], [5, 5, 0]])
        alpha = {
            key: value
            for key, value in gauges.items()
            if key.startswith("streaming.segment.alpha.")
        }
        assert alpha == {
            "streaming.segment.alpha.downloads": 0.0,
            "streaming.segment.alpha.share": 0.0,
        }
        assert "streaming.segment.beta.gini" in gauges

    def test_export_publishes_prefixed_gauges(self):
        gauges = self._gauges([[40, 0, 10], [10, 30, 10]])
        assert sorted(gauges) == [
            f"streaming.segment.{name}.{key}"
            for name in self.NAMES
            for key in ("downloads", "gini", "share", "top_10pct")
        ]
        assert gauges["streaming.segment.alpha.downloads"] == 50.0
        assert gauges["streaming.segment.beta.share"] == pytest.approx(0.5)
