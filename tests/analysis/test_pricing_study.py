"""Tests for repro.analysis.pricing_study (Figures 11-12)."""

import warnings

import numpy as np
import pytest

from repro.analysis.pricing_study import (
    free_paid_split,
    price_correlations,
    segment_pricing_study,
)
from repro.crawler.database import AppSnapshot, SnapshotDatabase
from tests.rows import add_snapshots


def _snapshot(app_id, price, downloads, day=0, store="gapped"):
    return AppSnapshot(
        store=store,
        day=day,
        app_id=app_id,
        name=f"app-{app_id}",
        category="music",
        developer_id=app_id,
        price=price,
        declares_ads=False,
        total_downloads=downloads,
        rating_count=0,
        average_rating=0.0,
        comment_count=0,
        version_name="1.0",
    )


def _database(prices_and_downloads):
    database = SnapshotDatabase()
    add_snapshots(
        database,
        [
            _snapshot(app_id, price, downloads)
            for app_id, (price, downloads) in enumerate(prices_and_downloads)
        ],
    )
    return database


class TestFreePaidSplit:
    @pytest.fixture(scope="class")
    def split(self, slideme_campaign):
        return free_paid_split(slideme_campaign.database, "slideme-test")

    def test_both_populations_present(self, split):
        assert split.free_downloads.size > split.paid_downloads.size > 0

    def test_free_apps_more_popular(self, split):
        """Table 1 / Section 6.1: free apps get far more downloads."""
        assert split.free_downloads.mean() > split.paid_downloads.mean()

    def test_paid_curve_cleaner_power_law(self, split):
        """Figure 11: the paid curve is closer to a pure power law.

        Measured by the full-range log-log fit: the paid curve fits a
        straight line better (higher R^2) and steeper (the paper: 1.72 vs
        0.85 on SlideMe).
        """
        assert split.paid_fit.r_squared > split.free_fit.r_squared
        assert split.paid_fit.slope > split.free_fit.slope

    def test_free_only_store_rejected(self, demo_campaign):
        with pytest.raises(ValueError):
            free_paid_split(demo_campaign.database, "demo")

    def test_describe(self, split):
        text = split.describe()
        assert "free apps" in text and "paid apps" in text


class TestPriceCorrelations:
    @pytest.fixture(scope="class")
    def correlations(self, slideme_campaign):
        return price_correlations(slideme_campaign.database, "slideme-test")

    def test_negative_price_downloads_correlation(self, correlations):
        """Figure 12: downloads are negatively correlated with price."""
        assert correlations.price_vs_downloads.coefficient < 0

    def test_negative_price_appcount_correlation(self, correlations):
        """Figure 12: fewer apps at higher prices."""
        assert correlations.price_vs_app_count.coefficient < 0

    def test_binned_series_aligned(self, correlations):
        assert (
            correlations.price_bins.shape
            == correlations.mean_downloads_per_bin.shape
            == correlations.apps_per_bin.shape
        )
        assert np.all(correlations.apps_per_bin > 0)

    def test_describe(self, correlations):
        text = correlations.describe()
        assert "Pearson" in text

    def test_free_only_store_rejected(self, demo_campaign):
        with pytest.raises(ValueError):
            price_correlations(demo_campaign.database, "demo")

    def test_invalid_bin_width(self, slideme_campaign):
        with pytest.raises(ValueError):
            price_correlations(
                slideme_campaign.database, "slideme-test", bin_width=0.0
            )


class TestGappedPriceBins:
    """Regression: gapped/degenerate price distributions stay clean.

    Per-segment slicing routinely leaves a handful of paid apps whose
    prices skip whole dollar bins; the binned series must never average
    an empty bin (NaN) and a single occupied bin must come back as an
    explicit zero correlation, not a crash.
    """

    def test_gapped_prices_no_nan_no_warning(self):
        # Paid prices at $0.50 and $9.50: eight empty bins in between.
        database = _database(
            [(0.5, 900), (0.5, 700), (9.5, 30), (0.0, 5000), (0.0, 4000)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = price_correlations(database, "gapped")
        assert result.price_bins.tolist() == [0.5, 9.5]
        assert np.all(np.isfinite(result.mean_downloads_per_bin))
        assert np.all(result.apps_per_bin > 0)
        assert result.price_vs_downloads.coefficient < 0

    def test_single_occupied_bin_reports_zero_correlation(self):
        # Every paid app shares one bin: the binned correlation is
        # undefined, reported as the explicit 0.0 convention.
        database = _database(
            [(2.2, 100), (2.5, 80), (2.8, 60), (0.0, 900)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = price_correlations(database, "gapped")
        assert result.price_bins.size == 1
        assert result.price_vs_downloads.coefficient == 0.0
        assert result.price_vs_app_count.coefficient == 0.0

    def test_deterministic(self):
        database = _database(
            [(0.5, 900), (0.5, 700), (9.5, 30), (0.0, 5000)]
        )
        a = price_correlations(database, "gapped")
        b = price_correlations(database, "gapped")
        assert a.price_bins.tolist() == b.price_bins.tolist()
        assert (
            a.price_vs_downloads.coefficient
            == b.price_vs_downloads.coefficient
        )


class TestSegmentPricingStudy:
    def _inputs(self):
        # 4 apps: two free, two paid; two segments with skewed tastes.
        matrix = np.array(
            [
                [500, 300, 10, 2],  # price-averse segment
                [100, 100, 90, 80],  # paying segment
            ]
        )
        prices = np.array([0.0, 0.0, 1.5, 4.5])
        categories = np.array([0, 1, 0, 1])
        return matrix, prices, categories

    def test_global_row_plus_one_per_segment(self):
        matrix, prices, categories = self._inputs()
        outcomes = segment_pricing_study(
            matrix, prices, categories, ("averse", "payers")
        )
        assert [o.segment for o in outcomes] == ["global", "averse", "payers"]

    def test_shares_and_totals(self):
        matrix, prices, categories = self._inputs()
        outcomes = segment_pricing_study(
            matrix, prices, categories, ("averse", "payers")
        )
        total = matrix.sum()
        assert outcomes[0].downloads == total
        assert outcomes[0].download_share == pytest.approx(1.0)
        assert outcomes[1].download_share == pytest.approx(
            matrix[0].sum() / total
        )
        # The paying segment routes far more of its downloads to paid apps.
        assert (
            outcomes[2].paid_download_share > outcomes[1].paid_download_share
        )

    def test_small_segment_correlation_undefined(self):
        # One paid price bin only: explicit None, never NaN.
        matrix = np.array([[10, 5]])
        prices = np.array([0.0, 2.0])
        categories = np.array([0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = segment_pricing_study(
                matrix, prices, categories, ("only",)
            )
        assert outcomes[1].price_downloads_corr is None
        assert "undefined" in outcomes[1].describe()

    def test_validation(self):
        matrix, prices, categories = self._inputs()
        with pytest.raises(ValueError):
            segment_pricing_study(matrix, prices, categories, ("one-name",))
        with pytest.raises(ValueError):
            segment_pricing_study(
                matrix, prices[:-1], categories, ("a", "b")
            )
        with pytest.raises(ValueError):
            segment_pricing_study(
                matrix, prices, categories, ("a", "b"), bin_width=0.0
            )
