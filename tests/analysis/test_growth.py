"""Tests for repro.analysis.growth (temporal growth analysis)."""

import numpy as np
import pytest

from repro.analysis.growth import (
    growth_series,
    new_app_adoption,
    new_vs_catalog_share,
)


class TestGrowthSeries:
    @pytest.fixture(scope="class")
    def series(self, demo_campaign):
        return growth_series(demo_campaign.database, "demo")

    def test_series_aligned(self, series):
        n = len(series.days)
        assert (
            len(series.total_apps)
            == len(series.total_downloads)
            == len(series.new_apps)
            == len(series.download_deltas)
            == n
        )

    def test_downloads_monotone(self, series):
        assert list(series.total_downloads) == sorted(series.total_downloads)

    def test_apps_never_shrink(self, series):
        assert list(series.total_apps) == sorted(series.total_apps)

    def test_first_day_has_no_delta(self, series):
        assert series.new_apps[0] == 0
        assert series.download_deltas[0] == 0

    def test_averages_match_dataset_summary(self, series, demo_campaign):
        from repro.analysis.dataset import dataset_summary

        row = dataset_summary(demo_campaign.database)[0]
        assert series.average_daily_downloads == pytest.approx(
            row.daily_downloads, rel=1e-9
        )

    def test_needs_two_days(self, demo_campaign):
        from repro.crawler.database import SnapshotDatabase
        from tests.rows import add_snapshots

        single = SnapshotDatabase()
        day = demo_campaign.first_crawl_day
        add_snapshots(single, demo_campaign.database.snapshots_on("demo", day))
        with pytest.raises(ValueError):
            growth_series(single, "demo")

    def test_describe(self, series):
        assert "downloads/day" in series.describe()


class TestNewAppAdoption:
    def test_adoption_ramp_upward(self, demo_campaign):
        adoption = new_app_adoption(demo_campaign.database, "demo")
        assert adoption.n_new_apps > 0
        means = adoption.mean_downloads_by_age
        assert means
        # Cumulative downloads cannot shrink with age on average; allow
        # small non-monotonicity from the changing app mix per age.
        assert means[-1] >= means[0]

    def test_max_age_validated(self, demo_campaign):
        with pytest.raises(ValueError):
            new_app_adoption(demo_campaign.database, "demo", max_age=0)

    def test_describe(self, demo_campaign):
        adoption = new_app_adoption(demo_campaign.database, "demo")
        assert "new apps" in adoption.describe()


class TestNewVsCatalogShare:
    def test_shares_sum_to_one(self, demo_campaign):
        catalog, fresh = new_vs_catalog_share(demo_campaign.database, "demo")
        assert catalog + fresh == pytest.approx(1.0)
        assert 0.0 <= catalog <= 1.0

    def test_catalog_dominates(self, demo_campaign):
        """Head-heavy popularity: the established catalog carries the
        growth even while new apps keep arriving."""
        catalog, fresh = new_vs_catalog_share(demo_campaign.database, "demo")
        assert catalog > fresh
