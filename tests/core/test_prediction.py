"""Tests for repro.core.prediction (download forecasting)."""

import numpy as np
import pytest

from repro.core.prediction import (
    DownloadForecast,
    find_problematic_apps,
    forecast_downloads,
)

SMALL_GRIDS = dict(
    zr_grid=(0.9, 1.1, 1.3, 1.5),
    zc_grid=(1.2, 1.4),
    p_grid=(0.8, 0.9),
)


class TestForecastDownloads:
    @pytest.fixture(scope="class")
    def forecast(self, demo_campaign):
        return forecast_downloads(
            demo_campaign.database, "demo", n_clusters=12, **SMALL_GRIDS
        )

    def test_defaults_span_the_crawl(self, forecast, demo_campaign):
        assert forecast.reference_day == demo_campaign.first_crawl_day
        assert forecast.target_day == demo_campaign.last_crawl_day
        assert forecast.horizon_days > 0

    def test_predicted_total_grows(self, forecast):
        """The forecast extrapolates growth beyond the reference day."""
        reference_total = float(forecast.observed_reference.sum())
        assert forecast.predicted_total() > reference_total

    def test_forecast_tracks_realized_curve(self, forecast, demo_campaign):
        observed = demo_campaign.database.download_vector(
            "demo", demo_campaign.last_crawl_day
        ).astype(float)
        distance = forecast.evaluate(observed[observed > 0])
        # The realized curve should be within a modest Equation-6
        # distance of the forecast -- far better than chance.
        assert distance < 0.6

    def test_invalid_day_order(self, demo_campaign):
        days = demo_campaign.database.days("demo")
        with pytest.raises(ValueError):
            forecast_downloads(
                demo_campaign.database,
                "demo",
                reference_day=days[-1],
                target_day=days[0],
            )

    def test_needs_two_days(self, demo_campaign):
        from repro.crawler.database import SnapshotDatabase
        from tests.rows import add_snapshots

        single = SnapshotDatabase()
        day = demo_campaign.first_crawl_day
        add_snapshots(single, demo_campaign.database.snapshots_on("demo", day))
        with pytest.raises(ValueError):
            forecast_downloads(single, "demo")


class TestProblematicApps:
    @pytest.fixture(scope="class")
    def forecast(self, demo_campaign):
        return forecast_downloads(demo_campaign.database, "demo", n_clusters=12)

    def test_flagged_apps_underperform(self, demo_campaign, forecast):
        apps = find_problematic_apps(demo_campaign.database, forecast)
        for app in apps:
            assert app.observed_growth * 4.0 < app.expected_growth
            assert app.shortfall > 0

    def test_sorted_by_shortfall(self, demo_campaign, forecast):
        apps = find_problematic_apps(demo_campaign.database, forecast)
        shortfalls = [app.shortfall for app in apps]
        assert shortfalls == sorted(shortfalls, reverse=True)

    def test_factor_validation(self, demo_campaign, forecast):
        with pytest.raises(ValueError):
            find_problematic_apps(
                demo_campaign.database, forecast, shortfall_factor=1.0
            )

    def test_loose_threshold_flags_more(self, demo_campaign, forecast):
        strict = find_problematic_apps(
            demo_campaign.database, forecast, shortfall_factor=20.0
        )
        loose = find_problematic_apps(
            demo_campaign.database, forecast, shortfall_factor=1.5
        )
        assert len(loose) >= len(strict)
