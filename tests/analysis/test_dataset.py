"""Tests for repro.analysis.dataset (Table 1)."""

import pytest

from repro.analysis.dataset import dataset_summary


class TestDatasetSummary:
    def test_row_per_store(self, demo_campaign):
        rows = dataset_summary(demo_campaign.database)
        assert len(rows) == 1
        assert rows[0].store == "demo"

    def test_growth_rates_positive(self, demo_campaign):
        row = dataset_summary(demo_campaign.database)[0]
        assert row.apps_last_day >= row.apps_first_day
        assert row.downloads_last_day > row.downloads_first_day
        assert row.daily_downloads > 0
        assert row.new_apps_per_day >= 0

    def test_daily_downloads_close_to_profile(self, demo_campaign):
        """Realized daily downloads approach the profile's Poisson rate.

        They fall somewhat below it because heavily active users saturate
        the small catalog (fetch-at-most-once caps their demand) -- the
        same effect the paper sees at the head of Figure 3.
        """
        row = dataset_summary(demo_campaign.database)[0]
        expected = demo_campaign.generated.profile.daily_downloads
        assert 0.4 * expected < row.daily_downloads <= 1.1 * expected

    def test_crawl_days_span(self, demo_campaign):
        row = dataset_summary(demo_campaign.database)[0]
        assert row.crawl_days == len(demo_campaign.crawled_days)

    def test_free_paid_split(self, slideme_campaign):
        rows = dataset_summary(
            slideme_campaign.database, split_free_paid=["slideme-test"]
        )
        labels = [row.store for row in rows]
        assert "slideme-test (free)" in labels
        assert "slideme-test (paid)" in labels
        free_row = next(r for r in rows if "free" in r.store)
        paid_row = next(r for r in rows if "paid" in r.store)
        # Free apps dominate downloads, as in Table 1.
        assert free_row.downloads_last_day > paid_row.downloads_last_day
        assert free_row.apps_last_day > paid_row.apps_last_day

    def test_requires_two_days(self, demo_campaign):
        from repro.crawler.database import SnapshotDatabase
        from tests.rows import add_snapshots

        single_day = SnapshotDatabase()
        store = demo_campaign.store_name
        day = demo_campaign.first_crawl_day
        add_snapshots(single_day, demo_campaign.database.snapshots_on(store, day))
        with pytest.raises(ValueError):
            dataset_summary(single_day)
