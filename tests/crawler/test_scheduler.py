"""Tests for repro.crawler.scheduler (crawl campaigns)."""

import pytest

from repro.crawler.scheduler import run_crawl_campaign, run_multi_store_campaign
from repro.marketplace.profiles import demo_profile


class TestRunCrawlCampaign:
    def test_campaign_produces_daily_snapshots(self, demo_campaign):
        days = demo_campaign.crawled_days
        assert len(days) == demo_campaign.generated.profile.crawl_days
        assert days[0] == demo_campaign.first_crawl_day
        assert days[-1] == demo_campaign.last_crawl_day

    def test_warmup_history_present(self, demo_campaign):
        """The first crawled snapshot already carries download history."""
        database = demo_campaign.database
        first = database.download_vector(
            demo_campaign.store_name, demo_campaign.first_crawl_day
        )
        assert first.sum() > 0

    def test_downloads_monotone_over_days(self, demo_campaign):
        """Cumulative downloads never decrease between crawls."""
        database = demo_campaign.database
        store = demo_campaign.store_name
        days = demo_campaign.crawled_days
        previous = None
        for day in days:
            snapshots = {
                s.app_id: s.total_downloads
                for s in database.snapshots_on(store, day)
            }
            if previous is not None:
                for app_id, downloads in snapshots.items():
                    assert downloads >= previous.get(app_id, 0)
            previous = snapshots

    def test_new_apps_appear_mid_crawl(self, demo_campaign):
        database = demo_campaign.database
        store = demo_campaign.store_name
        first = set(
            s.app_id
            for s in database.snapshots_on(store, demo_campaign.first_crawl_day)
        )
        last = set(
            s.app_id
            for s in database.snapshots_on(store, demo_campaign.last_crawl_day)
        )
        assert len(last) > len(first)

    def test_crawl_every_skips_days(self):
        profile = demo_profile(
            initial_apps=80,
            crawl_days=6,
            warmup_days=1,
            daily_downloads=100.0,
            n_users=60,
            n_categories=5,
        )
        campaign = run_crawl_campaign(profile, seed=1, crawl_every=3)
        # Days 0, 3 of the crawl plus the forced final day.
        assert len(campaign.crawled_days) == 3

    def test_invalid_crawl_every(self):
        with pytest.raises(ValueError):
            run_crawl_campaign(demo_profile(), seed=1, crawl_every=0)

    def test_deterministic(self):
        profile = demo_profile(
            initial_apps=60,
            crawl_days=3,
            warmup_days=1,
            daily_downloads=80.0,
            n_users=40,
            n_categories=5,
        )
        a = run_crawl_campaign(profile, seed=7)
        b = run_crawl_campaign(profile, seed=7)
        day = a.last_crawl_day
        assert (
            a.database.download_vector("demo", day).tolist()
            == b.database.download_vector("demo", day).tolist()
        )


class TestMultiStoreCampaign:
    def test_shared_database(self):
        profiles = {
            "store-a": demo_profile(
                name="store-a",
                initial_apps=50,
                crawl_days=3,
                warmup_days=1,
                daily_downloads=60.0,
                n_users=40,
                n_categories=5,
            ),
            "store-b": demo_profile(
                name="store-b",
                initial_apps=50,
                crawl_days=3,
                warmup_days=1,
                daily_downloads=60.0,
                n_users=40,
                n_categories=5,
            ),
        }
        campaigns = run_multi_store_campaign(profiles, seed=2)
        database = campaigns["store-a"].database
        assert database is campaigns["store-b"].database
        assert set(database.stores()) == {"store-a", "store-b"}

    def test_comment_filter(self):
        profiles = {
            "with-comments": demo_profile(
                name="with-comments",
                initial_apps=40,
                crawl_days=2,
                warmup_days=1,
                daily_downloads=120.0,
                n_users=40,
                n_categories=5,
                comment_probability=0.4,
            ),
            "without-comments": demo_profile(
                name="without-comments",
                initial_apps=40,
                crawl_days=2,
                warmup_days=1,
                daily_downloads=120.0,
                n_users=40,
                n_categories=5,
                comment_probability=0.4,
            ),
        }
        campaigns = run_multi_store_campaign(
            profiles, seed=3, fetch_comments_for=["with-comments"]
        )
        database = campaigns["with-comments"].database
        assert database.n_comments("with-comments")
        assert not database.n_comments("without-comments")
