"""Tests for repro.crawler.webapi."""

import numpy as np
import pytest

from repro.crawler.ratelimit import RateLimitExceeded
from repro.crawler.webapi import GeoBlockedError, StoreWebApi
from repro.marketplace import build_store
from repro.marketplace.profiles import demo_profile


@pytest.fixture(scope="module")
def store():
    generated = build_store(
        demo_profile(
            initial_apps=120,
            new_apps_per_day=0.0,
            crawl_days=4,
            warmup_days=0,
            daily_downloads=300.0,
            n_users=80,
            n_categories=6,
            comment_probability=0.3,
        ),
        seed=3,
    )
    generated.store.advance_days(4)
    return generated.store


def open_api(store, **kwargs):
    return StoreWebApi(store, **kwargs)


class TestListing:
    def test_pagination_covers_all_apps(self, store):
        api = open_api(store, page_size=25)
        pages = api.n_pages("c1", "us", now=0.0)
        collected = []
        now = 1.0
        for page in range(pages):
            collected.extend(api.list_page(page, "c1", "us", now=now))
            now += 1.0
        assert sorted(collected) == sorted(store.listed_app_ids())

    def test_out_of_range_page_is_empty(self, store):
        api = open_api(store)
        assert api.list_page(9999, "c1", "us", now=0.0) == []

    def test_negative_page_rejected(self, store):
        api = open_api(store)
        with pytest.raises(ValueError):
            api.list_page(-1, "c1", "us", now=0.0)


class TestAppPage:
    def test_page_contents(self, store):
        api = open_api(store)
        app_id = store.listed_app_ids()[0]
        page = api.app_page(app_id, "c1", "us", now=0.0)
        assert page.app_id == app_id
        assert page.statistics.total_downloads >= 0
        assert page.category

    def test_comments_endpoint(self, store):
        api = open_api(store)
        app_with_comments = next(
            (
                app_id
                for app_id in store.listed_app_ids()
                if store.statistics(app_id).comment_count > 0
            ),
            None,
        )
        assert app_with_comments is not None
        comments = api.app_comments(app_with_comments, "c1", "us", now=0.0)
        assert comments.dtype == np.int64 and comments.shape[1] == 4
        assert comments.shape[0] == store.statistics(app_with_comments).comment_count
        assert np.all(comments[:, 1] == app_with_comments)

    def test_apk_download(self, store):
        api = open_api(store)
        app_id = store.listed_app_ids()[0]
        apk = api.download_apk(app_id, "c1", "us", now=0.0)
        assert apk.package_name
        assert apk.size_mb > 0

    def test_apk_download_does_not_count(self, store):
        """The crawler must not inflate the store's download numbers."""
        api = open_api(store)
        app_id = store.listed_app_ids()[0]
        before = store.statistics(app_id).total_downloads
        api.download_apk(app_id, "c2", "us", now=0.0)
        assert store.statistics(app_id).total_downloads == before


class TestThrottling:
    def test_rate_limit_enforced(self, store):
        api = open_api(store, requests_per_second=2.0)
        api.list_page(0, "hog", "us", now=0.0)
        api.list_page(0, "hog", "us", now=0.0)
        with pytest.raises(RateLimitExceeded):
            api.list_page(0, "hog", "us", now=0.0)

    def test_limits_are_per_client(self, store):
        api = open_api(store, requests_per_second=1.0)
        api.list_page(0, "a", "us", now=0.0)
        # A different client address has its own bucket.
        api.list_page(0, "b", "us", now=0.0)

    def test_persistent_violations_blacklist(self, store):
        api = open_api(store, requests_per_second=1.0, blacklist_threshold=3)
        api.list_page(0, "abuser", "us", now=0.0)
        for _ in range(3):
            with pytest.raises(RateLimitExceeded):
                api.list_page(0, "abuser", "us", now=0.0)
        assert api.is_blacklisted("abuser")
        with pytest.raises(GeoBlockedError):
            api.list_page(0, "abuser", "us", now=100.0)


class TestGeoBlocking:
    def test_wrong_country_blocked(self, store):
        api = open_api(store, allowed_countries=("cn",))
        with pytest.raises(GeoBlockedError):
            api.list_page(0, "c1", "us", now=0.0)

    def test_right_country_served(self, store):
        api = open_api(store, allowed_countries=("cn",))
        api.list_page(0, "c1", "cn", now=0.0)

    def test_requires_country_property(self, store):
        assert open_api(store, allowed_countries=("cn",)).requires_country == "cn"
        assert open_api(store).requires_country is None
