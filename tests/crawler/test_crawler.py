"""Tests for repro.crawler.crawler (the crawl engine)."""

import pytest

from repro.crawler.crawler import CrawlError, ProxiesExhausted, StoreCrawler
from repro.crawler.database import SnapshotDatabase
from repro.crawler.proxies import Proxy, ProxyPool
from repro.crawler.webapi import StoreWebApi
from repro.marketplace import build_store
from repro.marketplace.profiles import demo_profile
from repro.obs.metrics import MetricsRegistry
from repro.resilience.errors import TransientFault
from repro.resilience.retry import RetryPolicy


@pytest.fixture()
def store():
    generated = build_store(
        demo_profile(
            initial_apps=60,
            new_apps_per_day=0.0,
            crawl_days=3,
            warmup_days=0,
            daily_downloads=200.0,
            n_users=50,
            n_categories=5,
            comment_probability=0.3,
        ),
        seed=21,
    )
    generated.store.advance_days(3)
    return generated.store


def make_crawler(
    store, proxy_pool=None, database=None, max_retries=5, **api_kwargs
):
    api = StoreWebApi(store, **api_kwargs)
    database = database if database is not None else SnapshotDatabase()
    proxy_pool = proxy_pool or ProxyPool.planetlab_like(n_proxies=20, seed=0)
    retry_policy = RetryPolicy(max_attempts=max_retries)
    return StoreCrawler(api, database, proxy_pool, retry_policy=retry_policy), database


class TestCrawlDay:
    def test_snapshots_every_listed_app(self, store):
        crawler, database = make_crawler(store)
        crawled = crawler.crawl_day(day=2)
        assert crawled == len(store.listed_app_ids())
        assert len(database.snapshots_on(store.name, 2)) == crawled

    def test_snapshot_matches_store_statistics(self, store):
        crawler, database = make_crawler(store)
        crawler.crawl_day(day=2)
        for app_id in store.listed_app_ids()[:20]:
            stats = store.statistics(app_id)
            observed = database.snapshot(store.name, 2, app_id)
            assert observed.total_downloads == stats.total_downloads
            assert observed.version_name == stats.version_name

    def test_comments_collected(self, store):
        crawler, database = make_crawler(store)
        crawler.crawl_day(day=2)
        assert len(database.comments(store.name)) == len(store.comments())

    def test_comments_skippable(self, store):
        crawler, database = make_crawler(store)
        crawler.crawl_day(day=2, fetch_comments=False)
        assert database.comments(store.name) == []

    def test_apk_downloaded_once_per_version(self, store):
        crawler, database = make_crawler(store)
        crawler.crawl_day(day=2)
        first_crawl_apks = crawler.stats.apks_fetched
        crawler.crawl_day(day=2)
        # Re-crawling the same day fetches no new APK versions.
        assert crawler.stats.apks_fetched == first_crawl_apks


class TestResilience:
    def test_survives_flaky_proxies(self, store):
        flaky = ProxyPool(
            [Proxy(i, "us", failure_rate=0.3) for i in range(10)], seed=1
        )
        crawler, database = make_crawler(store, proxy_pool=flaky, max_retries=20)
        crawled = crawler.crawl_day(day=2)
        assert crawled == len(store.listed_app_ids())
        assert crawler.stats.proxy_failures > 0

    def test_dead_pool_raises(self, store):
        dead = ProxyPool(
            [Proxy(0, "us", failure_rate=1.0)], seed=2
        )
        crawler, _ = make_crawler(store, proxy_pool=dead)
        with pytest.raises(CrawlError):
            crawler.crawl_day(day=2)

    def test_geo_fenced_store_uses_chinese_proxies(self, store):
        pool = ProxyPool.planetlab_like(n_proxies=30, china_fraction=0.3, seed=3)
        crawler, database = make_crawler(
            store, proxy_pool=pool, allowed_countries=("cn",)
        )
        crawled = crawler.crawl_day(day=2)
        assert crawled == len(store.listed_app_ids())
        # Only Chinese proxies should have served requests.
        for proxy in pool.proxies():
            if proxy.country != "cn":
                assert proxy.requests_served == 0

    def test_self_pacing_advances_clock(self, store):
        crawler, _ = make_crawler(store)
        crawler.crawl_day(day=2)
        # Hundreds of requests at 8 req/s must take simulated time.
        assert crawler.clock > 1.0

    def test_all_proxies_killed_raises_proxies_exhausted(self, store):
        pool = ProxyPool.planetlab_like(n_proxies=5, seed=4)
        crawler, _ = make_crawler(store, proxy_pool=pool)
        for proxy in pool.proxies():
            pool.kill(proxy.proxy_id)
        with pytest.raises(ProxiesExhausted) as excinfo:
            crawler.crawl_day(day=2)
        assert excinfo.value.store_name == store.name

    def test_geo_constraint_without_matching_proxy_exhausts(self, store):
        # A cn-only store served by a pool with no Chinese nodes.
        pool = ProxyPool(
            [Proxy(i, "us") for i in range(5)], seed=5
        )
        crawler, _ = make_crawler(
            store, proxy_pool=pool, allowed_countries=("cn",)
        )
        with pytest.raises(ProxiesExhausted) as excinfo:
            crawler.crawl_day(day=2)
        assert excinfo.value.country == "cn"

    def test_fully_blacklisted_pool_exhausts(self, store):
        pool = ProxyPool([Proxy(i, "us") for i in range(3)], seed=6)
        crawler, _ = make_crawler(store, proxy_pool=pool)
        for proxy in pool.proxies():
            pool.blacklist(proxy.proxy_id, store.name)
        with pytest.raises(ProxiesExhausted):
            crawler.crawl_day(day=2)

    def test_proxies_exhausted_is_a_crawl_error(self):
        error = ProxiesExhausted("somestore", country="cn")
        assert isinstance(error, CrawlError)
        assert "somestore" in str(error)
        assert "cn" in str(error)

    def test_invalid_configuration(self, store):
        api = StoreWebApi(store)
        with pytest.raises(ValueError):
            StoreCrawler(
                api,
                SnapshotDatabase(),
                ProxyPool.planetlab_like(5, seed=0),
                requests_per_second=0.0,
            )


class TestObservability:
    """Regression tests: recovery paths must be counted, never silent."""

    def test_proxy_pick_failure_is_counted_not_silent(self, store):
        """The NoProxyAvailable swallow in _pick_proxy now leaves a trace.

        One always-failing proxy trips its breaker after three
        consecutive failures; every later constrained pick excludes it
        and fails -- which the old code absorbed with a bare ``pass``.
        """
        registry = MetricsRegistry()
        pool = ProxyPool([Proxy(0, "us", failure_rate=1.0)], seed=2)
        crawler = StoreCrawler(
            StoreWebApi(store),
            SnapshotDatabase(),
            pool,
            retry_policy=RetryPolicy(max_attempts=8),
            metrics=registry,
        )
        with pytest.raises(CrawlError):
            crawler.crawl_day(day=2)
        assert crawler.stats.proxy_pick_failures > 0
        assert (
            registry.counter("crawler.proxy_pick_failures").value
            == crawler.stats.proxy_pick_failures
        )
        # The degraded breaker probes are visible on the registry too.
        assert (
            registry.counter("crawler.breaker_skips").value
            == crawler.stats.breaker_skips
        )

    def _crawler_with_poisoned_app(self, store, victim=None, database=None):
        """A crawler whose API permanently fails one app's page (the first
        listed app's by default)."""
        api = StoreWebApi(store)
        victim = store.listed_app_ids()[0] if victim is None else victim
        original = api.app_page

        def poisoned_app_page(app_id, client, country, now):
            if app_id == victim:
                raise TransientFault(f"injected: page host down for {app_id}")
            return original(app_id, client, country, now)

        api.app_page = poisoned_app_page
        crawler = StoreCrawler(
            api,
            database if database is not None else SnapshotDatabase(),
            ProxyPool.planetlab_like(n_proxies=20, seed=0),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        return crawler

    def test_without_drop_mode_the_day_still_fails(self, store):
        """Retry exhaustion on one app's page aborts the whole day."""
        crawler = self._crawler_with_poisoned_app(store)
        with pytest.raises(CrawlError):
            crawler.crawl_day(day=2)

    def test_failed_day_leaves_no_rows(self, store):
        """The day commits once every app is visited: when the last listed
        app's page never arrives, no snapshot, APK or comment of the day
        lands, although every earlier app was fetched."""
        listed = store.listed_app_ids()
        database = SnapshotDatabase()
        crawler = self._crawler_with_poisoned_app(
            store, victim=listed[-1], database=database
        )
        with pytest.raises(CrawlError):
            crawler.crawl_day(day=2)
        assert database.days(store.name) == []
        assert database.snapshots_on(store.name, 2) == []
        assert database.apks(store.name) == []
        assert database.comments(store.name) == []
        assert crawler.stats.apps_crawled == len(listed) - 1
        assert crawler.stats.comments_fetched == crawler.stats.apks_fetched == 0
