"""Admission-path tests for the store web API under interleaved clients.

The ``_admit`` gate is the store's whole defensive surface -- per-client
token buckets, violation counting, blacklisting, geo-fencing, injected
transient faults -- and the always-on service hits it from many clients
at once.  These tests interleave clients through the gate (directly, and
concurrently on the virtual clock) and pin down the corruption
round-trip the crawler relies on to detect broken pages.
"""

import pytest

from repro.crawler.ratelimit import RateLimitExceeded
from repro.crawler.webapi import (
    GeoBlockedError,
    StoreWebApi,
    corrupted_page,
    page_is_corrupt,
)
from repro.marketplace import build_store
from repro.marketplace.profiles import demo_profile
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    TransientFault,
)
from repro.service.virtualtime import Scheduler


@pytest.fixture(scope="module")
def store():
    generated = build_store(
        demo_profile(
            initial_apps=80,
            new_apps_per_day=0.0,
            crawl_days=4,
            warmup_days=0,
            daily_downloads=300.0,
            n_users=60,
            n_categories=6,
            comment_probability=0.2,
        ),
        seed=11,
    )
    generated.store.advance_days(4)
    return generated.store


class TestInterleavedRateLimiting:
    def test_buckets_are_per_client(self, store):
        """One client draining its bucket never throttles another."""
        api = StoreWebApi(store, requests_per_second=2.0)
        app_id = store.listed_app_ids()[0]
        # Client a burns its whole burst capacity at t=0...
        for _ in range(2):
            api.app_page(app_id, "a", "us", now=0.0)
        with pytest.raises(RateLimitExceeded):
            api.app_page(app_id, "a", "us", now=0.0)
        # ...while b, interleaved at the same instant, is untouched.
        api.app_page(app_id, "b", "us", now=0.0)

    def test_retry_after_is_honoured_by_the_clock(self, store):
        api = StoreWebApi(store, requests_per_second=2.0)
        app_id = store.listed_app_ids()[0]
        for _ in range(2):
            api.app_page(app_id, "a", "us", now=0.0)
        with pytest.raises(RateLimitExceeded) as exc_info:
            api.app_page(app_id, "a", "us", now=0.0)
        later = 0.0 + exc_info.value.retry_after
        # Waiting out the advertised interval readmits the client.
        api.app_page(app_id, "a", "us", now=later)

    def test_persistent_violations_escalate_to_blacklist(self, store):
        api = StoreWebApi(store, requests_per_second=1.0, blacklist_threshold=3)
        app_id = store.listed_app_ids()[0]
        api.app_page(app_id, "abuser", "us", now=0.0)
        for _ in range(3):
            with pytest.raises(RateLimitExceeded):
                api.app_page(app_id, "abuser", "us", now=0.0)
        assert api.is_blacklisted("abuser")
        # The ban outlives any token refill: time does not unblacklist.
        with pytest.raises(GeoBlockedError, match="blacklisted"):
            api.app_page(app_id, "abuser", "us", now=10_000.0)
        # An innocent bystander interleaved through the same instants
        # keeps full service.
        api.app_page(app_id, "bystander", "us", now=10_000.0)

    def test_violations_below_threshold_do_not_blacklist(self, store):
        api = StoreWebApi(store, requests_per_second=1.0, blacklist_threshold=5)
        app_id = store.listed_app_ids()[0]
        api.app_page(app_id, "bursty", "us", now=0.0)
        for _ in range(4):
            with pytest.raises(RateLimitExceeded):
                api.app_page(app_id, "bursty", "us", now=0.0)
        assert not api.is_blacklisted("bursty")
        api.app_page(app_id, "bursty", "us", now=60.0)


class TestGeoFencing:
    def test_disallowed_country_is_refused_before_rate_limiting(self, store):
        api = StoreWebApi(store, allowed_countries=("cn",))
        app_id = store.listed_app_ids()[0]
        with pytest.raises(GeoBlockedError):
            api.app_page(app_id, "c1", "us", now=0.0)
        # The refused request consumed no tokens and served nothing.
        assert api.requests_served == 0
        api.app_page(app_id, "c1", "cn", now=0.0)
        assert api.requests_served == 1

    def test_blacklist_trumps_allowed_country(self, store):
        api = StoreWebApi(
            store,
            allowed_countries=("cn",),
            requests_per_second=1.0,
            blacklist_threshold=1,
        )
        app_id = store.listed_app_ids()[0]
        api.app_page(app_id, "c1", "cn", now=0.0)
        with pytest.raises(RateLimitExceeded):
            api.app_page(app_id, "c1", "cn", now=0.0)
        assert api.is_blacklisted("c1")
        with pytest.raises(GeoBlockedError):
            api.app_page(app_id, "c1", "cn", now=100.0)


class TestInjectedFaults:
    def test_due_transient_fault_fires_once_per_event(self, store):
        plan = FaultPlan(
            name="custom",
            seed=1,
            horizon=10.0,
            events=(FaultEvent(at=1.0, kind=FaultKind.TRANSIENT_ERROR),),
        )
        api = StoreWebApi(store, fault_injector=FaultInjector(plan))
        app_id = store.listed_app_ids()[0]
        # Not due yet: served normally.
        api.app_page(app_id, "c1", "us", now=0.5)
        with pytest.raises(TransientFault):
            api.app_page(app_id, "c1", "us", now=1.5)
        # Consumed exactly once; the next request goes through.
        api.app_page(app_id, "c1", "us", now=1.6)

    def test_scheduled_corruption_garbles_exactly_one_page(self, store):
        plan = FaultPlan(
            name="custom",
            seed=1,
            horizon=10.0,
            events=(FaultEvent(at=2.0, kind=FaultKind.CORRUPT_SNAPSHOT),),
        )
        api = StoreWebApi(store, fault_injector=FaultInjector(plan))
        app_id = store.listed_app_ids()[0]
        clean = api.app_page(app_id, "c1", "us", now=0.0)
        assert not page_is_corrupt(clean)
        broken = api.app_page(app_id, "c1", "us", now=3.0)
        assert page_is_corrupt(broken)
        refetched = api.app_page(app_id, "c1", "us", now=3.5)
        assert not page_is_corrupt(refetched)
        assert refetched == clean


class TestCorruptionRoundTrip:
    def test_corrupted_page_is_detectable_and_keeps_identity(self, store):
        api = StoreWebApi(store)
        app_id = store.listed_app_ids()[0]
        page = api.app_page(app_id, "c1", "us", now=0.0)
        broken = corrupted_page(page)
        assert page_is_corrupt(broken)
        assert not page_is_corrupt(page)
        # Identity fields survive so logs can still say *which* app broke.
        assert broken.app_id == page.app_id
        assert broken.price == page.price
        # The payload is gone: name blanked, stats poisoned.
        assert broken.name == ""
        assert broken.statistics.total_downloads < 0

    def test_every_poisoned_field_alone_trips_validation(self, store):
        api = StoreWebApi(store)
        app_id = store.listed_app_ids()[0]
        page = api.app_page(app_id, "c1", "us", now=0.0)
        stats = page.statistics
        from dataclasses import replace

        assert page_is_corrupt(replace(page, name=""))
        assert page_is_corrupt(
            replace(page, statistics=replace(stats, version_name=""))
        )
        assert page_is_corrupt(
            replace(page, statistics=replace(stats, total_downloads=-1))
        )
        assert page_is_corrupt(
            replace(page, statistics=replace(stats, rating_count=-1))
        )
        assert page_is_corrupt(
            replace(page, statistics=replace(stats, comment_count=-1))
        )


class TestConcurrentAdmission:
    def test_paced_fleet_is_admitted_without_violations(self, store):
        """Concurrently interleaved clients that respect the advertised
        rate are never throttled, and the store serves every request."""
        api = StoreWebApi(store, requests_per_second=5.0)
        app_ids = store.listed_app_ids()[:10]
        scheduler = Scheduler()

        def polite_client(name):
            served = 0
            for app_id in app_ids:
                api.app_page(app_id, name, "us", now=scheduler.now)
                served += 1
                yield 1.0 / 5.0
            return served

        def main():
            return (yield [polite_client(f"c{index}") for index in range(4)])

        served = scheduler.run(main())
        assert served == [10, 10, 10, 10]
        assert api.requests_served == 40
        assert not any(api.is_blacklisted(f"c{index}") for index in range(4))

    def test_one_greedy_client_cannot_starve_the_fleet(self, store):
        """A client ignoring retry-after gets blacklisted mid-flight
        while interleaved polite clients keep full service."""
        api = StoreWebApi(
            store, requests_per_second=2.0, blacklist_threshold=10
        )
        app_ids = store.listed_app_ids()[:8]
        outcome = {"greedy_served": 0, "greedy_denied": 0}
        scheduler = Scheduler()

        def greedy():
            for _ in range(40):
                try:
                    api.app_page(app_ids[0], "greedy", "us", now=scheduler.now)
                    outcome["greedy_served"] += 1
                except RateLimitExceeded:
                    outcome["greedy_denied"] += 1
                except GeoBlockedError:
                    # Blacklisted: the store has cut this client off.
                    break
                yield 0.01

        def polite(name):
            served = 0
            for app_id in app_ids:
                api.app_page(app_id, name, "us", now=scheduler.now)
                served += 1
                yield 1.0
            return served

        def main():
            results = yield [greedy(), polite("p1"), polite("p2")]
            return results[1:]

        assert scheduler.run(main()) == [8, 8]
        assert api.is_blacklisted("greedy")
        assert outcome["greedy_denied"] >= 10
