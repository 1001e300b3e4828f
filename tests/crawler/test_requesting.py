"""Exactness of the request engine's tripped-breaker set.

:class:`RequestEngine` keeps the ids of its tripped breakers in a set,
so a proxy pick reads only those instead of every breaker it holds.
The reference here is the pick that scanned every breaker, kept as an
in-test copy: both engines run the same scripted request stream in
lockstep -- a small proxy fleet, dense transient store errors, breakers
that trip after one or two failures and reopen quickly -- and must agree
request by request on the proxies picked, the crawl counters and every
breaker's state.
"""

import dataclasses
import itertools
from typing import Optional, Set

import pytest

from repro.crawler.crawler import CrawlStats
from repro.crawler.proxies import NoProxyAvailable, Proxy, ProxyPool
from repro.crawler.requesting import CrawlError, ProxiesExhausted, RequestEngine
from repro.crawler.webapi import StoreWebApi
from repro.marketplace import build_store
from repro.marketplace.profiles import demo_profile
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.stats.rng import make_rng

SEEDS = (0, 1, 2, 3, 4, 5)
N_REQUESTS = 240


class _Recording(RequestEngine):
    """An engine that logs the id of every proxy it picks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.picks = []

    def _pick_proxy(self, country: Optional[str], now: float):
        proxy = self._choose(country, now)
        self.picks.append(proxy.proxy_id)
        return proxy

    def _choose(self, country: Optional[str], now: float):
        return super()._pick_proxy(country, now)


class ScanningEngine(_Recording):
    """The reference: the pick that read every breaker on every call."""

    def _choose(self, country: Optional[str], now: float):
        store = self._api.store_name
        open_ids: Set[int] = {
            proxy_id
            for proxy_id, breaker in self._breakers.items()
            if breaker.tripped and not breaker.allow(now)
        }
        try:
            return self._proxies.pick(store, country, exclude=open_ids)
        except NoProxyAvailable:
            self.stats.proxy_pick_failures += 1
            self._metrics.counter("crawler.proxy_pick_failures").add(1)
        if open_ids:
            self.stats.breaker_skips += 1
            self._metrics.counter("crawler.breaker_skips").add(1)
            try:
                return self._proxies.pick(store, country)
            except NoProxyAvailable as error:
                raise ProxiesExhausted(store, country) from error
        raise ProxiesExhausted(store, country)


@pytest.fixture(scope="module")
def store():
    generated = build_store(
        demo_profile(
            initial_apps=40,
            new_apps_per_day=0.0,
            crawl_days=2,
            warmup_days=0,
            daily_downloads=150.0,
            n_users=40,
            n_categories=4,
            comment_probability=0.2,
        ),
        seed=11,
    )
    generated.store.advance_days(2)
    return generated.store


def make_engine(cls, store, seed: int):
    """One engine over private copies of everything a request mutates."""
    plan = FaultPlan.generate(
        "scripted",
        seed,
        horizon=120.0,
        densities={
            FaultKind.TRANSIENT_ERROR: 40.0,
            FaultKind.CORRUPT_SNAPSHOT: 5.0,
            FaultKind.CLOCK_SKEW: 2.0,
        },
    )
    injector = FaultInjector(plan)
    fleet = [
        Proxy(proxy_id=proxy_id, country="us", failure_rate=0.3)
        for proxy_id in range(3)
    ]
    thresholds = itertools.cycle((1, 2))
    return cls(
        api=StoreWebApi(store, fault_injector=injector, requests_per_second=1e6),
        proxy_pool=ProxyPool(fleet, seed=seed),
        requests_per_second=8.0,
        retry_policy=RetryPolicy(max_attempts=6, cap_delay=1.0),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=next(thresholds), reset_timeout=1.0
        ),
        fault_injector=injector,
        retry_rng=make_rng(seed),
        stats=CrawlStats(),
        metrics=MetricsRegistry(),
    )


def drive(engine, app_id: int, now: float):
    """Run one request to completion; returns (outcome, clock)."""
    steps = engine.request_steps(engine.api.app_page, (app_id,), now)
    try:
        delay = next(steps)
        while True:
            now += delay
            delay = steps.send(now)
    except StopIteration as done:
        return done.value, now
    except CrawlError as error:
        return f"{type(error).__name__}: {error}", now


def breaker_states(engine, now: float):
    return {
        proxy_id: breaker.state(now)
        for proxy_id, breaker in sorted(engine._breakers.items())
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_tripped_set_picks_exactly_like_the_full_scan(store, seed):
    with use_registry(MetricsRegistry()) as ambient:
        reference = make_engine(ScanningEngine, store, seed)
        engine = make_engine(_Recording, store, seed)
        listed = store.listed_app_ids()
        ref_now = now = 0.0
        tripped_seen = 0
        for step in range(N_REQUESTS):
            app_id = listed[step % len(listed)]
            expected, ref_now = drive(reference, app_id, ref_now)
            outcome, now = drive(engine, app_id, now)
            assert outcome == expected
            assert now == ref_now
            assert engine.picks == reference.picks
            assert dataclasses.asdict(engine.stats) == dataclasses.asdict(
                reference.stats
            )
            assert breaker_states(engine, now) == breaker_states(reference, now)
            # The set holds exactly the breakers that are tripped now.
            tripped = {
                proxy_id
                for proxy_id, breaker in engine._breakers.items()
                if breaker.tripped
            }
            assert engine._tripped == tripped
            tripped_seen += bool(tripped)
    assert engine._metrics.snapshot() == reference._metrics.snapshot()
    # The stream must exercise what the set replaces: breakers trip and
    # close again, and every proxy is sometimes breaker-open at once.
    counters = ambient.snapshot()["counters"]
    assert counters["breaker.opened"] > 0
    assert counters["breaker.closed"] > 0
    assert tripped_seen > 0
    assert reference.stats.breaker_skips > 0
