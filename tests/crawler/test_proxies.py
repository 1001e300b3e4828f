"""Tests for repro.crawler.proxies."""

import pytest

from repro.crawler.proxies import (
    NoProxyAvailable,
    Proxy,
    ProxyError,
    ProxyPool,
)
from repro.resilience.breaker import CircuitBreaker
from repro.stats.rng import make_rng


class TestProxy:
    def test_failure_rate_validated(self):
        with pytest.raises(ValueError):
            Proxy(proxy_id=0, country="us", failure_rate=2.0)

    def test_blacklist_tracking(self):
        proxy = Proxy(proxy_id=0, country="us")
        assert not proxy.is_blacklisted("anzhi")
        proxy.blacklisted_by.add("anzhi")
        assert proxy.is_blacklisted("anzhi")
        assert not proxy.is_blacklisted("slideme")


class TestProxyPool:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProxyPool([])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ProxyPool([Proxy(0, "us"), Proxy(0, "cn")])

    def test_planetlab_like_size_and_geography(self):
        pool = ProxyPool.planetlab_like(n_proxies=100, china_fraction=0.2, seed=0)
        assert pool.size == 100
        chinese = [p for p in pool.proxies() if p.country == "cn"]
        assert len(chinese) == 20

    def test_pick_respects_country(self):
        pool = ProxyPool.planetlab_like(n_proxies=50, china_fraction=0.3, seed=1)
        for _ in range(20):
            proxy = pool.pick("anzhi", country="cn")
            assert proxy.country == "cn"

    def test_pick_any_country(self):
        pool = ProxyPool.planetlab_like(n_proxies=10, seed=2)
        assert pool.pick("slideme") is not None

    def test_blacklisted_proxies_excluded(self):
        pool = ProxyPool([Proxy(0, "cn"), Proxy(1, "cn")], seed=3)
        pool.blacklist(0, "anzhi")
        for _ in range(10):
            assert pool.pick("anzhi", country="cn").proxy_id == 1

    def test_blacklist_is_per_store(self):
        pool = ProxyPool([Proxy(0, "cn")], seed=4)
        pool.blacklist(0, "anzhi")
        # Still healthy for a different store.
        assert pool.pick("appchina", country="cn").proxy_id == 0

    def test_exhausted_pool_raises(self):
        pool = ProxyPool([Proxy(0, "us")], seed=5)
        with pytest.raises(NoProxyAvailable):
            pool.pick("anzhi", country="cn")

    def test_blacklist_unknown_id(self):
        pool = ProxyPool([Proxy(0, "us")], seed=6)
        with pytest.raises(KeyError):
            pool.blacklist(99, "anzhi")

    def test_failure_injection(self):
        proxy = Proxy(0, "us", failure_rate=1.0)
        pool = ProxyPool([proxy], seed=7)
        with pytest.raises(ProxyError):
            pool.request_through(proxy)
        assert proxy.failures == 1
        assert proxy.requests_served == 1

    def test_no_failure_at_zero_rate(self):
        proxy = Proxy(0, "us", failure_rate=0.0)
        pool = ProxyPool([proxy], seed=8)
        for _ in range(100):
            pool.request_through(proxy)
        assert proxy.failures == 0
        assert proxy.requests_served == 100


class UncachedPool(ProxyPool):
    """The pool before healthy lists were cached: every pick filters
    every proxy."""

    def pick(self, store_name, country=None, exclude=None):
        candidates = [
            proxy
            for proxy in self._proxies.values()
            if proxy.alive
            and not proxy.is_blacklisted(store_name)
            and (country is None or proxy.country == country)
        ]
        if exclude:
            candidates = [p for p in candidates if p.proxy_id not in exclude]
        if not candidates:
            raise NoProxyAvailable(store_name)
        return candidates[int(self._rng.integers(0, len(candidates)))]


class TestCachedPicks:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_uncached_filter(self, seed):
        """Random kills, blacklists and breaker trips: the cached pool
        and its breakers' ``tripped`` shortcut pick exactly the proxies
        the per-pick filter over ``allow`` picks."""
        script = make_rng(seed)

        def fleet():
            return [
                Proxy(i, "cn" if i < 12 else ("us", "de")[i % 2])
                for i in range(30)
            ]

        cached = ProxyPool(fleet(), seed=seed)
        reference = UncachedPool(fleet(), seed=seed)
        breakers = {
            i: CircuitBreaker(failure_threshold=2, reset_timeout=5.0)
            for i in range(30)
        }
        now = 0.0
        picked = 0
        for _ in range(600):
            now += float(script.exponential(0.5))
            action = script.random()
            proxy_id = int(script.integers(30))
            if action < 0.01:
                cached.kill(proxy_id)
                reference.kill(proxy_id)
            elif action < 0.03:
                store = ("anzhi", "slideme")[int(script.integers(2))]
                cached.blacklist(proxy_id, store)
                reference.blacklist(proxy_id, store)
            elif action < 0.25:
                breakers[proxy_id].record_failure(now)
            elif action < 0.45:
                breakers[proxy_id].record_success(now)
            fast = {
                i for i, b in breakers.items() if b.tripped and not b.allow(now)
            }
            slow = {i for i, b in breakers.items() if not b.allow(now)}
            assert fast == slow
            store = ("anzhi", "slideme")[int(script.integers(2))]
            country = (None, "cn", "us")[int(script.integers(3))]
            outcomes = []
            for pool in (cached, reference):
                try:
                    proxy = pool.pick(store, country, exclude=fast)
                    outcomes.append(proxy.proxy_id)
                except NoProxyAvailable:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
            picked += outcomes[0] is not None
            healthy = cached.healthy_proxies(store, country)
            assert [p.proxy_id for p in healthy] == [
                p.proxy_id
                for p in reference.proxies()
                if p.alive
                and not p.is_blacklisted(store)
                and (country is None or p.country == country)
            ]
        assert picked > 300
        assert any(not p.alive for p in cached.proxies())
        assert any(b.tripped for b in breakers.values())
