"""The crawler's proxy pool.

The paper routed crawl requests through roughly 100 PlanetLab nodes acting
as HTTP proxies, picking one at random per request to avoid IP
blacklisting, and restricted crawls of the Chinese stores (Anzhi,
AppChina) to the PlanetLab nodes located in China because those stores
rate-limit foreign clients.

This module simulates that pool: proxies have a country tag, can fail
transiently, and can be blacklisted by a store; the pool hands out a
random healthy proxy matching the store's geographic requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.stats.rng import SeedLike, make_rng


class ProxyError(Exception):
    """Raised when a request through a proxy fails."""


class NoProxyAvailable(ProxyError):
    """Raised when the pool has no healthy proxy matching the constraints."""


@dataclass
class Proxy:
    """One proxy node (a PlanetLab host in the paper's setup)."""

    proxy_id: int
    country: str
    failure_rate: float = 0.02
    blacklisted_by: Set[str] = field(default_factory=set)
    requests_served: int = 0
    failures: int = 0
    alive: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")

    def is_blacklisted(self, store_name: str) -> bool:
        """Whether this proxy has been blocked by the given store."""
        return store_name in self.blacklisted_by


class ProxyPool:
    """A pool of proxies with geo filtering and failure injection.

    Parameters
    ----------
    proxies:
        The proxy fleet.
    seed:
        Randomness for proxy selection and failure injection.
    """

    def __init__(self, proxies: Sequence[Proxy], seed: SeedLike = None) -> None:
        if not proxies:
            raise ValueError("proxy pool must not be empty")
        ids = [proxy.proxy_id for proxy in proxies]
        if len(set(ids)) != len(ids):
            raise ValueError("proxy ids must be unique")
        self._proxies: Dict[int, Proxy] = {p.proxy_id: p for p in proxies}
        self._rng = make_rng(seed)
        # Healthy lists per (store, country), in pool order; dropped by
        # every change of health (:meth:`kill`, :meth:`blacklist`).
        self._healthy: Dict[Tuple[str, Optional[str]], List[Proxy]] = {}

    @classmethod
    def planetlab_like(
        cls,
        n_proxies: int = 100,
        china_fraction: float = 0.2,
        failure_rate: float = 0.02,
        seed: SeedLike = None,
    ) -> "ProxyPool":
        """Build a pool shaped like the paper's PlanetLab deployment."""
        if n_proxies < 1:
            raise ValueError("n_proxies must be positive")
        if not 0.0 <= china_fraction <= 1.0:
            raise ValueError("china_fraction must be in [0, 1]")
        rng = make_rng(seed)
        n_china = int(round(china_fraction * n_proxies))
        other_countries = ("us", "de", "gr", "uk", "jp", "fr", "nl")
        proxies = []
        for proxy_id in range(n_proxies):
            if proxy_id < n_china:
                country = "cn"
            else:
                country = str(rng.choice(other_countries))
            proxies.append(
                Proxy(proxy_id=proxy_id, country=country, failure_rate=failure_rate)
            )
        return cls(proxies, seed=rng)

    @property
    def size(self) -> int:
        """Total number of proxies (healthy or not)."""
        return len(self._proxies)

    def proxies(self) -> List[Proxy]:
        """All proxies (live objects, not copies)."""
        return list(self._proxies.values())

    def alive_proxies(self) -> List[Proxy]:
        """Proxies that have not been killed, regardless of blacklists."""
        return [proxy for proxy in self._proxies.values() if proxy.alive]

    def healthy_proxies(
        self, store_name: str, country: Optional[str] = None
    ) -> List[Proxy]:
        """Proxies usable for a store: alive, not blacklisted, matching
        country."""
        return list(self._healthy_list(store_name, country))

    def _healthy_list(
        self, store_name: str, country: Optional[str]
    ) -> List[Proxy]:
        """The cached healthy list (do not mutate).  Health changes only
        through :meth:`kill` and :meth:`blacklist`, which drop the cache."""
        key = (store_name, country)
        healthy = self._healthy.get(key)
        if healthy is None:
            healthy = [
                proxy
                for proxy in self._proxies.values()
                if proxy.alive
                and not proxy.is_blacklisted(store_name)
                and (country is None or proxy.country == country)
            ]
            self._healthy[key] = healthy
        return healthy

    def pick(
        self,
        store_name: str,
        country: Optional[str] = None,
        exclude: Optional[Set[int]] = None,
    ) -> Proxy:
        """Pick a random healthy proxy for a store.

        ``exclude`` removes specific proxy ids from consideration (the
        crawler passes the ids whose circuit breakers are open).  Raises
        :class:`NoProxyAvailable` when the constraints cannot be met --
        e.g. every Chinese node has been blacklisted or killed.
        """
        candidates = self._healthy_list(store_name, country)
        if exclude:
            candidates = [p for p in candidates if p.proxy_id not in exclude]
        if not candidates:
            raise NoProxyAvailable(
                f"no healthy proxy for store {store_name!r}"
                + (f" in country {country!r}" if country else "")
            )
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def kill(self, proxy_id: int) -> None:
        """Take a proxy permanently offline (a node dying mid-crawl)."""
        try:
            self._proxies[proxy_id].alive = False
        except KeyError:
            raise KeyError(f"unknown proxy id {proxy_id}") from None
        self._healthy.clear()

    def request_through(self, proxy: Proxy) -> None:
        """Account for one request through ``proxy``; may inject a failure.

        Raises :class:`ProxyError` on a simulated transient failure (the
        crawler retries with a different proxy).
        """
        proxy.requests_served += 1
        if self._rng.random() < proxy.failure_rate:
            proxy.failures += 1
            raise ProxyError(f"transient failure on proxy {proxy.proxy_id}")

    def blacklist(self, proxy_id: int, store_name: str) -> None:
        """Record that a store has blocked a proxy's address."""
        try:
            self._proxies[proxy_id].blacklisted_by.add(store_name)
        except KeyError:
            raise KeyError(f"unknown proxy id {proxy_id}") from None
        self._healthy.clear()
