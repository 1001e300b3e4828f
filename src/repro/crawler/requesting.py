"""Sans-IO request engine shared by the batch crawler and the service.

The retry/breaker/pacing ladder in :class:`~repro.crawler.crawler.StoreCrawler`
must behave *identically* whether it is driven synchronously (batch
campaigns advance a private simulated clock) or asynchronously (the
always-on service's clients sleep on the virtual event loop).  Rather
than maintain two copies of that ladder, this module expresses it once
as a **generator protocol**:

- :meth:`RequestEngine.request_steps` yields every point where the
  caller must let time pass, as a non-negative number of seconds;
- the driver advances its notion of "now" by that amount (``clock +=
  delay`` for the sync crawler, ``await asyncio.sleep(delay)`` for an
  async client) and ``send()``s the new timestamp back in;
- the endpoint's result comes back as the generator's return value
  (``StopIteration.value``), and failures propagate as the same
  exceptions the crawler has always raised (:class:`CrawlError`,
  :class:`ProxiesExhausted`,
  :class:`~repro.resilience.errors.WorkerCrashed`).

Because the engine never touches a clock or an event loop itself, its
RNG draw order, metric increments, and fault-trace records are a pure
function of the (endpoint, args, now) sequence fed to it -- which is
what makes the service's dataset fingerprint reproducible against the
batch scheduler.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set, Tuple

from repro.crawler.proxies import NoProxyAvailable, ProxyError, ProxyPool
from repro.crawler.ratelimit import RateLimitExceeded, TokenBucket
from repro.crawler.webapi import GeoBlockedError, StoreWebApi, page_is_corrupt
from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import SnapshotCorrupted, TransientFault, WorkerCrashed
from repro.resilience.faults import FaultInjector, FaultKind
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CrawlError",
    "ProxiesExhausted",
    "RequestEngine",
]


class CrawlError(Exception):
    """Raised when a request cannot be completed after all retries."""


class ProxiesExhausted(CrawlError):
    """Raised when no live, non-blacklisted proxy can serve a store.

    Attributes
    ----------
    store_name:
        The store whose request could not be routed.
    country:
        The geo constraint in force, if any.
    """

    def __init__(self, store_name: str, country: Optional[str] = None) -> None:
        constraint = f" in country {country!r}" if country else ""
        super().__init__(
            f"proxy pool exhausted for store {store_name!r}{constraint}: "
            "every proxy is dead, blacklisted, or geo-mismatched"
        )
        self.store_name = store_name
        self.country = country


class RequestEngine:
    """One store-facing request pipeline: pacing, proxies, breakers, retry.

    Parameters mirror the crawler's: the engine owns the token-bucket
    pacer, the per-proxy circuit breakers, and the retry RNG, but holds
    **no clock** -- every timestamp is supplied by whoever drives
    :meth:`request_steps`.

    ``stats`` is any object exposing the request-level counters of
    :class:`~repro.crawler.crawler.CrawlStats` (``requests``,
    ``retries``, ``rate_limit_hits``, ``proxy_failures``,
    ``proxy_pick_failures``, ``transient_faults``, ``corrupt_pages``,
    ``breaker_skips``, ``backoff_seconds``); the engine increments it
    in place so driver and engine share one view.
    """

    def __init__(
        self,
        api: StoreWebApi,
        proxy_pool: ProxyPool,
        requests_per_second: float,
        retry_policy: RetryPolicy,
        breaker_factory,
        fault_injector: Optional[FaultInjector],
        retry_rng,
        stats,
        metrics: MetricsRegistry,
    ) -> None:
        self._api = api
        self._proxies = proxy_pool
        self._pacer = TokenBucket(
            rate=requests_per_second, capacity=max(1.0, requests_per_second)
        )
        self.retry_policy = retry_policy
        self._breaker_factory = breaker_factory
        self._breakers: Dict[int, CircuitBreaker] = {}
        # Ids of the breakers that have tripped and not closed since,
        # kept in step after every record, so a pick reads only these.
        self._tripped: Set[int] = set()
        self._faults = fault_injector
        self._retry_rng = retry_rng
        self.stats = stats
        self._metrics = metrics

    @property
    def api(self) -> StoreWebApi:
        """The store web interface this engine talks to."""
        return self._api

    @property
    def proxy_pool(self) -> ProxyPool:
        """The pool requests are routed through."""
        return self._proxies

    def _breaker(self, proxy_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(proxy_id)
        if breaker is None:
            breaker = self._breaker_factory()
            self._breakers[proxy_id] = breaker
        return breaker

    def _record_failure(
        self, proxy_id: int, breaker: CircuitBreaker, now: float
    ) -> None:
        """A failure can trip a breaker, never close it."""
        breaker.record_failure(now)
        if breaker.tripped:
            self._tripped.add(proxy_id)

    def _record_success(
        self, proxy_id: int, breaker: CircuitBreaker, now: float
    ) -> None:
        """A success can close a breaker, never trip it."""
        breaker.record_success(now)
        if not breaker.tripped:
            self._tripped.discard(proxy_id)

    def _scheduled_fault_steps(
        self, now: float
    ) -> Generator[float, float, float]:
        """Consume crawler-side faults that have come due on the clock.

        Clock-skew events are yielded one at a time (each event's
        magnitude separately) so the driver's accumulated timestamp is
        bit-for-bit the same whether it adds the magnitudes itself or
        sleeps them on an event loop.
        """
        injector = self._faults
        if injector is None:
            return now
        for event in injector.take_all(now, FaultKind.CLOCK_SKEW):
            now = yield event.magnitude
            injector.record(
                event, now, f"clock skewed forward {event.magnitude:.3f}s"
            )
        for event in injector.take_all(now, FaultKind.PROXY_DEATH):
            victims = self._proxies.alive_proxies()
            if not victims:
                injector.record(event, now, "no proxy left to kill")
                continue
            victim = victims[int(injector.rng.integers(0, len(victims)))]
            self._proxies.kill(victim.proxy_id)
            injector.record(event, now, f"killed proxy {victim.proxy_id}")
        crash = injector.take_all(now, FaultKind.WORKER_CRASH)
        if crash:
            injector.record(crash[0], now, "crawl worker crashed")
            # Any sibling crash events due at the same instant are folded
            # into one crash; the supervisor restarts the whole day anyway.
            for extra in crash[1:]:
                injector.record(extra, now, "folded into same crash")
            raise WorkerCrashed(
                f"crawl worker crashed at t={now:.3f}s (scheduled fault)"
            )
        return now

    def _pick_proxy(self, country: Optional[str], now: float):
        """Pick a proxy whose circuit breaker admits a call right now.

        Falls back to ignoring the breakers when every healthy proxy is
        open (better a doomed attempt than a stalled crawl), and raises
        :class:`ProxiesExhausted` when no healthy proxy exists at all.
        """
        store = self._api.store_name
        breakers = self._breakers
        open_ids: Set[int] = {
            proxy_id
            for proxy_id in self._tripped
            if not breakers[proxy_id].allow(now)
        }
        try:
            return self._proxies.pick(store, country, exclude=open_ids)
        except NoProxyAvailable:
            # Not silent: a failed constrained pick is the first signal a
            # pool is going under, and production debugging needs it on a
            # counter -- even (especially) when degradation recovers.
            self.stats.proxy_pick_failures += 1
            self._metrics.counter("crawler.proxy_pick_failures").add(1)
        if open_ids:
            # Every admissible proxy is breaker-open; degrade by probing
            # one of them rather than deadlocking the crawl.
            self.stats.breaker_skips += 1
            self._metrics.counter("crawler.breaker_skips").add(1)
            try:
                return self._proxies.pick(store, country)
            except NoProxyAvailable as error:
                raise ProxiesExhausted(store, country) from error
        raise ProxiesExhausted(store, country)

    def request_steps(
        self, endpoint, args: Tuple, now: float
    ) -> Generator[float, float, object]:
        """Issue one request through a proxy, retrying under the policy.

        Transient proxy errors, rate-limit hits, geo-blocks, injected
        store errors, and corrupt pages all count against the policy's
        attempt budget.  Every point where simulated time must pass --
        retry backoff, injected clock skew, self-pacing, a store's
        ``retry_after`` -- is yielded as a non-negative duration in
        seconds; the driver must advance its clock by exactly that much
        and ``send()`` the resulting timestamp back.
        """
        country = self._api.requires_country
        policy = self.retry_policy
        metrics = self._metrics
        stats = self.stats
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                delay = policy.delay(attempt - 1, self._retry_rng)
                now = yield delay
                stats.backoff_seconds += delay
                stats.retries += 1
                metrics.counter("crawler.retries").add(1)
            now = yield from self._scheduled_fault_steps(now)

            # Self-pacing: wait until the crawler's own budget allows
            # another request.  The wait is yielded even when zero so an
            # async driver always has a scheduling point per attempt.
            wait = self._pacer.time_until_available(now)
            now = yield wait
            self._pacer.try_consume(now)

            proxy = self._pick_proxy(country, now)
            breaker = self._breaker(proxy.proxy_id)
            try:
                self._proxies.request_through(proxy)
            except ProxyError as error:
                stats.proxy_failures += 1
                metrics.counter("crawler.proxy_failures").add(1)
                self._record_failure(proxy.proxy_id, breaker, now)
                last_error = error
                continue
            client = f"proxy-{proxy.proxy_id}"
            try:
                result = endpoint(*args, client, proxy.country, now)
            except RateLimitExceeded as error:
                stats.rate_limit_hits += 1
                metrics.counter("crawler.rate_limit_hits").add(1)
                now = yield error.retry_after
                # A throttle is the store talking, not the proxy failing;
                # the breaker does not count it.
                last_error = error
                continue
            except GeoBlockedError as error:
                # The store blocked this proxy; drop it and retry elsewhere.
                self._proxies.blacklist(proxy.proxy_id, self._api.store_name)
                self._record_failure(proxy.proxy_id, breaker, now)
                last_error = error
                continue
            except TransientFault as error:
                stats.transient_faults += 1
                metrics.counter("crawler.transient_faults").add(1)
                self._record_failure(proxy.proxy_id, breaker, now)
                last_error = error
                continue
            if endpoint == self._api.app_page and page_is_corrupt(result):
                stats.corrupt_pages += 1
                metrics.counter("crawler.corrupt_pages").add(1)
                self._record_success(proxy.proxy_id, breaker, now)
                last_error = SnapshotCorrupted(
                    f"corrupt page for app {args[0]} via {client}"
                )
                continue
            stats.requests += 1
            metrics.counter("crawler.requests").add(1)
            if attempt > 0:
                # The whole point of the retry budget: failures that the
                # policy absorbed end-to-end, visible per run.
                metrics.counter("crawler.requests_recovered").add(1)
            self._record_success(proxy.proxy_id, breaker, now)
            return result
        raise CrawlError(
            f"request failed after {policy.max_attempts} attempts: {last_error}"
        )
