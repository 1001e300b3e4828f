"""Concurrent crawler clients: the service's live load generators.

Each client wraps one :class:`~repro.crawler.requesting.RequestEngine`
-- its own pacer, retry RNG, and per-proxy circuit breakers, exactly
like one batch :class:`~repro.crawler.crawler.StoreCrawler` -- and
drives the batch crawler's own request sequences
(:func:`~repro.crawler.crawler.listing_walk`,
:func:`~repro.crawler.crawler.app_visit`) as a task of a
:class:`~repro.service.virtualtime.Scheduler`: each request they yield
runs through the engine's sans-IO step generator, whose delays the task
yields to the scheduler and whose clock is the scheduler's.  Those
sleeps are instantaneous and deterministic; the engine neither knows
nor cares.

Clients fetch; they do not write.  Every observation is returned to the
:class:`~repro.service.service.EcosystemService`, which commits the day
in listing order so the database and analytics stream are independent
of how many clients raced to produce them.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.crawler.crawler import CrawlStats, Request
from repro.crawler.proxies import ProxyPool
from repro.crawler.requesting import RequestEngine
from repro.crawler.webapi import StoreWebApi
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.service.virtualtime import Scheduler
from repro.stats.rng import SeedLike, make_rng

__all__ = ["CrawlClient", "REQUEST_LATENCY_METRIC"]

#: Histogram of end-to-end request latency in *simulated* seconds
#: (retries and backoff included), recorded per completed request.
REQUEST_LATENCY_METRIC = "service.request_seconds"


class CrawlClient:
    """One concurrent crawler identity hammering a store's web API.

    Parameters mirror the batch crawler's: the client builds its own
    :class:`RequestEngine` so its pacing, breaker state, and retry
    jitter are independent of its siblings -- K clients behave like K
    separate crawler processes sharing a proxy fleet, which is the
    paper's actual collection setup.  ``scheduler`` is the one whose
    tasks run the client's requests; its clock is the client's.
    """

    def __init__(
        self,
        name: str,
        api: StoreWebApi,
        proxy_pool: ProxyPool,
        scheduler: Scheduler,
        requests_per_second: float = 8.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory=None,
        fault_injector: Optional[FaultInjector] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.stats = CrawlStats()
        self._scheduler = scheduler
        self._metrics = metrics if metrics is not None else get_registry()
        self._engine = RequestEngine(
            api=api,
            proxy_pool=proxy_pool,
            requests_per_second=requests_per_second,
            retry_policy=(
                retry_policy if retry_policy is not None else RetryPolicy()
            ),
            breaker_factory=(
                breaker_factory if breaker_factory is not None else CircuitBreaker
            ),
            fault_injector=fault_injector,
            retry_rng=make_rng(seed),
            stats=self.stats,
            metrics=self._metrics,
        )

    @property
    def engine(self) -> RequestEngine:
        """The sans-IO request pipeline this client drives."""
        return self._engine

    def request(self, endpoint, *args):
        """Issue one request, yielding each delay the engine asks for.

        The engine's step generator speaks the scheduler's protocol
        (yield a delay, be sent the clock), so the task sleeps on it
        directly.  Each attempt yields at least once (the pacer wait,
        even when zero), so a chain of instantly-admitted requests can
        never starve sibling clients.
        """
        scheduler = self._scheduler
        start = scheduler.now
        result = yield from self._engine.request_steps(endpoint, args, start)
        self._metrics.histogram(REQUEST_LATENCY_METRIC).observe(
            scheduler.now - start
        )
        return result

    def drive(self, sequence: Generator[Request, object, object]):
        """Run a crawl sequence's requests one by one; returns its value."""
        try:
            endpoint, args = next(sequence)
            while True:
                endpoint, args = sequence.send(
                    (yield from self.request(endpoint, *args))
                )
        except StopIteration as done:
            return done.value
