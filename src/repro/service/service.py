"""The always-on ecosystem service: a live store under concurrent crawl.

This is ROADMAP item 3: the batch campaign
(:func:`repro.crawler.scheduler.run_crawl_campaign`) promoted to a
long-running system.  One simulated marketplace advances daily ticks
while N concurrent :class:`~repro.service.client.AsyncCrawlClient`
workers -- each with its own pacer, retry jitter, and circuit breakers,
all sharing the proxy fleet and fault schedule -- hammer the
:class:`~repro.crawler.webapi.StoreWebApi` and land snapshots in the
columnar :class:`~repro.crawler.database.SnapshotDatabase`.  Streaming
analytics (:mod:`repro.analysis.streaming`) update as each day commits.

**The determinism contract.**  For the same seed and fault plan, a
bounded run exports a dataset fingerprint byte-identical to the batch
campaign -- for *any* client count.  Three design choices carry that:

1. seed threading matches the batch scheduler exactly (``store`` and
   ``proxies`` substreams; client ``i`` jitters from
   ``("crawler-retry", i)``, which can never influence data);
2. each daily tick is a barrier: the store holds still while workers
   crawl it, so every page reads the same regardless of who fetches it
   or when, and a crashed day can be re-run idempotently;
3. observations are committed *in listing order* after the day's fan-out
   completes, so the database write stream, the analytics stream, and
   the data-plane metrics are a pure function of (seed, days) -- never
   of client interleaving.

**Two metric planes.**  The service keeps a private *data-plane*
registry (commit counters, streaming-analytics gauges: K-invariant by
construction, exported via ``repro serve --emit-metrics``) separate
from the ambient *traffic-plane* registry (``crawler.*`` retry/fault
counters, request-latency histograms, worker restarts: deterministic
for a fixed (seed, clients) but necessarily K-dependent, exported via
``--emit-traffic``).  Mixing the planes would make the data sidecar
vary with ``--clients``, which the determinism suite forbids.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.streaming import SegmentDownloadShares, StreamingAnalytics
from repro.crawler.crawler import (
    AppObservation,
    CrawlStats,
    app_visit,
    commit_day,
    listing_walk,
)
from repro.crawler.database import ApkRecord, SnapshotDatabase
from repro.crawler.proxies import ProxyPool
from repro.crawler.scheduler import _GEO_FENCED_STORES
from repro.crawler.webapi import StoreWebApi
from repro.marketplace.generator import GeneratedStore, build_store
from repro.marketplace.profiles import StoreProfile
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.errors import ResilienceError, WorkerCrashed
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.service.client import AsyncCrawlClient
from repro.service.virtualtime import run_virtual
from repro.stats.rng import SeedLike, derive_seed, make_rng

__all__ = ["EcosystemService", "ServiceReport"]


@dataclass
class ServiceReport:
    """What a bounded service run produced and went through."""

    store_name: str
    days_crawled: int
    first_crawl_day: int
    last_crawl_day: int
    n_clients: int
    snapshots_committed: int
    apks_archived: int
    comments_ingested: int
    worker_restarts: int
    fingerprint: str
    client_stats: Dict[str, CrawlStats] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-paragraph run summary."""
        return (
            f"[{self.store_name}] served days "
            f"{self.first_crawl_day}..{self.last_crawl_day} to "
            f"{self.n_clients} client(s): {self.snapshots_committed} "
            f"snapshots, {self.apks_archived} APKs, "
            f"{self.comments_ingested} comments, "
            f"{self.worker_restarts} worker restart(s); "
            f"fingerprint {self.fingerprint[:16]}..."
        )


class EcosystemService:
    """A long-running simulated appstore under live concurrent crawl.

    Parameters
    ----------
    profile:
        The store's scale/behaviour profile; its ``warmup_days`` run
        unobserved before serving starts, exactly as in the batch
        campaign.
    seed:
        Master seed; store, proxies, and per-client retry jitter get
        derived substreams on the batch scheduler's threading contract.
    n_clients:
        Concurrent crawler clients per daily tick.
    fault_plan:
        Optional chaos schedule, shared (like the batch campaign's) by
        the web API and every client's request engine.
    fetch_comments:
        Whether clients collect comment pages.
    requests_per_second:
        Per-client self-pacing; total store pressure scales with
        ``n_clients``.
    retry_policy:
        Backoff/attempt budget shared by every client.  Long soaks under
        dense fault plans raise ``max_attempts`` so a Poisson cluster of
        transient faults cannot exhaust a single request's retries.
        Retries never touch the data plane, so this knob cannot change
        the fingerprint.
    max_worker_restarts:
        Worker crashes tolerated across the run before giving up.
    data_metrics:
        The K-invariant data-plane registry; a private one is created
        when omitted.  Traffic-plane metrics go to the registry that is
        ambient (:func:`~repro.obs.metrics.get_registry`) at
        construction time.
    """

    def __init__(
        self,
        profile: StoreProfile,
        seed: SeedLike = None,
        n_clients: int = 4,
        fault_plan: Optional[FaultPlan] = None,
        fetch_comments: bool = True,
        requests_per_second: float = 8.0,
        retry_policy: Optional[RetryPolicy] = None,
        max_worker_restarts: int = 5,
        data_metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        base_seed = int(make_rng(seed).integers(0, 2**62))
        self.profile = profile
        self.generated: GeneratedStore = build_store(
            profile, seed=derive_seed(base_seed, "store")
        )
        self.store = self.generated.store
        self.database = SnapshotDatabase()
        self.proxy_pool = ProxyPool.planetlab_like(
            n_proxies=100, seed=derive_seed(base_seed, "proxies")
        )
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        allowed = ("cn",) if profile.name in _GEO_FENCED_STORES else None
        self.api = StoreWebApi(
            self.store,
            allowed_countries=allowed,
            fault_injector=self.fault_injector,
        )
        self.fetch_comments = fetch_comments
        self.max_worker_restarts = max_worker_restarts
        self.analytics = StreamingAnalytics(self.store.name)
        # Per-persona-segment gauges: the store's segment download matrix
        # is simulator state (independent of client count and arrival
        # order), so these live in the K-invariant data plane too.
        self.segment_analytics: Optional[SegmentDownloadShares] = None
        if self.store.segments is not None:
            self.segment_analytics = SegmentDownloadShares(
                self.store.segments.names
            )
        self.data_metrics = (
            data_metrics if data_metrics is not None else MetricsRegistry()
        )
        self._traffic = get_registry()
        self.clients = [
            AsyncCrawlClient(
                name=f"client-{index}",
                api=self.api,
                proxy_pool=self.proxy_pool,
                requests_per_second=requests_per_second,
                retry_policy=retry_policy,
                fault_injector=self.fault_injector,
                seed=derive_seed(base_seed, "crawler-retry", index),
                metrics=self._traffic,
            )
            for index in range(n_clients)
        ]
        self.worker_restarts = 0
        self.peak_queue_depth = 0
        self._warmed_up = False
        self.first_crawl_day: Optional[int] = None
        self.last_crawl_day: Optional[int] = None

    @property
    def n_clients(self) -> int:
        """Number of concurrent crawler clients."""
        return len(self.clients)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, days: Optional[int] = None) -> ServiceReport:
        """Run a bounded number of daily ticks on a fresh virtual clock.

        Defaults to the profile's ``crawl_days``.  Task leaks and
        deadlocks inside the service surface as errors, not hangs --
        that is the virtual loop's contract.
        """
        return run_virtual(self.serve(days=days))

    async def serve(self, days: Optional[int] = None) -> ServiceReport:
        """The service main loop, awaitable on any event loop."""
        days = self.profile.crawl_days if days is None else int(days)
        if days < 1:
            raise ValueError("days must be >= 1")
        if not self._warmed_up:
            # Warmup: the store lives unobserved, accumulating the
            # pre-crawl download history, exactly like the batch phase.
            self.store.advance_days(self.profile.warmup_days)
            self._warmed_up = True
            self.first_crawl_day = self.store.day
        for _ in range(days):
            await self.tick()
        return self.report()

    async def tick(self) -> int:
        """Advance one store day and serve its crawl; returns apps seen.

        The daily barrier: the store advances, then holds still while
        the client fleet crawls the closed day's statistics.  A crashed
        worker aborts the whole fan-out and the day is re-run (writes
        are deferred to commit time, so a re-run is invisible in the
        data).
        """
        if not self._warmed_up:
            self.store.advance_days(self.profile.warmup_days)
            self._warmed_up = True
            self.first_crawl_day = self.store.day
        loop = asyncio.get_running_loop()
        self.store.advance_day()
        observed_day = self.store.day - 1
        while True:
            try:
                with self._traffic.span(
                    "service/crawl_day", clock=loop.time
                ):
                    observations = await self._crawl_day_once(observed_day)
                break
            except WorkerCrashed as crash:
                self.worker_restarts += 1
                self._traffic.counter("service.worker_restarts").add(1)
                if self.worker_restarts > self.max_worker_restarts:
                    raise ResilienceError(
                        f"crawl worker crashed {self.worker_restarts} times "
                        f"(limit {self.max_worker_restarts}); giving up on "
                        f"day {observed_day}"
                    ) from crash
        self._commit_day(observed_day, observations)
        self.last_crawl_day = observed_day
        data = self.data_metrics
        data.counter("service.days_crawled").add(1)
        data.gauge("service.store_day").set(float(self.store.day))
        data.gauge("service.apps_listed").set(
            float(len(self.store.listed_app_ids()))
        )
        self.analytics.export(data)
        if self.segment_analytics is not None:
            self.segment_analytics.observe_matrix(
                self.store.segment_download_counts()
            )
            self.segment_analytics.export(data)
        return len(observations)

    def report(self) -> ServiceReport:
        """Summarize everything served so far (fingerprint included)."""
        if self.first_crawl_day is None or self.last_crawl_day is None:
            raise RuntimeError("the service has not crawled any day yet")
        data = self.data_metrics
        return ServiceReport(
            store_name=self.store.name,
            days_crawled=int(data.counter("service.days_crawled").value),
            first_crawl_day=self.first_crawl_day,
            last_crawl_day=self.last_crawl_day,
            n_clients=self.n_clients,
            snapshots_committed=int(
                data.counter("service.snapshots_committed").value
            ),
            apks_archived=int(data.counter("service.apks_archived").value),
            comments_ingested=int(
                data.counter("service.comments_ingested").value
            ),
            worker_restarts=self.worker_restarts,
            fingerprint=self.database.fingerprint(),
            client_stats={
                client.name: client.stats for client in self.clients
            },
        )

    # ------------------------------------------------------------------
    # One day's fan-out
    # ------------------------------------------------------------------

    async def _crawl_day_once(
        self, observed_day: int
    ) -> List[Tuple[int, AppObservation]]:
        """Discover the day's listing and fan it out over the fleet.

        Returns ``(listing_index, observation)`` pairs in completion
        order; the commit step re-sorts by index.  Any worker failure
        cancels the surviving siblings before propagating, so a crashed
        day leaves no stray tasks behind.
        """
        loop = asyncio.get_running_loop()
        app_ids = await self.clients[0].drive(listing_walk(self.api))

        # The APK-archive state each worker consults is pinned at the
        # start of the day, as in the batch crawler, so the fetch-once
        # decision is independent of intra-day commit order.
        known_apks = self.database.latest_apk_per_app(self.store.name)

        queue: "asyncio.Queue[Tuple[int, int]]" = asyncio.Queue()
        for pair in enumerate(app_ids):
            queue.put_nowait(pair)
        self.peak_queue_depth = max(self.peak_queue_depth, queue.qsize())

        results: List[Tuple[int, AppObservation]] = []
        tasks = [
            loop.create_task(
                self._worker(client, queue, known_apks, results),
                name=f"{client.name}/day-{observed_day}",
            )
            for client in self.clients
        ]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        if not queue.empty():
            raise RuntimeError(
                "day fan-out finished with work still queued "
                f"({queue.qsize()} item(s)) -- worker accounting bug"
            )
        return results

    async def _worker(
        self,
        client: AsyncCrawlClient,
        queue: "asyncio.Queue[Tuple[int, int]]",
        known_apks: Dict[int, ApkRecord],
        results: List[Tuple[int, AppObservation]],
    ) -> None:
        """Drain the day's work queue through one client."""
        while True:
            try:
                index, app_id = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            observation = await client.drive(
                app_visit(
                    self.api, app_id, known_apks, self.fetch_comments, client.stats
                )
            )
            results.append((index, observation))

    def _commit_day(
        self, observed_day: int, observations: List[Tuple[int, AppObservation]]
    ) -> None:
        """Land one completed day: the crawler's day commit plus analytics.

        Commits run in listing order regardless of which client finished
        first, which keeps the write stream -- and everything derived
        from it -- identical across client counts.
        """
        ordered = [
            observation
            for _, observation in sorted(observations, key=lambda pair: pair[0])
        ]
        committed = commit_day(self.database, self.store.name, observed_day, ordered)
        data = self.data_metrics
        data.counter("service.snapshots_committed").add(committed.pages)
        self.analytics.observe_day(
            observed_day,
            [observation.page.app_id for observation in ordered],
            [observation.page.statistics.total_downloads for observation in ordered],
        )
        if committed.apks_stored:
            data.counter("service.apks_archived").add(committed.apks_stored)
        if committed.comments_offered:
            data.counter("service.comments_ingested").add(committed.comments_offered)
