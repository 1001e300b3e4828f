"""The always-on ecosystem service: a live store under concurrent crawl.

This is ROADMAP item 3: the batch campaign
(:func:`repro.crawler.scheduler.run_crawl_campaign`) promoted to a
long-running system.  One simulated marketplace advances daily ticks
while N concurrent :class:`~repro.service.client.CrawlClient`
workers -- each with its own pacer, retry jitter, and circuit breakers,
all sharing the proxy fleet and fault schedule -- hammer the
:class:`~repro.crawler.webapi.StoreWebApi` and land snapshots in the
columnar :class:`~repro.crawler.database.SnapshotDatabase`.  After each
day commits, the popularity gauges (:mod:`repro.analysis.streaming`) are
recomputed from the committed download column.

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
   completes, so the database write stream and the data-plane metrics
   derived from it are a pure function of (seed, days) -- never of
   client interleaving.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro.analysis.streaming import StreamingAnalytics, export_segment_shares
from repro.crawler.crawler import (
    AppObservation,
    CrawlStats,
    app_visit,
    commit_day,
    listing_walk,
)
from repro.crawler.database import SnapshotDatabase
from repro.crawler.proxies import ProxyPool
from repro.crawler.scheduler import _GEO_FENCED_STORES
from repro.crawler.webapi import StoreWebApi
from repro.marketplace.generator import GeneratedStore, build_store
from repro.marketplace.profiles import StoreProfile
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.errors import ResilienceError, WorkerCrashed
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.service.client import CrawlClient
from repro.service.virtualtime import Scheduler
from repro.stats.rng import SeedLike, derive_seed, make_rng

__all__ = ["EcosystemService", "ServiceReport"]

#: One app visit of a day's fan-out: its listing index, the client that
#: made it, and what it fetched.
_Visit = Tuple[int, CrawlClient, AppObservation]


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

    The service keeps its K-invariant data-plane metrics in a private
    registry, ``data_metrics``.  Traffic-plane metrics go to the registry
    that is ambient (:func:`~repro.obs.metrics.get_registry`) at
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
        self.data_metrics = MetricsRegistry()
        self._traffic = get_registry()
        # One clock for the service's life: the clients' pacers and
        # breakers keep their times across ticks and ``run()`` calls.
        self._scheduler = Scheduler()
        self.clients = [
            CrawlClient(
                name=f"client-{index}",
                api=self.api,
                proxy_pool=self.proxy_pool,
                scheduler=self._scheduler,
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
        """Serve a bounded number of daily ticks; returns the report so far.

        Defaults to the profile's ``crawl_days``.  The virtual clock
        carries over from earlier calls, so serving two days and then
        one more equals serving three.
        """
        days = self.profile.crawl_days if days is None else int(days)
        if days < 1:
            raise ValueError("days must be >= 1")
        for _ in range(days):
            self.tick()
        return self.report()

    def tick(self) -> int:
        """Advance one store day and serve its crawl; returns apps seen.

        The daily barrier: the store advances, then holds still while
        the client fleet crawls the closed day's statistics, as one task
        on the service's scheduler.  A crashed worker aborts the whole
        fan-out and the day is re-run (writes are deferred to commit
        time, so a re-run is invisible in the data).
        """
        if not self._warmed_up:
            # Warmup: the store lives unobserved, accumulating the
            # pre-crawl download history, exactly like the batch phase.
            self.store.advance_days(self.profile.warmup_days)
            self._warmed_up = True
            self.first_crawl_day = self.store.day
        scheduler = self._scheduler
        self.store.advance_day()
        observed_day = self.store.day - 1
        while True:
            try:
                with self._traffic.span(
                    "service/crawl_day", clock=lambda: scheduler.now
                ):
                    observations = scheduler.run(
                        self._crawl_day_once(observed_day)
                    )
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
        self.analytics.export(self.database, observed_day, data)
        segments = self.store.segments
        if segments is not None:
            export_segment_shares(
                segments.names, self.store.segment_download_counts(), data
            )
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

    def _crawl_day_once(
        self, observed_day: int
    ) -> Generator[object, object, List[_Visit]]:
        """Discover the day's listing and fan it out over the fleet: a
        scheduler task.

        Returns ``(listing_index, client, observation)`` triples in
        completion order; the commit step re-sorts by index.  A failed
        worker's siblings are cancelled and finished before its
        exception is raised here, so a crashed day leaves no task behind.
        """
        app_ids = yield from self.clients[0].drive(listing_walk(self.api))

        # The APK-archive state each worker consults is pinned at the
        # start of the day, as in the batch crawler, so the fetch-once
        # decision is independent of intra-day commit order.
        known_versions = self.database.latest_versions(self.store.name)

        queue = deque(enumerate(app_ids))
        self.peak_queue_depth = max(self.peak_queue_depth, len(queue))

        results: List[_Visit] = []
        yield [
            self._worker(client, queue, known_versions, results)
            for client in self.clients
        ]
        if queue:
            raise RuntimeError(
                "day fan-out finished with work still queued "
                f"({len(queue)} item(s)) -- worker accounting bug"
            )
        return results

    def _worker(
        self,
        client: CrawlClient,
        queue: Deque[Tuple[int, int]],
        known_versions: Dict[int, str],
        results: List[_Visit],
    ) -> Generator[object, object, None]:
        """Drain the day's work queue through one client."""
        while queue:
            index, app_id = queue.popleft()
            observation = yield from client.drive(
                app_visit(
                    self.api, app_id, known_versions, self.fetch_comments, client.stats
                )
            )
            results.append((index, client, observation))

    def _commit_day(self, observed_day: int, visits: List[_Visit]) -> None:
        """Land one completed day through the crawler's day commit.

        Commits run in listing order regardless of which client finished
        first, which keeps the write stream -- and everything derived
        from it -- identical across client counts.  Each client is
        credited with the APKs and comments its own visits added to the
        logs: one client visited each app, and every kept row carries
        its app id.
        """
        visits = sorted(visits, key=lambda visit: visit[0])
        ordered = [observation for _, _, observation in visits]
        committed = commit_day(self.database, self.store.name, observed_day, ordered)
        visitor = {
            observation.page.app_id: client.stats
            for _, client, observation in visits
        }
        columnar = self.database.columnar
        if committed.apks_stored:
            log = columnar.apk_log(self.store.name)
            for app_id in log.tail("app_id", committed.apks_stored).tolist():
                visitor[app_id].apks_fetched += 1
        if committed.comments_stored:
            log = columnar.comment_log(self.store.name)
            for app_id in log.tail("app_id", committed.comments_stored).tolist():
                visitor[app_id].comments_fetched += 1
        data = self.data_metrics
        data.counter("service.snapshots_committed").add(committed.pages)
        if committed.apks_stored:
            data.counter("service.apks_archived").add(committed.apks_stored)
        if committed.comments_stored:
            data.counter("service.comments_ingested").add(committed.comments_stored)
