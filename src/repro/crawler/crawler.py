"""The crawl engine: full snapshot then daily incremental revisits.

The paper's collection process has two phases per store: an initial crawl
that indexes every listed app, followed by daily re-visits that refresh
each known app's statistics, pick up newly listed apps, re-fetch comment
pages, and archive any APK version not yet downloaded.  Requests go
through a randomly chosen proxy (Chinese proxies only, for geo-fenced
stores), and the crawler paces itself with a token bucket to respect the
store's request threshold.

Failure handling is delegated to :mod:`repro.resilience`: every request
runs under a :class:`~repro.resilience.retry.RetryPolicy` (exponential
backoff with seeded jitter, advancing the simulated clock), each proxy
sits behind a :class:`~repro.resilience.breaker.CircuitBreaker` so a
repeatedly failing node is skipped until its reset timeout, fetched app
pages are validated and re-fetched when a store serves garbage, and a
:class:`~repro.resilience.faults.FaultInjector` can schedule proxy
deaths, clock skew, and worker crashes for chaos runs.

The batch crawler and the always-on service (:mod:`repro.service`) run
one crawl path: the retry/pacing ladder of a request is the sans-IO
:class:`~repro.crawler.requesting.RequestEngine`; a day's requests are
the sans-IO sequences :func:`listing_walk` and :func:`app_visit`, which
yield ``(endpoint, args)`` and are sent each result; and the day lands
through :func:`commit_day` once every listed app has been visited.
:class:`StoreCrawler` is the synchronous driver: it owns a scalar
simulated clock and runs each yielded request to completion on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.crawler.database import ApkRecord, SnapshotDatabase
from repro.crawler.proxies import ProxyPool
from repro.crawler.requesting import CrawlError, ProxiesExhausted, RequestEngine
from repro.crawler.webapi import ApkDownload, AppPage, StoreWebApi
from repro.marketplace.entities import Comment
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.stats.rng import SeedLike, make_rng

__all__ = [
    "AppObservation",
    "CrawlError",
    "CrawlStats",
    "DayCommit",
    "ProxiesExhausted",
    "StoreCrawler",
    "app_visit",
    "commit_day",
    "listing_walk",
]

#: One request of a crawl sequence: an endpoint and its leading arguments.
Request = Tuple[object, Tuple]


@dataclass
class CrawlStats:
    """Bookkeeping for one crawler over its lifetime."""

    requests: int = 0
    retries: int = 0
    rate_limit_hits: int = 0
    proxy_failures: int = 0
    proxy_pick_failures: int = 0
    transient_faults: int = 0
    corrupt_pages: int = 0
    breaker_skips: int = 0
    backoff_seconds: float = 0.0
    apps_crawled: int = 0
    apks_fetched: int = 0
    comments_fetched: int = 0


@dataclass(frozen=True)
class AppObservation:
    """Everything one visit fetched about one app on one day.

    ``apk`` is None when the version was already archived; ``comments``
    is None when comment collection was off or the app had none.
    """

    page: AppPage
    apk: Optional[ApkDownload]
    comments: Optional[List[Comment]]


@dataclass(frozen=True)
class DayCommit:
    """What :func:`commit_day` landed: pages, APK versions archived, and
    comments offered (before de-duplication against the log)."""

    pages: int
    apks_stored: int
    comments_offered: int


def listing_walk(api: StoreWebApi) -> Generator[Request, object, List[int]]:
    """The requests that list a store: the page count, then every page.

    Returns every listed app id, in listing order.
    """
    n_pages = yield api.n_pages, ()
    app_ids: List[int] = []
    for page in range(n_pages):
        app_ids.extend((yield api.list_page, (page,)))
    return app_ids


def app_visit(
    api: StoreWebApi,
    app_id: int,
    known_apks: Dict[int, ApkRecord],
    fetch_comments: bool,
    stats: CrawlStats,
) -> Generator[Request, object, AppObservation]:
    """The requests of one app's daily visit.

    The statistics page first (counted in ``stats.apps_crawled`` as it
    arrives); then the APK, only when ``known_apks`` -- the archive at
    the start of the day -- lacks the page's version (the paper: "we
    download each app version only once"); then the comments, only with
    ``fetch_comments`` and when the page shows any.  The store must hold
    still while the day is crawled, so the APK fetched is the page's
    version.
    """
    page = yield api.app_page, (app_id,)
    stats.apps_crawled += 1
    apk: Optional[ApkDownload] = None
    known = known_apks.get(app_id)
    if known is None or known.version_name != page.statistics.version_name:
        apk = yield api.download_apk, (app_id,)
    comments: Optional[List[Comment]] = None
    if fetch_comments and page.statistics.comment_count > 0:
        comments = yield api.app_comments, (app_id,)
    return AppObservation(page=page, apk=apk, comments=comments)


def commit_day(
    database: SnapshotDatabase,
    store: str,
    day: int,
    observations: Sequence[AppObservation],
) -> DayCommit:
    """Land one crawled day, its observations in listing order.

    The pages land as one snapshot append, the new APK versions as one
    archive append (sequence numbers in listing order) and the comments
    as one log append that keeps each comment's first sight, on an
    earlier day or earlier today.  Pages intern their strings before
    APKs do, which leaves every intern table in the order per-app writes
    would: an APK's only string a page also has is its version, and that
    is the page's own.
    """
    columnar = database.columnar
    pages = [observation.page for observation in observations]
    statistics = [page.statistics for page in pages]
    columnar.extend_snapshots(
        store,
        day,
        {
            "app_id": [page.app_id for page in pages],
            "name": [page.name for page in pages],
            "category": [page.category for page in pages],
            "developer_id": [page.developer_id for page in pages],
            "price": [page.price for page in pages],
            "declares_ads": [page.declares_ads for page in pages],
            "total_downloads": [stats.total_downloads for stats in statistics],
            "rating_count": [stats.rating_count for stats in statistics],
            "average_rating": [stats.average_rating for stats in statistics],
            "comment_count": [stats.comment_count for stats in statistics],
            "version_name": [stats.version_name for stats in statistics],
        },
    )
    apks_stored = columnar.extend_apks(
        store,
        [
            (apk.app_id, apk.version_name, apk.package_name, apk.size_mb,
             apk.embedded_libraries)
            for apk in (observation.apk for observation in observations)
            if apk is not None
        ],
    )
    comments = [
        (comment.user_id, comment.app_id, comment.day, comment.rating)
        for observation in observations
        if observation.comments is not None
        for comment in observation.comments
    ]
    columnar.extend_comments(store, comments)
    return DayCommit(
        pages=len(pages), apks_stored=apks_stored, comments_offered=len(comments)
    )


class StoreCrawler:
    """Crawls one store's web API into a snapshot database.

    Parameters
    ----------
    api:
        The store's web interface.
    database:
        Where observations are stored.
    proxy_pool:
        Proxies to route requests through.
    requests_per_second:
        Self-imposed request pacing (kept below the store's threshold, as
        the paper's crawlers were designed to comply with each store's
        limits).
    retry_policy:
        Attempt budget and backoff schedule.  The default makes 5
        attempts, backing off exponentially from 0.25s to 30s of
        simulated time with 10% seeded jitter.
    breaker_factory:
        Builds the per-proxy circuit breaker; ``None`` uses defaults
        (3 consecutive failures trip it, 60 simulated seconds to reset).
    fault_injector:
        Optional chaos hook polled once per attempt for proxy deaths,
        clock skew, and worker crashes.
    seed:
        Randomness for backoff jitter only -- the crawled data never
        depends on it.
    metrics:
        Observability sink; defaults to the process-global registry.
    """

    def __init__(
        self,
        api: StoreWebApi,
        database: SnapshotDatabase,
        proxy_pool: ProxyPool,
        requests_per_second: float = 8.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory=None,
        fault_injector: Optional[FaultInjector] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        self._api = api
        self._database = database
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.stats = CrawlStats()
        self._clock = 0.0
        self._engine = RequestEngine(
            api=api,
            proxy_pool=proxy_pool,
            requests_per_second=requests_per_second,
            retry_policy=self.retry_policy,
            breaker_factory=(
                breaker_factory if breaker_factory is not None else CircuitBreaker
            ),
            fault_injector=fault_injector,
            retry_rng=make_rng(seed),
            stats=self.stats,
            metrics=metrics if metrics is not None else get_registry(),
        )

    @property
    def clock(self) -> float:
        """The crawler's simulated wall clock, in seconds."""
        return self._clock

    @property
    def proxy_pool(self) -> ProxyPool:
        """The pool this crawler routes requests through."""
        return self._engine.proxy_pool

    @property
    def engine(self) -> RequestEngine:
        """The sans-IO request pipeline this crawler drives."""
        return self._engine

    def _request(self, endpoint, *args):
        """Issue one request, advancing the simulated clock as the engine asks.

        The clock is committed per yielded delay (not once at the end),
        so backoff spent on a request that ultimately fails still counts
        -- exactly as when the ladder lived inline here.
        """
        steps = self._engine.request_steps(endpoint, args, self._clock)
        try:
            delay = next(steps)
            while True:
                self._clock += delay
                delay = steps.send(self._clock)
        except StopIteration as done:
            return done.value

    def _drive(self, sequence: Generator[Request, object, object]):
        """Run a crawl sequence's requests one by one; returns its value."""
        try:
            endpoint, args = next(sequence)
            while True:
                endpoint, args = sequence.send(self._request(endpoint, *args))
        except StopIteration as done:
            return done.value

    def crawl_day(self, day: int, fetch_comments: bool = True) -> int:
        """Run one daily crawl; returns the number of apps snapshotted.

        ``day`` is the store's simulation day being observed; the paper's
        crawler tags each observation with its crawl date the same way.
        The day is committed once every listed app has been visited, so
        a day that raises -- a request out of retries, a crashed worker,
        a dead proxy pool -- writes nothing, and a supervisor may re-run
        it.
        """
        api = self._api
        app_ids = self._drive(listing_walk(api))
        known_apks = self._database.latest_apk_per_app(api.store_name)
        observations = [
            self._drive(app_visit(api, app_id, known_apks, fetch_comments, self.stats))
            for app_id in app_ids
        ]
        committed = commit_day(self._database, api.store_name, day, observations)
        self.stats.apks_fetched += committed.apks_stored
        self.stats.comments_fetched += committed.comments_offered
        return len(app_ids)
