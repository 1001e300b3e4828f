"""The store's web interface, as the crawler sees it.

The paper's crawlers interact with each appstore only through its public
website: paged app listings, per-app statistics pages, comment pages, and
APK downloads.  This module wraps an :class:`repro.marketplace.store.AppStore`
behind exactly that interface, including the hostile bits the paper had to
engineer around:

- per-client rate limiting (crawlers exceeding the threshold get throttled
  and, if persistent, blacklisted);
- geo-blocking: Chinese stores serve only clients whose address is in
  China (which is why the paper proxied through Chinese PlanetLab nodes).

For chaos runs the API additionally accepts a
:class:`repro.resilience.faults.FaultInjector`: scheduled transient
errors surface as store-side failures, and scheduled corruptions turn an
app's statistics page into garbage the crawler must detect and re-fetch
(stores really do intermittently serve broken pages; the paper's
crawlers validated and re-visited).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crawler.ratelimit import RateLimitExceeded, TokenBucket
from repro.marketplace.entities import AppStatistics
from repro.marketplace.store import AppStore
from repro.resilience.faults import FaultInjector, FaultKind


class GeoBlockedError(Exception):
    """Raised when a client's country is refused by the store."""


@dataclass(frozen=True)
class AppPage:
    """The publicly visible page of one app."""

    app_id: int
    name: str
    category: str
    developer_id: int
    price: float
    declares_ads: bool
    statistics: AppStatistics


def corrupted_page(page: AppPage) -> AppPage:
    """A garbage rendering of an app page (what a broken store serves).

    The corruption is detectable by :func:`page_is_corrupt`, which is how
    the crawler knows to throw the page away and re-fetch.
    """
    broken = AppStatistics(
        app_id=page.app_id,
        total_downloads=-1,
        rating_sum=0,
        rating_count=-1,
        comment_count=-1,
        version_name="",
        price=page.price,
    )
    return replace(page, name="", statistics=broken)


def page_is_corrupt(page: AppPage) -> bool:
    """Whether an app page fails basic integrity validation."""
    stats = page.statistics
    return (
        not page.name
        or not stats.version_name
        or stats.total_downloads < 0
        or stats.rating_count < 0
        or stats.comment_count < 0
    )


@dataclass(frozen=True)
class ApkDownload:
    """The payload of an APK fetch."""

    app_id: int
    version_name: str
    package_name: str
    size_mb: float
    embedded_libraries: Tuple[str, ...]


class StoreWebApi:
    """Paged, throttled, geo-fenced view over a simulated store.

    Parameters
    ----------
    store:
        The live marketplace.
    page_size:
        Apps per listing page.
    requests_per_second:
        Per-client token-bucket rate (in simulated seconds).
    allowed_countries:
        Client countries the store serves; ``None`` means everyone.
        The Chinese stores in the paper effectively require ``("cn",)``.
    blacklist_threshold:
        Number of rate-limit violations after which a client address is
        blocked outright.
    fault_injector:
        Optional chaos hook; scheduled ``TRANSIENT_ERROR`` faults fire
        as store-side failures and ``CORRUPT_SNAPSHOT`` faults garble
        app pages.
    """

    def __init__(
        self,
        store: AppStore,
        page_size: int = 50,
        requests_per_second: float = 10.0,
        allowed_countries: Optional[Sequence[str]] = None,
        blacklist_threshold: int = 50,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be positive")
        if requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be positive")
        self._store = store
        self.page_size = page_size
        self.requests_per_second = requests_per_second
        self._allowed_countries = (
            tuple(allowed_countries) if allowed_countries is not None else None
        )
        self.blacklist_threshold = blacklist_threshold
        self._faults = fault_injector
        self._buckets: Dict[str, TokenBucket] = {}
        self._violations: Dict[str, int] = {}
        self._blacklisted: set = set()
        self.requests_served = 0

    @property
    def store_name(self) -> str:
        """Name of the backing store."""
        return self._store.name

    @property
    def requires_country(self) -> Optional[str]:
        """The single country required by geo-blocking, if exactly one."""
        if self._allowed_countries and len(self._allowed_countries) == 1:
            return self._allowed_countries[0]
        return None

    def is_blacklisted(self, client: str) -> bool:
        """Whether a client address has been blocked."""
        return client in self._blacklisted

    def _admit(self, client: str, country: str, now: float) -> None:
        """Gatekeeping common to all endpoints."""
        if self._faults is not None:
            self._faults.maybe_raise_transient(now, where=self.store_name)
        if client in self._blacklisted:
            raise GeoBlockedError(f"client {client} is blacklisted")
        if (
            self._allowed_countries is not None
            and country not in self._allowed_countries
        ):
            raise GeoBlockedError(
                f"store {self.store_name} does not serve country {country!r}"
            )
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(
                rate=self.requests_per_second,
                capacity=max(1.0, self.requests_per_second),
            )
            self._buckets[client] = bucket
        try:
            bucket.consume_or_raise(now)
        except RateLimitExceeded:
            self._violations[client] = self._violations.get(client, 0) + 1
            if self._violations[client] >= self.blacklist_threshold:
                self._blacklisted.add(client)
            raise
        self.requests_served += 1

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def list_page(
        self, page: int, client: str, country: str, now: float
    ) -> List[int]:
        """One page of listed app IDs (ordering is stable day to day)."""
        if page < 0:
            raise ValueError("page must be non-negative")
        self._admit(client, country, now)
        listed = self._store.listed_app_ids()
        start = page * self.page_size
        return listed[start : start + self.page_size]

    def n_pages(self, client: str, country: str, now: float) -> int:
        """Number of listing pages currently available."""
        self._admit(client, country, now)
        listed = len(self._store.listed_app_ids())
        return (listed + self.page_size - 1) // self.page_size

    def app_page(
        self, app_id: int, client: str, country: str, now: float
    ) -> AppPage:
        """The statistics page of one app."""
        self._admit(client, country, now)
        app = self._store.app(app_id)
        if app.listing_day > self._store.day:
            raise KeyError(f"app {app_id} is not listed yet")
        page = AppPage(
            app_id=app.app_id,
            name=app.name,
            category=app.category,
            developer_id=app.developer_id,
            price=app.price,
            declares_ads=app.declares_ads,
            statistics=self._store.statistics(app_id),
        )
        if self._faults is not None and self._faults.take(
            now, FaultKind.CORRUPT_SNAPSHOT, detail=f"corrupted page of app {app_id}"
        ):
            return corrupted_page(page)
        return page

    def app_comments(
        self, app_id: int, client: str, country: str, now: float
    ) -> np.ndarray:
        """All public comments of an app in posting order, as read-only
        ``(n, 4)`` int64 rows of ``(user_id, app_id, day, rating)``."""
        self._admit(client, country, now)
        return self._store.comments_for_app(app_id)

    def download_apk(
        self, app_id: int, client: str, country: str, now: float
    ) -> ApkDownload:
        """Fetch the current APK of an app.

        The paper downloads each version exactly once so crawling does not
        inflate the store's download counters; accordingly this endpoint
        does *not* touch the download ledger.
        """
        self._admit(client, country, now)
        app = self._store.app(app_id)
        version = app.current_version
        if version is None:
            raise KeyError(f"app {app_id} has no released version")
        return ApkDownload(
            app_id=app_id,
            version_name=version.version_name,
            package_name=version.apk.package_name,
            size_mb=version.apk.size_mb,
            embedded_libraries=version.apk.embedded_libraries,
        )
