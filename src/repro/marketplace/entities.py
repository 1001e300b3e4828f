"""Data model for the synthetic marketplace.

These entities mirror the attributes the paper's crawler collects for each
app: number of downloads, user ratings and comments, current version,
category, price, and developer information, plus the APK binary itself
(represented here by :class:`ApkPackage` metadata, which is what the
ad-library scanner inspects).  A comment is not an entity: the store
keeps comments as ``(user_id, app_id, day, rating)`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


def is_free_price(price: float) -> bool:
    """Whether a listed price means "free".

    This is the one place the codebase compares a price against zero:
    store pages list free apps as exactly ``0.0``, and prices are entered
    and serialized as exact decimal-dollar values, never computed, so the
    exact comparison is the semantics (allowlisted for lint rule RPL031).
    Everything else goes through ``is_free`` / ``is_paid`` predicates.
    """
    return price == 0.0


@dataclass(frozen=True)
class ApkPackage:
    """Metadata of an app binary, as a reverse-engineering tool would see it.

    The paper inspects APKs with Androguard to detect embedded advertising
    libraries.  Our synthetic packages carry the list of embedded library
    package prefixes (e.g. ``"com.admob.android"``), so the scanner in
    :mod:`repro.analysis.adlib` performs real prefix matching.
    """

    package_name: str
    version_code: int
    size_mb: float
    embedded_libraries: Tuple[str, ...] = ()

    def contains_library(self, library_prefix: str) -> bool:
        """Whether any embedded library starts with ``library_prefix``."""
        return any(
            lib == library_prefix or lib.startswith(library_prefix + ".")
            for lib in self.embedded_libraries
        )


@dataclass(frozen=True)
class AppVersion:
    """One released version of an app."""

    version_name: str
    release_day: int
    apk: ApkPackage


@dataclass
class Developer:
    """An app developer account in a marketplace."""

    developer_id: int
    name: str
    country: str = "unknown"

    def __post_init__(self) -> None:
        if self.developer_id < 0:
            raise ValueError("developer_id must be non-negative")


@dataclass
class App:
    """A mobile application listed in a store.

    Attributes
    ----------
    app_id:
        Store-local identifier (also the app's index in the store arrays).
    global_rank:
        The app's latent appeal rank (1 = most appealing).  This is the
        ``i`` of the paper's ``D(i, j)``; the behaviour engine's global
        Zipf draws use it.
    cluster_rank:
        The app's appeal rank within its category (the ``j`` of
        ``D(i, j)``).
    price:
        Price in dollars; ``0.0`` means a free app.
    listing_day:
        Simulation day the app became available (day 0 = store launch).
    declares_ads:
        Whether the store page claims the app shows advertisements (the
        paper compares this claim to the APK scan).
    """

    app_id: int
    name: str
    category: str
    developer_id: int
    global_rank: int
    cluster_rank: int
    price: float = 0.0
    listing_day: int = 0
    declares_ads: bool = False
    versions: List[AppVersion] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.price < 0:
            raise ValueError(f"price must be non-negative, got {self.price}")
        if self.global_rank < 1:
            raise ValueError("global_rank must be >= 1")
        if self.cluster_rank < 1:
            raise ValueError("cluster_rank must be >= 1")

    @property
    def is_free(self) -> bool:
        """Whether the app costs nothing to download."""
        return is_free_price(self.price)

    @property
    def is_paid(self) -> bool:
        """Whether the app requires a purchase."""
        return not is_free_price(self.price)

    @property
    def current_version(self) -> Optional[AppVersion]:
        """The most recently released version, if any."""
        return self.versions[-1] if self.versions else None

    @property
    def update_count(self) -> int:
        """Number of updates after the initial release."""
        return max(0, len(self.versions) - 1)


@dataclass
class AppStatistics:
    """Daily per-app statistics, as exposed on the store's web page."""

    app_id: int
    total_downloads: int
    rating_sum: int
    rating_count: int
    comment_count: int
    version_name: str
    price: float

    @property
    def average_rating(self) -> float:
        """Mean rating, 0.0 when unrated."""
        if self.rating_count == 0:
            return 0.0
        return self.rating_sum / self.rating_count
