"""Ad-library scanning over archived APKs (the paper's Androguard step).

Section 6.3 of the paper inspects free-app binaries with a reverse
engineering tool and finds that 67% embed at least one of the 20 most
popular ad networks; it also cross-checks the store page's "contains ads"
claim against the scan.  Our scanner performs the same prefix matching
over the synthetic APKs' embedded library lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crawler.database import ApkRecord, SnapshotDatabase
from repro.marketplace.ads import TOP_AD_NETWORKS, contains_ad_network
from repro.marketplace.entities import is_free_price


@dataclass(frozen=True)
class AdScanResult:
    """Outcome of scanning one store's APK archive."""

    store: str
    n_scanned: int
    n_with_ads: int
    per_app: Dict[int, bool]
    network_counts: Dict[str, int]

    @property
    def ad_fraction(self) -> float:
        """Share of scanned apps embedding at least one top-20 network."""
        if self.n_scanned == 0:
            return 0.0
        return self.n_with_ads / self.n_scanned

    def top_networks(self, k: int = 5) -> List[Tuple[str, int]]:
        """The ``k`` most common ad networks in the archive."""
        ordered = sorted(
            self.network_counts.items(), key=lambda pair: pair[1], reverse=True
        )
        return ordered[:k]

    def describe(self) -> str:
        """Figure-less but quoted in Section 6.3 (the ~67% number)."""
        return (
            f"[{self.store}] {self.ad_fraction * 100:.1f}% of scanned apps "
            f"embed at least one top-20 ad network "
            f"({self.n_with_ads}/{self.n_scanned})"
        )


def scan_apks(store: str, apks: Sequence[ApkRecord]) -> AdScanResult:
    """Scan a set of APK records for embedded ad networks."""
    per_app: Dict[int, bool] = {}
    network_counts: Dict[str, int] = {}
    for apk in apks:
        has_ads = contains_ad_network(apk.embedded_libraries)
        # The latest scanned version decides the app's flag; records are
        # processed in archive order so later versions overwrite.
        per_app[apk.app_id] = has_ads
        for library in apk.embedded_libraries:
            for network in TOP_AD_NETWORKS:
                if library == network or library.startswith(network + "."):
                    network_counts[network] = network_counts.get(network, 0) + 1
                    break
    n_with_ads = sum(1 for has_ads in per_app.values() if has_ads)
    return AdScanResult(
        store=store,
        n_scanned=len(per_app),
        n_with_ads=n_with_ads,
        per_app=per_app,
        network_counts=network_counts,
    )


def scan_store_for_ads(
    database: SnapshotDatabase,
    store: str,
    free_only: bool = False,
    day: Optional[int] = None,
) -> AdScanResult:
    """Scan every archived APK of a store.

    With ``free_only`` the scan is restricted to apps that were free on
    the reference day, matching the paper's headline statistic.
    """
    apks = database.apks(store)
    if free_only:
        days = database.days(store)
        if not days:
            raise KeyError(f"no crawled days for store {store!r}")
        day = days[-1] if day is None else day
        columns = database.snapshot_columns(store, day)
        free_ids = set()
        if columns is not None:
            free = is_free_price(columns.column("price"))
            free_ids = set(columns.app_ids[free].tolist())
        apks = [apk for apk in apks if apk.app_id in free_ids]
    return scan_apks(store, apks)


def declaration_accuracy(
    database: SnapshotDatabase, store: str, day: Optional[int] = None
) -> float:
    """Agreement between the store page's ad claim and the APK scan.

    The paper reports that the SlideMe page information is "generally
    true" compared to the binary analysis; this returns the fraction of
    scanned apps whose ``declares_ads`` flag matches the scan.
    """
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    scan = scan_store_for_ads(database, store)
    columns = database.snapshot_columns(store, day)
    declared = {}
    if columns is not None:
        declared = dict(
            zip(columns.app_ids.tolist(), columns.column("declares_ads").tolist())
        )
    checked = [
        app_id for app_id in scan.per_app if app_id in declared
    ]
    if not checked:
        raise ValueError("no apps with both a scan and a declaration")
    matches = sum(
        1 for app_id in checked if scan.per_app[app_id] == declared[app_id]
    )
    return matches / len(checked)
