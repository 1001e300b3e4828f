"""Dataset summary (Table 1 of the paper).

Table 1 reports, per store: the crawling period, total apps on the first
and last day, average new apps per day, total downloads on the first and
last day, and average daily downloads.  This module computes the same
summary from a crawled snapshot database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crawler.database import SnapshotDatabase
from repro.marketplace.entities import is_free_price


@dataclass(frozen=True)
class DatasetSummaryRow:
    """One store's row of the Table 1 summary."""

    store: str
    first_day: int
    last_day: int
    apps_first_day: int
    apps_last_day: int
    new_apps_per_day: float
    downloads_first_day: int
    downloads_last_day: int
    daily_downloads: float

    @property
    def crawl_days(self) -> int:
        """Length of the crawl window, in days."""
        return self.last_day - self.first_day + 1


def _summarize(
    database: SnapshotDatabase,
    store: str,
    price_filter: Optional[str] = None,
) -> DatasetSummaryRow:
    days = database.days(store)
    if len(days) < 2:
        raise ValueError(f"store {store!r} needs at least two crawled days")
    first_day, last_day = days[0], days[-1]

    def select(day: int) -> Tuple[int, int]:
        """(apps, total downloads) of the rows passing the price filter."""
        columns = database.snapshot_columns(store, day)
        if columns is None:
            return 0, 0
        downloads = columns.column("total_downloads")
        if price_filter in ("free", "paid"):
            free = is_free_price(columns.column("price"))
            downloads = downloads[free if price_filter == "free" else ~free]
        return int(downloads.size), sum(downloads.tolist())

    apps_first, downloads_first = select(first_day)
    apps_last, downloads_last = select(last_day)
    span = max(1, last_day - first_day)
    label = store if price_filter is None else f"{store} ({price_filter})"
    return DatasetSummaryRow(
        store=label,
        first_day=first_day,
        last_day=last_day,
        apps_first_day=apps_first,
        apps_last_day=apps_last,
        new_apps_per_day=(apps_last - apps_first) / span,
        downloads_first_day=downloads_first,
        downloads_last_day=downloads_last,
        daily_downloads=(downloads_last - downloads_first) / span,
    )


def dataset_summary(
    database: SnapshotDatabase,
    split_free_paid: Optional[List[str]] = None,
) -> List[DatasetSummaryRow]:
    """Table 1 rows for every store in a database.

    ``split_free_paid`` lists stores whose row should be split into a free
    and a paid row, as the paper does for SlideMe.
    """
    split = set(split_free_paid or [])
    rows: List[DatasetSummaryRow] = []
    for store in database.stores():
        if store in split:
            rows.append(_summarize(database, store, price_filter="free"))
            rows.append(_summarize(database, store, price_filter="paid"))
        else:
            rows.append(_summarize(database, store))
    return rows
