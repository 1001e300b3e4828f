"""Crawl-quality assessment: how complete and consistent a crawl is.

A measurement study stands on its collection quality; the paper's
Section 2 spends most of its length on exactly this (rate limits,
blacklisting, proxy placement, per-store crawlers).  This module audits
a finished crawl the way a reviewer would:

- **coverage**: which fraction of each day's listed apps was actually
  snapshotted, and whether any days are missing from the cadence;
- **consistency**: cumulative counters (downloads, comments, ratings)
  must never decrease between observations of the same app;
- **staleness**: apps that stopped being observed before the crawl's
  final day (delisted, or lost to crawl failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.crawler.database import SnapshotDatabase


@dataclass(frozen=True)
class CrawlQualityReport:
    """The audit result for one store's crawl."""

    store: str
    n_days: int
    expected_cadence: int
    missing_days: Tuple[int, ...]
    apps_observed: int
    mean_daily_coverage: float
    monotonicity_violations: Tuple[Tuple[int, int, str], ...]
    stale_apps: Tuple[int, ...]

    @property
    def is_clean(self) -> bool:
        """No missing days, no counter regressions."""
        return not self.missing_days and not self.monotonicity_violations

    def describe(self) -> str:
        """A one-paragraph audit summary."""
        issues = []
        if self.missing_days:
            issues.append(f"{len(self.missing_days)} missing days")
        if self.monotonicity_violations:
            issues.append(
                f"{len(self.monotonicity_violations)} counter regressions"
            )
        if self.stale_apps:
            issues.append(f"{len(self.stale_apps)} apps went stale")
        verdict = "; ".join(issues) if issues else "clean"
        return (
            f"[{self.store}] {self.n_days} crawled days, "
            f"{self.apps_observed} apps, mean daily coverage "
            f"{self.mean_daily_coverage * 100:.1f}% -- {verdict}"
        )


def _infer_cadence(days: List[int]) -> int:
    """The most common gap between consecutive crawled days."""
    if len(days) < 2:
        return 1
    gaps: Dict[int, int] = {}
    for previous, current in zip(days, days[1:]):
        gap = current - previous
        gaps[gap] = gaps.get(gap, 0) + 1
    return max(gaps, key=lambda gap: (gaps[gap], -gap))


def assess_crawl_quality(
    database: SnapshotDatabase, store: str
) -> CrawlQualityReport:
    """Audit one store's crawl for completeness and consistency."""
    days = database.days(store)
    if not days:
        raise ValueError(f"store {store!r} has no crawled days")

    cadence = _infer_cadence(days)
    missing: List[int] = []
    for previous, current in zip(days, days[1:]):
        gap = current - previous
        if gap > cadence:
            missing.extend(range(previous + cadence, current, cadence))

    # One pass over the days, keeping per-app state: the first and last
    # day index that observed each app, and its counters at the last one.
    # Cumulative counters never decrease between an app's consecutive
    # observations; a chunk's rows are in app-id order, so regressions
    # come out in day, then app order.
    chunks = list(database.columnar.chunks(store))
    app_ids = database.columnar.app_ids(store)
    n_days = len(chunks)
    first_seen = np.full(app_ids.size, -1, dtype=np.int64)
    last_seen = np.zeros(app_ids.size, dtype=np.int64)
    last_downloads = np.zeros(app_ids.size, dtype=np.int64)
    last_comments = np.zeros(app_ids.size, dtype=np.int64)
    violations: List[Tuple[int, int, str]] = []
    for index, chunk in enumerate(chunks):
        positions = np.searchsorted(app_ids, chunk.app_ids())
        downloads = chunk.column("total_downloads")
        comments = chunk.column("comment_count")
        seen = first_seen[positions] >= 0
        downloads_fell = seen & (downloads < last_downloads[positions])
        comments_fell = seen & (comments < last_comments[positions])
        rows = np.flatnonzero(downloads_fell | comments_fell)
        for app_id, download_regressed, comment_regressed in zip(
            app_ids[positions[rows]].tolist(),
            downloads_fell[rows].tolist(),
            comments_fell[rows].tolist(),
        ):
            if download_regressed:
                violations.append((chunk.day, app_id, "downloads"))
            if comment_regressed:
                violations.append((chunk.day, app_id, "comments"))
        first_seen[positions[~seen]] = index
        last_seen[positions] = index
        last_downloads[positions] = downloads
        last_comments[positions] = comments

    # Per-day coverage: apps snapshotted today / apps ever seen up to today
    # that are still listed (approximated by "seen today or later").  An
    # app is active from its first to its last crawled day, so the active
    # count per day is a running sum of first-seen minus last-seen counts.
    ends = np.bincount(last_seen, minlength=n_days)
    active = np.cumsum(np.bincount(first_seen, minlength=n_days) - ends) + ends
    coverages = [
        min(1.0, chunk.n_rows / n_active)
        for chunk, n_active in zip(chunks, active.tolist())
        if n_active
    ]
    mean_coverage = sum(coverages) / len(coverages) if coverages else 0.0

    stale = tuple(app_ids[last_seen < n_days - 1].tolist())
    return CrawlQualityReport(
        store=store,
        n_days=len(days),
        expected_cadence=cadence,
        missing_days=tuple(missing),
        apps_observed=int(app_ids.size),
        mean_daily_coverage=mean_coverage,
        monotonicity_violations=tuple(violations),
        stale_apps=stale,
    )
