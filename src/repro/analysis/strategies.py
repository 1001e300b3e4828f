"""Developer strategies and revenue comparison (Figures 16, 17, 18).

Section 6.3 characterizes developer behaviour (portfolio sizes, category
focus, free-vs-paid strategy mix) and then compares the two revenue
strategies by computing the break-even ad income of Equation 7: overall,
over time, by free-app popularity tier, and per category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.adlib import scan_store_for_ads
from repro.analysis.income import _paid_records_on
from repro.analysis.pricing_study import _average_prices
from repro.core.revenue import (
    FreeAppRecord,
    break_even_ad_income,
    break_even_by_category,
    break_even_by_popularity_tier,
)
from repro.crawler.database import SnapshotDatabase
from repro.marketplace.entities import is_free_price
from repro.stats.distributions import Ecdf


@dataclass(frozen=True)
class DeveloperStrategyReport:
    """Figure 16: portfolio sizes and category focus, split free/paid."""

    store: str
    apps_per_developer_free: Ecdf
    apps_per_developer_paid: Ecdf
    categories_per_developer_free: Ecdf
    categories_per_developer_paid: Ecdf
    strategy_mix: Dict[str, float]

    def describe(self) -> str:
        """Headline numbers for Figure 16 and the strategy mix."""
        single_free = self.apps_per_developer_free(1) * 100
        single_paid = self.apps_per_developer_paid(1) * 100
        one_cat_free = self.categories_per_developer_free(1) * 100
        one_cat_paid = self.categories_per_developer_paid(1) * 100
        return (
            f"[{self.store}] single-app developers: {single_free:.0f}% (free), "
            f"{single_paid:.0f}% (paid); single-category developers: "
            f"{one_cat_free:.0f}% (free), {one_cat_paid:.0f}% (paid); "
            f"strategy mix: {self.strategy_mix['free_only'] * 100:.0f}% free-only, "
            f"{self.strategy_mix['paid_only'] * 100:.0f}% paid-only, "
            f"{self.strategy_mix['both'] * 100:.0f}% both"
        )


@dataclass(frozen=True)
class BreakEvenReport:
    """Figures 17-18: break-even ad income for the free-with-ads strategy."""

    store: str
    day: int
    overall: float
    by_tier: Dict[str, float]
    by_category: Dict[str, float]
    over_time: List[Tuple[int, float]]

    def describe(self) -> str:
        """Headline line quoting the paper's $0.21 comparison point."""
        tiers = ", ".join(
            f"{name}: ${value:.3f}" for name, value in self.by_tier.items()
        )
        return (
            f"[{self.store}] average free app needs ${self.overall:.3f} "
            f"per download from ads to match a paid app ({tiers})"
        )


def free_app_records(
    database: SnapshotDatabase,
    store: str,
    day: Optional[int] = None,
    ad_flags: Optional[Dict[int, bool]] = None,
) -> List[FreeAppRecord]:
    """Free-app records with the APK-scan ad flag attached."""
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    if ad_flags is None:
        ad_flags = scan_store_for_ads(database, store).per_app
    columns = database.snapshot_columns(store, day)
    records: List[FreeAppRecord] = []
    if columns is not None:
        free = np.flatnonzero(is_free_price(columns.column("price")))
        categories = columns.category_names
        records = [
            FreeAppRecord(
                app_id=app_id,
                developer_id=developer_id,
                category=categories[category_id],
                downloads=downloads,
                has_ads=ad_flags.get(app_id, declares_ads),
            )
            for app_id, developer_id, category_id, downloads, declares_ads in zip(
                columns.app_ids[free].tolist(),
                columns.column("developer_id")[free].tolist(),
                columns.column("category_id")[free].tolist(),
                columns.column("total_downloads")[free].tolist(),
                columns.column("declares_ads")[free].tolist(),
            )
        ]
    if not records:
        raise ValueError(f"store {store!r} has no free apps")
    return records


def developer_strategy_report(
    database: SnapshotDatabase, store: str, day: Optional[int] = None
) -> DeveloperStrategyReport:
    """Figure 16 plus the free/paid/both strategy mix of Section 6.3."""
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day

    columns = database.snapshot_columns(store, day)
    if columns is None:
        raise ValueError(f"store {store!r} lacks one app population")
    developers = columns.column("developer_id")
    category_ids = columns.column("category_id")
    paid = columns.column("price") > 0

    def portfolio_ecdf(population: np.ndarray) -> Ecdf:
        if not population.any():
            raise ValueError(f"store {store!r} lacks one app population")
        _, apps = np.unique(developers[population], return_counts=True)
        return Ecdf.from_samples(apps.astype(np.float64))

    def categories_ecdf(population: np.ndarray) -> Ecdf:
        pairs = np.unique(
            np.column_stack([developers[population], category_ids[population]]),
            axis=0,
        )
        _, categories = np.unique(pairs[:, 0], return_counts=True)
        return Ecdf.from_samples(categories.astype(np.float64))

    free_developers = np.unique(developers[~paid])
    paid_developers = np.unique(developers[paid])
    both = np.intersect1d(free_developers, paid_developers, assume_unique=True).size
    n = max(1, free_developers.size + paid_developers.size - both)
    mix = {
        "free_only": (free_developers.size - both) / n,
        "paid_only": (paid_developers.size - both) / n,
        "both": both / n,
    }
    return DeveloperStrategyReport(
        store=store,
        apps_per_developer_free=portfolio_ecdf(~paid),
        apps_per_developer_paid=portfolio_ecdf(paid),
        categories_per_developer_free=categories_ecdf(~paid),
        categories_per_developer_paid=categories_ecdf(paid),
        strategy_mix=mix,
    )


def break_even_report(
    database: SnapshotDatabase,
    store: str,
    day: Optional[int] = None,
    time_points: int = 10,
) -> BreakEvenReport:
    """Figures 17 and 18 for one store.

    ``over_time`` recomputes the overall break-even income at up to
    ``time_points`` crawled days, showing the downward drift the paper
    observes (free-app downloads grow faster than paid).
    """
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day

    ad_flags = scan_store_for_ads(database, store).per_app
    average_prices = _average_prices(database, store)
    paid = _paid_records_on(database, store, day, average_prices)
    free = free_app_records(database, store, day, ad_flags=ad_flags)

    over_time: List[Tuple[int, float]] = []
    if time_points > 0:
        step = max(1, len(days) // time_points)
        for sample_day in days[::step]:
            try:
                paid_at = _paid_records_on(database, store, sample_day, average_prices)
                free_at = free_app_records(
                    database, store, sample_day, ad_flags=ad_flags
                )
                over_time.append(
                    (sample_day, break_even_ad_income(paid_at, free_at))
                )
            except (ValueError, ZeroDivisionError):
                continue

    return BreakEvenReport(
        store=store,
        day=day,
        overall=break_even_ad_income(paid, free),
        by_tier=break_even_by_popularity_tier(paid, free),
        by_category=break_even_by_category(paid, free),
        over_time=over_time,
    )
