"""Developer income analysis (Figures 13, 14, and 15 of the paper).

Section 6.2 estimates each developer's income from paid apps (purchases
times average price), then looks at three things: the income distribution
across developers (most earn almost nothing, a tiny fraction earns
millions), the relation between portfolio size and income (none -- quality
over quantity), and the concentration of revenue in a few categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.pricing_study import _average_prices
from repro.core.revenue import (
    PaidAppRecord,
    category_breakdown,
    developer_incomes,
    income_quantity_correlation,
)
from repro.crawler.database import SnapshotDatabase
from repro.stats.correlation import CorrelationResult, pearson
from repro.stats.distributions import Ecdf


@dataclass(frozen=True)
class IncomeReport:
    """Figures 13-15 material for one store."""

    store: str
    day: int
    paid_apps: List[PaidAppRecord]
    incomes: Dict[int, float]
    income_ecdf: Ecdf
    apps_vs_income: Tuple[np.ndarray, np.ndarray]
    apps_income_correlation: CorrelationResult
    category_rows: List[Tuple[str, float, float, float]]

    @property
    def total_revenue(self) -> float:
        """Gross revenue of all paid apps."""
        return float(sum(app.revenue for app in self.paid_apps))

    @property
    def average_paid_revenue(self) -> float:
        """Average revenue per paid app (the paper reports $3.9)."""
        if not self.paid_apps:
            return 0.0
        return self.total_revenue / len(self.paid_apps)

    def fraction_below(self, income: float) -> float:
        """Share of developers earning at most ``income`` dollars."""
        return float(self.income_ecdf(income))

    def describe(self) -> str:
        """Headline numbers in the style of the paper's Section 6.2."""
        return (
            f"[{self.store}] {len(self.incomes)} developers with paid apps; "
            f"{self.fraction_below(10) * 100:.0f}% earned <= $10, "
            f"{self.fraction_below(100) * 100:.0f}% <= $100; "
            f"Pearson(#apps, income) = "
            f"{self.apps_income_correlation.coefficient:+.3f}; "
            f"top category holds {self.category_rows[0][1]:.1f}% of revenue "
            f"({self.category_rows[0][0]})"
        )


def paid_app_records(
    database: SnapshotDatabase, store: str, day: Optional[int] = None
) -> List[PaidAppRecord]:
    """Paid-app revenue records from crawled snapshots.

    Downloads are the cumulative purchases at ``day`` (default: the last
    crawled day); the price is the average observed price over the crawl,
    as in the paper.
    """
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    return _paid_records_on(database, store, day, _average_prices(database, store))


def _paid_records_on(
    database: SnapshotDatabase,
    store: str,
    day: int,
    average_prices: Tuple[np.ndarray, np.ndarray],
) -> List[PaidAppRecord]:
    """``paid_app_records`` on one crawled day, given the crawl-average
    prices ``_average_prices(database, store)``: a caller that samples
    many days computes them once."""
    columns = database.snapshot_columns(store, day)
    if columns is None:
        raise ValueError(f"store {store!r} has no paid apps")
    all_app_ids, averages = average_prices
    positions = np.searchsorted(all_app_ids, columns.app_ids)
    day_prices = averages[positions]
    paid_rows = np.flatnonzero(day_prices > 0)
    categories = columns.category_names
    records = [
        PaidAppRecord(
            app_id=app_id,
            developer_id=developer_id,
            category=categories[category_id],
            price=price,
            downloads=downloads,
        )
        for app_id, developer_id, category_id, price, downloads in zip(
            columns.app_ids[paid_rows].tolist(),
            columns.column("developer_id")[paid_rows].tolist(),
            columns.column("category_id")[paid_rows].tolist(),
            day_prices[paid_rows].tolist(),
            columns.column("total_downloads")[paid_rows].tolist(),
        )
    ]
    if not records:
        raise ValueError(f"store {store!r} has no paid apps")
    return records


def income_report(
    database: SnapshotDatabase,
    store: str,
    day: Optional[int] = None,
    commission: float = 0.0,
) -> IncomeReport:
    """Run the full Section 6.2 analysis on one store."""
    records = paid_app_records(database, store, day)
    days = database.days(store)
    day = days[-1] if day is None else day
    incomes = developer_incomes(records, commission=commission)
    income_values = np.array(list(incomes.values()), dtype=np.float64)
    counts, totals = income_quantity_correlation(records)
    return IncomeReport(
        store=store,
        day=day,
        paid_apps=records,
        incomes=incomes,
        income_ecdf=Ecdf.from_samples(income_values),
        apps_vs_income=(counts, totals),
        apps_income_correlation=pearson(counts, totals),
        category_rows=category_breakdown(records),
    )
