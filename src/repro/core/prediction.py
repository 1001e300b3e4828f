"""Download forecasting from the fitted model (Section 7 implication).

The paper's implications include: "Our model of app downloads can be
used by appstores to estimate future app downloads based on app
popularity.  This will enable appstores to pinpoint problematic apps."

This module implements that estimator.  Given a crawled history up to a
reference day, it:

1. fits the APP-CLUSTERING model to the reference-day rank curve;
2. scales the model population forward to a target day (the per-user
   budget grows with the store's observed daily download volume);
3. predicts each rank's future downloads from the corrected analytical
   curve;
4. flags *problematic apps*: apps whose observed growth trails far
   behind the model's prediction for their rank -- the candidates the
   paper suggests appstores should "favor through better
   recommendations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.model_validation import observed_rank_curve
from repro.core.analytical import expected_download_curve_corrected
from repro.core.fitting import FitResult, fit_model, mean_relative_error
from repro.core.models import AppClusteringParams, ModelKind
from repro.crawler.database import SnapshotDatabase


@dataclass(frozen=True)
class DownloadForecast:
    """A rank-level forecast of future downloads."""

    store: str
    reference_day: int
    target_day: int
    fit: FitResult
    predicted_curve: np.ndarray
    observed_reference: np.ndarray

    @property
    def horizon_days(self) -> int:
        """Days between the reference and target day."""
        return self.target_day - self.reference_day

    def predicted_total(self) -> float:
        """Predicted store-wide downloads at the target day."""
        return float(self.predicted_curve.sum())

    def evaluate(self, observed_target: np.ndarray) -> float:
        """Equation-6 distance between forecast and realized rank curve.

        ``observed_target`` is the per-app downloads at the target day
        (any order; rank-sorted internally).  Curves are compared over
        the common rank range.
        """
        observed = np.sort(np.asarray(observed_target, dtype=np.float64))[::-1]
        n = min(observed.size, self.predicted_curve.size)
        return mean_relative_error(observed[:n], self.predicted_curve[:n])


@dataclass(frozen=True)
class ProblematicApp:
    """An app growing far below the model's expectation for its rank."""

    app_id: int
    rank: int
    observed_growth: int
    expected_growth: float

    @property
    def shortfall(self) -> float:
        """Expected minus observed growth, in downloads."""
        return self.expected_growth - self.observed_growth


def forecast_downloads(
    database: SnapshotDatabase,
    store: str,
    reference_day: Optional[int] = None,
    target_day: Optional[int] = None,
    n_clusters: int = 30,
    **grid_overrides,
) -> DownloadForecast:
    """Fit APP-CLUSTERING at ``reference_day`` and extrapolate.

    Defaults: the reference is the first crawled day, the target the
    last, so the forecast can be validated against the crawl itself.
    The extrapolation scales the model's total downloads by the ratio of
    target-day to reference-day volume, estimated from the crawled daily
    growth.
    """
    days = database.days(store)
    if len(days) < 2:
        raise ValueError(f"store {store!r} needs at least two crawled days")
    reference_day = days[0] if reference_day is None else reference_day
    target_day = days[-1] if target_day is None else target_day
    if target_day <= reference_day:
        raise ValueError("target_day must be after reference_day")

    observed = observed_rank_curve(database, store, reference_day)
    n_users = int(observed[0])
    fit = fit_model(
        ModelKind.APP_CLUSTERING,
        observed,
        n_users=n_users,
        n_clusters=n_clusters,
        **grid_overrides,
    )

    # Volume scaling: grow total downloads by the observed per-day rate
    # between the two nearest crawled days after the reference.
    reference_total = float(observed.sum())
    later_days = [d for d in days if d > reference_day]
    if later_days:
        next_day = later_days[0]
        next_total = float(observed_rank_curve(database, store, next_day).sum())
        daily_growth = max(0.0, (next_total - reference_total)) / max(
            1, next_day - reference_day
        )
    else:
        daily_growth = 0.0
    target_total = reference_total + daily_growth * (target_day - reference_day)

    # Users scale with volume too (new users keep arriving); the paper's
    # Figure 10 heuristic (U ~ top-app downloads) is preserved by scaling
    # both with the same factor.
    scale = target_total / reference_total if reference_total > 0 else 1.0
    params = AppClusteringParams(
        n_apps=observed.size,
        n_users=max(1, int(round(n_users * scale))),
        total_downloads=max(1, int(round(target_total))),
        zr=fit.zr,
        zc=fit.zc if fit.zc is not None else 1.4,
        p=fit.p if fit.p is not None else 0.9,
        n_clusters=n_clusters,
    )
    predicted = np.sort(expected_download_curve_corrected(params))[::-1]
    return DownloadForecast(
        store=store,
        reference_day=reference_day,
        target_day=target_day,
        fit=fit,
        predicted_curve=predicted,
        observed_reference=observed,
    )


def find_problematic_apps(
    database: SnapshotDatabase,
    forecast: DownloadForecast,
    shortfall_factor: float = 4.0,
    min_expected_growth: float = 5.0,
) -> List[ProblematicApp]:
    """Apps whose growth trails the model's expectation for their rank.

    ``forecast`` is the store's :func:`forecast_downloads`; the window
    runs from its reference day to its target day.  An app is
    *problematic* when its observed download growth over the window is
    more than ``shortfall_factor`` times below the growth the fitted
    model predicts for its popularity rank (and that prediction is at
    least ``min_expected_growth`` downloads, so noise-level apps are not
    flagged).  These are the apps the paper suggests the store should
    surface through recommendations.
    """
    if shortfall_factor <= 1.0:
        raise ValueError("shortfall_factor must exceed 1")
    start = database.snapshot_columns(forecast.store, forecast.reference_day)
    end = database.snapshot_columns(forecast.store, forecast.target_day)
    if start is None:
        return []
    app_ids = start.app_ids
    start_downloads = start.column("total_downloads")
    # Growth over the window; an app missing on the target day has none.
    growth = np.zeros(app_ids.size, dtype=np.int64)
    if end is not None and end.n_rows:
        positions = np.minimum(np.searchsorted(end.app_ids, app_ids), end.n_rows - 1)
        found = end.app_ids[positions] == app_ids
        growth[found] = (
            end.column("total_downloads")[positions[found]] - start_downloads[found]
        )
    # Rank apps by their reference-day downloads to map onto the curve,
    # ties in app-id order: a stable ascending sort of the reversed
    # column, read backwards, is a stable descending sort.
    n_ranked = min(app_ids.size, forecast.predicted_curve.size)
    ranked = (
        app_ids.size - 1 - np.argsort(start_downloads[::-1], kind="stable")[::-1]
    )[:n_ranked]
    expected_growth = (
        forecast.predicted_curve[:n_ranked] - forecast.observed_reference[:n_ranked]
    )
    observed_growth = growth[ranked]
    flagged = np.flatnonzero(
        ~(expected_growth < min_expected_growth)
        & (observed_growth * shortfall_factor < expected_growth)
    )
    problematic = [
        ProblematicApp(
            app_id=app_id,
            rank=rank_index + 1,
            observed_growth=observed,
            expected_growth=expected,
        )
        for app_id, rank_index, observed, expected in zip(
            app_ids[ranked[flagged]].tolist(),
            flagged.tolist(),
            observed_growth[flagged].tolist(),
            expected_growth[flagged].tolist(),
        )
    ]
    problematic.sort(key=lambda app: app.shortfall, reverse=True)
    return problematic
