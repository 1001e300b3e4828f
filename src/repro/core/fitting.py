"""Model-fit distance and grid-search parameter fitting (Section 5.2).

The paper tunes each model's parameters by simulating with every parameter
combination of a grid and keeping the combination whose simulated per-app
downloads lie closest to the measured downloads under the mean relative
error distance (Equation 6):

    distance = (1/A) * sum_i |D_o(i) - D_s(i)| / D_o(i)

where ``D_o(i)`` and ``D_s(i)`` are the observed and simulated downloads of
the app with overall rank ``i``.

Fitting on raw Monte Carlo output is noisy and slow, so :func:`fit_model`
fits against the analytical expectation curves (Equation 5 and its ZIPF /
ZIPF-at-most-once specializations) by default and optionally re-simulates
the winner for the final report, which is how the benchmarks regenerate
Figures 8-10 quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analytical import (
    corrected_curve_grid,
    expected_zipf,
    expected_zipf_at_most_once,
)
from repro.core.models import (
    AppClusteringModel,
    AppClusteringParams,
    ModelKind,
    ZipfAtMostOnceModel,
    ZipfModel,
)
from repro.stats.rng import SeedLike


def mean_relative_error(observed, simulated) -> float:
    """The paper's distance metric (Equation 6).

    Apps with zero observed downloads are excluded from the average (the
    relative error is undefined there); the paper's rank curves never
    include zero-download observations because crawled totals grow from a
    positive history.
    """
    observed = np.asarray(observed, dtype=np.float64)
    simulated = np.asarray(simulated, dtype=np.float64)
    if observed.shape != simulated.shape:
        raise ValueError(
            f"shape mismatch: {observed.shape} vs {simulated.shape}"
        )
    if observed.ndim != 1 or observed.size == 0:
        raise ValueError("inputs must be non-empty 1-D arrays")
    if np.any(observed < 0) or np.any(simulated < 0):
        raise ValueError("download counts must be non-negative")
    mask = observed > 0
    if not mask.any():
        raise ValueError("observed downloads are all zero")
    relative_errors = np.abs(observed[mask] - simulated[mask]) / observed[mask]
    return float(relative_errors.mean())


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one model against an observed rank curve."""

    kind: ModelKind
    distance: float
    zr: float
    zc: Optional[float] = None
    p: Optional[float] = None
    predicted: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        """Short human-readable parameter summary, Figure-8 style."""
        parts = [f"zr={self.zr:g}"]
        if self.p is not None:
            parts.append(f"p={self.p:g}")
        if self.zc is not None:
            parts.append(f"zc={self.zc:g}")
        return f"{self.kind.value} ({', '.join(parts)}): distance={self.distance:.3f}"


# Default parameter grids, covering the ranges the paper reports as best
# fits (zr in 1.2-1.7, zc in 1.4-1.5, p in 0.9-0.95) with margin.
DEFAULT_ZR_GRID: Tuple[float, ...] = (
    0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 2.0,
)
DEFAULT_ZC_GRID: Tuple[float, ...] = (1.0, 1.2, 1.4, 1.5, 1.6, 1.8)
DEFAULT_P_GRID: Tuple[float, ...] = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


def _sorted_observed(observed) -> np.ndarray:
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 1 or observed.size == 0:
        raise ValueError("observed must be a non-empty 1-D array")
    return np.sort(observed)[::-1]


def fit_model(
    kind: ModelKind,
    observed_downloads,
    n_users: int,
    n_clusters: int = 30,
    zr_grid: Sequence[float] = DEFAULT_ZR_GRID,
    zc_grid: Sequence[float] = DEFAULT_ZC_GRID,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
) -> FitResult:
    """Grid-search the best parameters of one model for an observed curve.

    ``observed_downloads`` is the per-app total downloads (any order; it is
    rank-sorted internally).  ``n_users`` is the simulated population size;
    per Figure 10 a good default is the download count of the most popular
    app.  Returns the parameter combination minimizing Equation 6, with the
    winning predicted curve attached.
    """
    observed = _sorted_observed(observed_downloads)
    n_apps = observed.size
    total_downloads = int(observed.sum())
    if n_users < 1:
        raise ValueError("n_users must be positive")

    best: Optional[FitResult] = None
    if kind == ModelKind.ZIPF:
        for zr in zr_grid:
            predicted = expected_zipf(n_apps, total_downloads, zr)
            distance = mean_relative_error(observed, predicted)
            if best is None or distance < best.distance:
                best = FitResult(kind=kind, distance=distance, zr=zr, predicted=predicted)
    elif kind == ModelKind.ZIPF_AT_MOST_ONCE:
        for zr in zr_grid:
            predicted = expected_zipf_at_most_once(
                n_apps, n_users, total_downloads, zr
            )
            distance = mean_relative_error(observed, predicted)
            if best is None or distance < best.distance:
                best = FitResult(kind=kind, distance=distance, zr=zr, predicted=predicted)
    elif kind == ModelKind.APP_CLUSTERING:
        population = AppClusteringParams(
            n_apps=n_apps,
            n_users=n_users,
            total_downloads=total_downloads,
            n_clusters=n_clusters,
        )
        for point, curve in corrected_curve_grid(population, zr_grid, zc_grid, p_grid):
            predicted = np.sort(curve)[::-1]
            distance = mean_relative_error(observed, predicted)
            if best is None or distance < best.distance:
                best = FitResult(
                    kind=kind,
                    distance=distance,
                    zr=point.zr,
                    zc=point.zc,
                    p=point.p,
                    predicted=predicted,
                )
    else:
        raise ValueError(f"unknown model kind: {kind!r}")
    assert best is not None  # grids are non-empty
    return best


def fit_all_models(
    observed_downloads,
    n_users: int,
    n_clusters: int = 30,
    **grid_overrides,
) -> Dict[ModelKind, FitResult]:
    """Fit all three models; the Figure-9 comparison in one call."""
    return {
        kind: fit_model(
            kind, observed_downloads, n_users, n_clusters=n_clusters, **grid_overrides
        )
        for kind in ModelKind
    }


def simulate_fitted(
    fit: FitResult,
    n_apps: int,
    n_users: int,
    total_downloads: int,
    n_clusters: int = 30,
    seed: SeedLike = None,
) -> np.ndarray:
    """Run the Monte Carlo simulator at a fit's parameters.

    Used to confirm that the analytically fitted parameters reproduce the
    observed curve when actually simulated (the paper's validation loop).
    Returns rank-sorted simulated downloads.
    """
    if fit.kind == ModelKind.ZIPF:
        counts = ZipfModel(n_apps, fit.zr).simulate(n_users, total_downloads, seed=seed)
    elif fit.kind == ModelKind.ZIPF_AT_MOST_ONCE:
        counts = ZipfAtMostOnceModel(n_apps, fit.zr).simulate(
            n_users, total_downloads, seed=seed
        )
    else:
        params = AppClusteringParams(
            n_apps=n_apps,
            n_users=n_users,
            total_downloads=total_downloads,
            zr=fit.zr,
            zc=fit.zc if fit.zc is not None else 1.4,
            p=fit.p if fit.p is not None else 0.9,
            n_clusters=n_clusters,
        )
        counts = AppClusteringModel(params).simulate(seed=seed)
    return np.sort(counts.astype(np.float64))[::-1]


def user_count_sweep(
    observed_downloads,
    user_fractions: Sequence[float],
    n_clusters: int = 30,
    zr_grid: Sequence[float] = DEFAULT_ZR_GRID,
    zc_grid: Sequence[float] = DEFAULT_ZC_GRID,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
) -> List[Tuple[float, float]]:
    """Figure 10: distance as a function of the assumed user count.

    ``user_fractions`` are candidate user counts expressed as fractions of
    the most popular app's downloads (the paper sweeps 0.1x to 50x).
    Returns (fraction, best APP-CLUSTERING distance) pairs.
    """
    observed = _sorted_observed(observed_downloads)
    top_app_downloads = float(observed[0])
    if top_app_downloads <= 0:
        raise ValueError("most popular app must have positive downloads")
    results: List[Tuple[float, float]] = []
    for fraction in user_fractions:
        if fraction <= 0:
            raise ValueError("user fractions must be positive")
        n_users = max(1, int(round(fraction * top_app_downloads)))
        fit = fit_model(
            ModelKind.APP_CLUSTERING,
            observed,
            n_users=n_users,
            n_clusters=n_clusters,
            zr_grid=zr_grid,
            zc_grid=zc_grid,
            p_grid=p_grid,
        )
        results.append((float(fraction), fit.distance))
    return results
