"""Extension: forecasting downloads from the fitted model (Section 7).

The paper's implications propose using the download model "to estimate
future app downloads based on app popularity" and "pinpoint problematic
apps".  This bench fits APP-CLUSTERING on each store's *first* crawled
day, extrapolates to the *last* day, and validates against the realized
curve -- then flags the apps growing far below their rank's expectation.

Expected shapes: the forecast's Equation-6 distance to the realized
curve stays small (comparable to the same-day fit quality), the
predicted totals land in the right ballpark, and the flagged apps are a
small minority.
"""

import numpy as np
from conftest import emit

from repro.core.prediction import find_problematic_apps, forecast_downloads
from repro.reporting.tables import render_table

STORES = ("appchina", "anzhi", "1mobile")


def run_forecasts(database):
    results = []
    for store in STORES:
        forecast = forecast_downloads(database, store)
        observed = database.download_vector(store, forecast.target_day).astype(
            float
        )
        distance = forecast.evaluate(observed[observed > 0])
        problematic = find_problematic_apps(database, forecast)
        n_apps = observed[observed > 0].size
        results.append(
            (
                store,
                forecast.horizon_days,
                forecast.predicted_total(),
                float(observed.sum()),
                distance,
                len(problematic),
                n_apps,
            )
        )
    return results


def render_forecasts(results) -> str:
    rows = [
        [
            store,
            horizon,
            round(predicted, 0),
            round(realized, 0),
            round(distance, 3),
            flagged,
            round(100.0 * flagged / n_apps, 1),
        ]
        for store, horizon, predicted, realized, distance, flagged, n_apps in results
    ]
    return render_table(
        [
            "store",
            "horizon (days)",
            "predicted total",
            "realized total",
            "Eq.6 distance",
            "problematic apps",
            "flagged (%)",
        ],
        rows,
        title="Forecast: first-day fit extrapolated to the last crawled day",
    )


def test_forecast_downloads(benchmark, database, results_dir):
    results = benchmark.pedantic(
        run_forecasts, args=(database,), rounds=1, iterations=1
    )
    emit(results_dir, "forecast", render_forecasts(results))

    for store, horizon, predicted, realized, distance, flagged, n_apps in results:
        assert horizon > 0, store
        # Totals in the right ballpark (within 2x either way).
        assert 0.5 < predicted / realized < 2.0, store
        # The rank-curve forecast is usable (the same-day fits in
        # Figure 8 land at 0.05-0.12; allow headroom for the horizon).
        assert distance < 0.8, store
        # Problematic apps are a minority, not the population.
        assert flagged < 0.3 * n_apps, store