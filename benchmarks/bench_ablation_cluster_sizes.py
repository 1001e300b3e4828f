"""Ablation: equal-size clusters vs. empirically skewed cluster sizes.

The paper's analytical model assumes all clusters have the same size
("For simplicity we assume that all C clusters have the same size").
Real taxonomies are skewed (Figure 5(d)).  This ablation compares the
rank-curve shape and fit quality under both assumptions.

Expected shapes: both produce the doubly truncated curve; the skewed
assignment concentrates slightly harder (bigger head, thinner tail), and
the equal-size analytical fit remains a good approximation for both.
"""

import numpy as np
from conftest import emit

from repro.core.fitting import fit_model
from repro.core.models import AppClusteringModel, AppClusteringParams, ModelKind
from repro.core.pareto import pareto_summary
from repro.marketplace.catalog import default_taxonomy
from repro.reporting.tables import render_table
from repro.stats.rng import make_rng

N_APPS = 2000
N_CLUSTERS = 25
BASE = dict(
    n_apps=N_APPS,
    n_users=2500,
    total_downloads=30_000,
    zr=1.6,
    zc=1.4,
    p=0.9,
)


def skewed_assignment() -> tuple:
    taxonomy = default_taxonomy(N_CLUSTERS, seed=3)
    counts = taxonomy.app_counts(N_APPS)
    assignment = np.repeat(np.arange(N_CLUSTERS), counts)
    rng = make_rng(4)
    rng.shuffle(assignment)
    return tuple(int(c) for c in assignment)


def run_cluster_size_ablation():
    rows = []
    for label, cluster_of in (
        ("equal (round-robin)", None),
        ("skewed (taxonomy)", skewed_assignment()),
    ):
        params = AppClusteringParams(
            n_clusters=N_CLUSTERS, cluster_of=cluster_of, **BASE
        )
        counts = AppClusteringModel(params).simulate(seed=5).astype(float)
        summary = pareto_summary(counts[counts > 0])
        fit = fit_model(
            ModelKind.APP_CLUSTERING,
            np.sort(counts)[::-1],
            n_users=BASE["n_users"],
            n_clusters=N_CLUSTERS,
            zr_grid=(1.4, 1.6, 1.8),
            zc_grid=(1.2, 1.4),
            p_grid=(0.9,),
        )
        rows.append(
            (
                label,
                summary.share_top_10pct,
                summary.gini,
                float(np.mean(counts > 0)),
                fit.distance,
            )
        )
    return rows


def render_cluster_size_ablation(rows) -> str:
    return render_table(
        [
            "cluster sizes",
            "top 10% share",
            "gini",
            "apps with >=1 download",
            "equal-size analytic fit distance",
        ],
        [
            [label, round(top, 3), round(gini, 3), round(touched, 3), round(distance, 3)]
            for label, top, gini, touched, distance in rows
        ],
        title="Ablation: equal vs skewed cluster sizes",
    )


def test_ablation_cluster_sizes(benchmark, results_dir):
    rows = benchmark.pedantic(run_cluster_size_ablation, rounds=1, iterations=1)
    emit(results_dir, "ablation_cluster_sizes", render_cluster_size_ablation(rows))

    by_label = {label: values for label, *values in rows}
    equal = by_label["equal (round-robin)"]
    skewed = by_label["skewed (taxonomy)"]
    # Both regimes stay strongly concentrated.
    assert equal[0] > 0.5 and skewed[0] > 0.5
    # The equal-size analytical fit remains usable for both (the paper's
    # simplification is benign): distances stay in the same ballpark.
    assert skewed[3] < 3 * max(equal[3], 0.05)
