"""Closed-form expected downloads under APP-CLUSTERING (Equation 5).

Section 5.1 of the paper derives the expected number of downloads for an
app with overall rank ``i`` and within-cluster rank ``j``.  Each user makes
``d`` downloads, of which ``(1 - p) * d`` are global-Zipf selections and
``p * d`` are cluster-Zipf selections; the probability that one user ends
up downloading the app is one minus the probability of missing it in all
of those selections:

    D(i, j) = U * [ 1 - (1 - P_G(i))^((1-p)*d) * (1 - P_c(j))^(p*d) ]

where ``P_G(i)`` is the global Zipf mass of rank ``i`` over ``A`` apps and
``P_c(j)`` the cluster Zipf mass of rank ``j`` over a cluster of size
``S_C`` (all clusters equal-sized in the analysis).  The per-user miss
probability treats selections as independent draws -- exactly the paper's
approximation; fetch-at-most-once appears through the "did the user ever
pick it" framing, which caps downloads at ``U``.

The corrected curve that the grid-search fits score is solved for a
whole (zr, zc, p) grid at once by :func:`corrected_curve_grid`, one
``zr`` slice at a time, with every bisection of a slice run as one row
of a 2-D array.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.models import AppClusteringParams
from repro.stats.zipf import generalized_harmonic, zipf_weights


def expected_downloads(
    params: AppClusteringParams,
    overall_rank,
    cluster_rank,
    cluster_size: Optional[int] = None,
) -> np.ndarray:
    """Expected downloads ``D(i, j)`` of Equation 5.

    Parameters
    ----------
    params:
        The model parameters (``U``, ``A``, ``D``, ``zr``, ``zc``, ``p``,
        ``C``).
    overall_rank:
        Overall rank ``i`` (1-based); scalar or array.
    cluster_rank:
        Within-cluster rank ``j`` (1-based); scalar or array broadcastable
        against ``overall_rank``.
    cluster_size:
        ``S_C``; defaults to the equal-size assumption ``A / C`` (rounded
        up so every cluster rank stays valid).

    Returns
    -------
    Expected download counts, clipped implicitly below ``U`` by the model
    structure.
    """
    i = np.asarray(overall_rank, dtype=np.float64)
    j = np.asarray(cluster_rank, dtype=np.float64)
    if np.any(i < 1) or np.any(i > params.n_apps):
        raise ValueError(f"overall ranks must lie in [1, {params.n_apps}]")

    if cluster_size is None:
        cluster_size = int(np.ceil(params.n_apps / params.n_clusters))
    if cluster_size < 1:
        raise ValueError("cluster_size must be positive")
    if np.any(j < 1) or np.any(j > cluster_size):
        raise ValueError(f"cluster ranks must lie in [1, {cluster_size}]")

    d = params.downloads_per_user
    global_mass = (i**-params.zr) / generalized_harmonic(params.n_apps, params.zr)
    cluster_mass = (j**-params.zc) / generalized_harmonic(cluster_size, params.zc)

    miss_global = (1.0 - global_mass) ** ((1.0 - params.p) * d)
    miss_cluster = (1.0 - cluster_mass) ** (params.p * d)
    hit_probability = 1.0 - miss_global * miss_cluster
    return params.n_users * hit_probability


def _cluster_rank_layout(params: AppClusteringParams):
    """Within-cluster ranks and cluster sizes from the cluster assignment.

    An app's within-cluster rank is its 1-based position among its
    cluster's apps in overall-rank order: a stable sort by cluster keeps
    that order inside each cluster's run, and a run starts after the
    apps of all lower-numbered clusters.
    """
    clusters = params.cluster_assignment()
    sizes = np.bincount(clusters)
    order = np.argsort(clusters, kind="stable")
    run_starts = np.cumsum(sizes) - sizes
    cluster_ranks = np.empty(clusters.size, dtype=np.int64)
    cluster_ranks[order] = (
        np.arange(clusters.size) - run_starts[clusters[order]] + 1
    )
    return clusters, cluster_ranks, sizes


def expected_download_curve(
    params: AppClusteringParams, cluster_size: Optional[int] = None
) -> np.ndarray:
    """Expected downloads for every app, ordered by overall rank (Eq. 5).

    Uses the model's cluster assignment to derive each app's within-cluster
    rank (apps of a cluster ordered by their overall rank), then evaluates
    :func:`expected_downloads` vectorized over all apps.  This is the
    paper's formula verbatim; see
    :func:`expected_download_curve_corrected` for the variant that also
    accounts for which cluster a clustered draw targets.
    """
    _, cluster_ranks, sizes = _cluster_rank_layout(params)
    if cluster_size is None:
        cluster_size = int(sizes.max())
    overall_ranks = np.arange(1, params.n_apps + 1)
    return expected_downloads(
        params, overall_ranks, cluster_ranks, cluster_size=cluster_size
    )


# Bisection of the Poissonized intensity: the bracket doubles from 1.0
# until it holds the budget, giving up past _MAX_INTENSITY, and is then
# halved a fixed number of times.
_MAX_INTENSITY = 1e18
_HALVINGS = 100


def _distinct_draw_rows(pmf: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Rows of :func:`distinct_draw_hit_probabilities`, solved together.

    Row ``r`` draws ``budgets[r]`` distinct items from ``pmf[r]``, or from
    the one shared ``pmf`` when it is 1-D; returns the ``(rows, items)``
    hit probabilities.  A row runs exactly the float operations of a
    lone bisection (``-expm1(-pmf * t)``, its row sum, ``(low + high) /
    2.0``), and numpy reduces each C-contiguous row with the same
    pairwise summation as a 1-D array, so a row's result is bit-identical
    to solving it alone.
    """
    if not np.all(np.isfinite(pmf)) or np.any(pmf < 0):
        raise ValueError("pmf entries must be finite and non-negative")
    if np.any(budgets < 0):
        raise ValueError("budget must be non-negative")
    positive = np.broadcast_to(pmf > 0, (budgets.size, pmf.shape[-1]))
    # A budget at or above the positive-mass count draws every such item.
    saturated = budgets >= positive.sum(axis=1)
    hits = np.where(saturated[:, None], positive, 0.0)
    solve = (budgets > 0) & ~saturated
    if solve.any():
        neg_pmf = -(pmf[solve] if pmf.ndim == 2 else pmf)
        hits[solve] = _bisect_intensity(neg_pmf, budgets[solve])
    return hits


def _bisect_intensity(neg_pmf: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Hit probabilities at the intensity ``T`` with ``budgets`` expected
    distinct draws, one row per budget; ``neg_pmf`` is ``-pmf``."""

    def expected_distinct(t: np.ndarray) -> np.ndarray:
        return -np.expm1(neg_pmf * t[:, None]).sum(axis=1)

    high = np.ones(budgets.size)
    short = expected_distinct(high) < budgets
    while short.any():
        if np.any(high[short] > _MAX_INTENSITY):
            raise ValueError(
                "budget out of reach: the pmf yields fewer distinct draws "
                f"than asked even at intensity {_MAX_INTENSITY:g}"
            )
        high[short] *= 2.0
        short = expected_distinct(high) < budgets
    low = np.zeros(budgets.size)
    for _ in range(_HALVINGS):
        mid = (low + high) / 2.0
        below = expected_distinct(mid) < budgets
        low = np.where(below, mid, low)
        high = np.where(below, high, mid)
    t_solution = (low + high) / 2.0
    return -np.expm1(neg_pmf * t_solution[:, None])


def distinct_draw_hit_probabilities(pmf: np.ndarray, budget: float) -> np.ndarray:
    """Per-item inclusion probability of ``budget`` distinct weighted draws.

    Models sampling *without replacement*: drawing until ``budget``
    distinct items have been collected from a categorical distribution
    ``pmf`` (which is what the simulators' rejection loops implement).
    Uses the standard Poissonization approximation: item ``j`` is included
    with probability ``1 - exp(-pmf_j * T)`` where ``T`` solves
    ``sum_j (1 - exp(-pmf_j * T)) = budget``.  ``T`` is found by bisection
    (the left side is strictly increasing in ``T``).

    A budget at or above the number of positive-mass items returns the
    0/1 indicator of positive mass.  A budget the pmf cannot reach below
    intensity ``1e18`` (items of vanishing mass) raises ``ValueError``, as
    do negative or non-finite pmf entries.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size == 0:
        raise ValueError("pmf must be a non-empty 1-D array")
    return _distinct_draw_rows(pmf, np.array([float(budget)]))[0]


def corrected_curve_grid(
    params: AppClusteringParams,
    zr_grid: Sequence[float],
    zc_grid: Sequence[float],
    p_grid: Sequence[float],
) -> Iterator[Tuple[AppClusteringParams, np.ndarray]]:
    """:func:`expected_download_curve_corrected` over a parameter grid.

    ``params`` gives the population (``A``, ``U``, ``D`` and the cluster
    map); yields ``(point, curve)`` for every ``(zr, zc, p)`` in
    ``itertools.product`` order, where ``point`` is ``params`` with that
    grid point's exponents and ``p``.  Each curve is bit-identical to
    solving its point alone.

    The grid is walked one ``zr`` slice at a time, so the working set
    stays at a few ``len(p_grid) * n_apps`` arrays plus the cluster rows:

    - the global bisections of the slice (one per ``p``) run as the rows
      of one 2-D array;
    - within-cluster ranks are always ``1..size``, so all clusters of one
      size share one pmf and one budget: the cluster bisections run once
      per (distinct size, ``zc``, ``p``), as the rows of one array per
      size (round-robin clusters have at most two sizes).
    """
    points = [
        replace(params, zr=zr, zc=zc, p=p)
        for zr, zc, p in itertools.product(zr_grid, zc_grid, p_grid)
    ]
    if not points:
        return
    n_zc, n_p = len(zc_grid), len(p_grid)
    clusters, cluster_ranks, sizes = _cluster_rank_layout(params)
    n_apps = params.n_apps
    extra_downloads = max(params.downloads_per_user - 1.0, 0.0)
    global_budgets = np.array(
        [min(float(n_apps), 1.0 + (1.0 - p) * extra_downloads) for p in p_grid]
    )
    cluster_budget_totals = np.array([p * extra_downloads for p in p_grid])

    # One pmf row per (size, zc), repeated for each p; each app reads its
    # hit probability from its size's block at its within-cluster rank.
    size_values = np.unique(sizes[sizes > 0])
    cluster_pmfs = []
    for size in size_values:
        weights = np.stack([zipf_weights(size, zc) for zc in zc_grid])
        pmfs = weights / weights.sum(axis=1, keepdims=True)
        cluster_pmfs.append(np.repeat(pmfs, n_p, axis=0))
    block_starts = np.cumsum(size_values) - size_values
    app_column = (
        block_starts[np.searchsorted(size_values, sizes[clusters])]
        + cluster_ranks
        - 1
    )
    p_rows = np.arange(n_p)[:, None]

    product_order = iter(points)
    for zr in zr_grid:
        global_mass = zipf_weights(n_apps, zr) / generalized_harmonic(n_apps, zr)
        hit_global = _distinct_draw_rows(global_mass, global_budgets)

        # Visit probability per cluster: 1 - prod over members of their
        # global miss probabilities (exact under the Poissonized process).
        log_miss = np.log(np.clip(1.0 - hit_global, 1e-300, 1.0))
        cluster_log_miss = np.zeros((n_p, sizes.size), dtype=np.float64)
        np.add.at(cluster_log_miss, (p_rows, clusters), log_miss)
        visit_probability = 1.0 - np.exp(cluster_log_miss)
        expected_visited = np.maximum(visit_probability.sum(axis=1), 1.0)
        per_cluster_budget = cluster_budget_totals / expected_visited

        hit_table = np.concatenate(
            [
                _distinct_draw_rows(
                    pmfs, np.tile(np.minimum(float(size), per_cluster_budget), n_zc)
                ).reshape(n_zc, n_p, size)
                for size, pmfs in zip(size_values, cluster_pmfs)
            ],
            axis=2,
        )
        miss_global = 1.0 - hit_global
        visit = visit_probability[:, clusters]
        for hit_cluster_rows in hit_table:
            hit_cluster = hit_cluster_rows[:, app_column]
            curves = params.n_users * (1.0 - miss_global * (1.0 - visit * hit_cluster))
            for curve in curves:
                yield next(product_order), curve


def expected_download_curve_corrected(
    params: AppClusteringParams,
) -> np.ndarray:
    """Mean-field expected downloads with cluster-visit correction.

    Equation 5 treats all ``p * d`` clustered selections of a user as
    independent draws from the *target app's own* cluster.  In the actual
    process (Section 5.1) two things differ: the cluster is chosen
    uniformly among the clusters the user has previously *visited* (so
    only visitors of cluster ``c`` ever draw from ``Zc``, splitting their
    clustered budget across visited clusters), and fetch-at-most-once
    turns every draw into a *distinct* selection (rejected repeats are
    resampled).  The paper compensates by fitting through simulation; this
    corrected closed form tracks the Monte Carlo output closely and makes
    grid-search fitting cheap.

    The construction, per user with ``d`` downloads:

    - global selections: ``g = 1 + (1 - p) * (d - 1)`` distinct draws from
      ``ZG`` (the first download plus the non-clustered remainder), with
      per-app hit probabilities from
      :func:`distinct_draw_hit_probabilities`;
    - cluster visits: under the same Poissonized global process, cluster
      ``c`` is visited with probability ``v_c = 1 - exp(-Q_c * T)`` where
      ``Q_c`` is the cluster's global-mass share of the solved intensity;
    - clustered selections: the ``p * (d - 1)`` clustered draws split
      evenly over the ``m = sum_c v_c`` expected visited clusters, giving
      ``k = p * (d - 1) / m`` distinct within-cluster draws for each
      visited cluster;
    - an app ``(i, j)`` in cluster ``c`` is downloaded unless it is missed
      both globally and in its cluster:
      ``P = 1 - (1 - hit_G(i)) * (1 - v_c * hit_c(j))``.

    This is the one-point case of :func:`corrected_curve_grid`.
    """
    ((_, curve),) = corrected_curve_grid(
        params, (params.zr,), (params.zc,), (params.p,)
    )
    return curve


def expected_zipf_at_most_once(
    n_apps: int, n_users: int, total_downloads: int, zr: float
) -> np.ndarray:
    """Expected downloads per rank under ZIPF-at-most-once.

    The same hit-probability argument with ``p = 0``: a user making ``d``
    global draws downloads rank ``i`` with probability
    ``1 - (1 - P_G(i))**d``, and downloads saturate at ``U``.  This is the
    Gummadi-style fetch-at-most-once curve the paper compares against.
    """
    if n_apps < 1 or n_users < 1:
        raise ValueError("n_apps and n_users must be positive")
    if total_downloads < 0:
        raise ValueError("total_downloads must be non-negative")
    d = total_downloads / n_users
    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    mass = ranks**-zr / generalized_harmonic(n_apps, zr)
    return n_users * (1.0 - (1.0 - mass) ** d)


def expected_zipf(n_apps: int, total_downloads: int, zr: float) -> np.ndarray:
    """Expected downloads per rank under the unconstrained ZIPF model."""
    if n_apps < 1:
        raise ValueError("n_apps must be positive")
    if total_downloads < 0:
        raise ValueError("total_downloads must be non-negative")
    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    mass = ranks**-zr / generalized_harmonic(n_apps, zr)
    return total_downloads * mass
