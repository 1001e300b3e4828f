"""Property-based exactness tests for the batched APP-CLUSTERING solver.

:func:`repro.core.analytical.corrected_curve_grid` solves a whole fit
grid as rows of 2-D bisections, with equal-size clusters sharing one
bisection.  Its contract is that every curve, hit probability and fit is
bit-identical to solving each grid point alone, one bisection per
cluster.  A miniature copy of that per-point algorithm (a scalar
bisection loop, a per-cluster loop, a per-app rank loop and the
per-point grid search) lives in this test as the reference; hypothesis
drives both with arbitrary populations, cluster maps and grids.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analytical import (
    distinct_draw_hit_probabilities,
    expected_download_curve_corrected,
)
from repro.core.fitting import fit_model, mean_relative_error
from repro.core.models import AppClusteringParams, ModelKind
from repro.stats.zipf import generalized_harmonic


def reference_hits(pmf, budget):
    """Inclusion probabilities of ``budget`` distinct draws, one scalar
    bisection at a time."""
    n = pmf.size
    if budget <= 0:
        return np.zeros(n)
    if budget >= n:
        return np.ones(n)

    def expected_distinct(t):
        return float(-np.expm1(-pmf * t).sum())

    low, high = 0.0, 1.0
    while expected_distinct(high) < budget:
        high *= 2.0
        if high > 1e18:
            break
    for _ in range(100):
        mid = (low + high) / 2.0
        if expected_distinct(mid) < budget:
            low = mid
        else:
            high = mid
    return -np.expm1(-pmf * ((low + high) / 2.0))


def reference_curve(params):
    """The corrected curve of one grid point, one cluster at a time."""
    clusters = params.cluster_assignment()
    n_apps = params.n_apps
    cluster_ranks = np.zeros(n_apps, dtype=np.int64)
    sizes = np.zeros(int(clusters.max()) + 1, dtype=np.int64)
    for app_index in range(n_apps):
        cluster = clusters[app_index]
        sizes[cluster] += 1
        cluster_ranks[app_index] = sizes[cluster]
    d = params.downloads_per_user

    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    global_mass = ranks**-params.zr / generalized_harmonic(n_apps, params.zr)
    global_budget = min(float(n_apps), 1.0 + (1.0 - params.p) * max(d - 1.0, 0.0))
    hit_global = reference_hits(global_mass, global_budget)

    log_miss = np.log(np.clip(1.0 - hit_global, 1e-300, 1.0))
    cluster_log_miss = np.zeros(sizes.size, dtype=np.float64)
    np.add.at(cluster_log_miss, clusters, log_miss)
    visit_probability = 1.0 - np.exp(cluster_log_miss)
    expected_visited = max(float(visit_probability.sum()), 1.0)
    per_cluster_budget = params.p * max(d - 1.0, 0.0) / expected_visited

    hit_cluster = np.zeros(n_apps, dtype=np.float64)
    for cluster_index in range(sizes.size):
        members = np.flatnonzero(clusters == cluster_index)
        if members.size == 0:
            continue
        pmf = cluster_ranks[members].astype(np.float64) ** -params.zc
        pmf /= pmf.sum()
        budget = min(float(members.size), per_cluster_budget)
        hit_cluster[members] = reference_hits(pmf, budget)

    v = visit_probability[clusters]
    return params.n_users * (1.0 - (1.0 - hit_global) * (1.0 - v * hit_cluster))


def reference_fit(observed, n_users, n_clusters, zr_grid, zc_grid, p_grid):
    """``(zr, zc, p, distance, predicted)`` of the per-point grid search."""
    observed = np.sort(np.asarray(observed, dtype=np.float64))[::-1]
    best = None
    for zr, zc, p in itertools.product(zr_grid, zc_grid, p_grid):
        params = AppClusteringParams(
            n_apps=observed.size,
            n_users=n_users,
            total_downloads=int(observed.sum()),
            zr=zr,
            zc=zc,
            p=p,
            n_clusters=n_clusters,
        )
        predicted = np.sort(reference_curve(params))[::-1]
        distance = mean_relative_error(observed, predicted)
        if best is None or distance < best[3]:
            best = (zr, zc, p, distance, predicted)
    return best


# Shared strategies -----------------------------------------------------


def make_population(n_apps, n_users, total_downloads, n_clusters=30, cluster_of=None):
    """The non-grid fields of an :class:`AppClusteringParams`."""
    return dict(
        n_apps=n_apps,
        n_users=n_users,
        total_downloads=total_downloads,
        n_clusters=n_clusters,
        cluster_of=cluster_of,
    )


exponents = st.sampled_from((0.0, 0.5, 0.8, 1.0, 1.3, 1.5, 2.0, 2.5)) | st.floats(
    min_value=0.0, max_value=3.0
)
shares = st.sampled_from((0.0, 1.0, 0.5, 0.9)) | st.floats(min_value=0.0, max_value=1.0)


@st.composite
def populations(draw):
    """Populations from one app upwards, per-user budgets from zero
    (``d <= 1`` leaves no clustered budget) to saturating, round-robin or
    skewed cluster maps, and more clusters than apps."""
    n_apps = draw(st.integers(min_value=1, max_value=400))
    n_clusters = draw(st.integers(min_value=1, max_value=40))
    n_users = draw(st.integers(min_value=1, max_value=300))
    per_user = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 60.0))
    cluster_of = None
    if draw(st.booleans()):
        # Geometric cluster ids: one big cluster, a tail of small ones,
        # many distinct sizes and some empty cluster ids.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        geometric = rng.geometric(draw(st.floats(0.05, 0.9)), size=n_apps) - 1
        cluster_of = tuple(int(c) for c in np.minimum(geometric, n_clusters - 1))
    return make_population(
        n_apps, n_users, int(per_user * n_users), n_clusters, cluster_of
    )


class TestCorrectedCurveExactness:
    @given(population=populations(), zr=exponents, zc=exponents, p=shares)
    @settings(max_examples=80, deadline=None)
    # More clusters than apps; d <= 1; p at 0 and 1; budgets that
    # saturate every bisection; a skewed map with empty cluster ids.
    @example(population=make_population(3, 10, 200, n_clusters=40), zr=1.4, zc=1.2, p=0.9)
    @example(population=make_population(50, 100, 100), zr=1.4, zc=1.2, p=0.9)
    @example(population=make_population(120, 50, 3000), zr=1.4, zc=1.2, p=0.0)
    @example(population=make_population(120, 50, 3000), zr=1.4, zc=1.2, p=1.0)
    @example(population=make_population(20, 10, 2000), zr=1.0, zc=1.5, p=0.5)
    @example(
        population=make_population(6, 4, 40, n_clusters=6, cluster_of=(0, 0, 0, 0, 2, 5)),
        zr=1.2,
        zc=1.0,
        p=0.9,
    )
    def test_curve_bit_identical_to_reference(self, population, zr, zc, p):
        params = AppClusteringParams(zr=zr, zc=zc, p=p, **population)
        assert np.array_equal(
            expected_download_curve_corrected(params), reference_curve(params)
        )


class TestDistinctDrawExactness:
    @given(
        n=st.integers(min_value=1, max_value=400),
        exponent=exponents,
        budget_share=st.sampled_from((0.0, 1.0, 1.5)) | st.floats(0.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    @example(n=30, exponent=1.2, budget_share=1.0)
    @example(n=30, exponent=1.2, budget_share=1.5)
    @example(n=1, exponent=0.0, budget_share=0.5)
    def test_hits_bit_identical_to_reference(self, n, exponent, budget_share):
        pmf = np.arange(1, n + 1, dtype=np.float64) ** -exponent
        pmf /= pmf.sum()
        # Shares of 1 and above put the budget at and above n.
        budget = budget_share * n
        assert np.array_equal(
            distinct_draw_hit_probabilities(pmf, budget),
            reference_hits(pmf, budget),
        )


class TestFitExactness:
    @given(
        n_apps=st.integers(min_value=1, max_value=400),
        n_clusters=st.integers(min_value=1, max_value=40),
        # Users beyond the observed total put d at or below 1.
        n_users=st.integers(min_value=1, max_value=300)
        | st.integers(min_value=1000, max_value=30000),
        head=st.integers(min_value=1, max_value=5000),
        slope=st.floats(min_value=0.2, max_value=2.0),
        zr_grid=st.lists(st.sampled_from((0.8, 1.0, 1.4, 2.0)), min_size=1, max_size=3),
        zc_grid=st.lists(st.sampled_from((1.0, 1.2, 1.5)), min_size=1, max_size=3),
        p_grid=st.lists(st.sampled_from((0.0, 0.5, 0.9, 1.0)), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    # d < 1 leaves zc without effect: every zc ties and the first wins.
    @example(
        n_apps=40,
        n_clusters=40,
        n_users=30000,
        head=100,
        slope=1.0,
        zr_grid=[1.0, 1.0],
        zc_grid=[1.2, 1.0, 1.5],
        p_grid=[0.5, 0.0],
    )
    def test_fit_matches_reference(
        self, n_apps, n_clusters, n_users, head, slope, zr_grid, zc_grid, p_grid
    ):
        # Repeated grid values and zc-blind points (p = 0, or d <= 1)
        # give exactly tied distances: the first minimum must win.
        observed = np.floor(head * np.arange(1, n_apps + 1) ** -slope) + 1.0
        fit = fit_model(
            ModelKind.APP_CLUSTERING,
            observed,
            n_users=n_users,
            n_clusters=n_clusters,
            zr_grid=zr_grid,
            zc_grid=zc_grid,
            p_grid=p_grid,
        )
        zr, zc, p, distance, predicted = reference_fit(
            observed, n_users, n_clusters, zr_grid, zc_grid, p_grid
        )
        assert (fit.zr, fit.zc, fit.p, fit.distance) == (zr, zc, p, distance)
        assert np.array_equal(fit.predicted, predicted)
