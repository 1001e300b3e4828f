"""Tests for repro.core.analytical (Equation 5 and companions)."""

import numpy as np
import pytest

from repro.core.analytical import (
    expected_download_curve,
    expected_download_curve_corrected,
    expected_downloads,
    expected_zipf,
    expected_zipf_at_most_once,
)
from repro.core.models import AppClusteringModel, AppClusteringParams


def make_params(**overrides):
    defaults = dict(
        n_apps=600,
        n_users=200,
        total_downloads=6000,
        zr=1.4,
        zc=1.3,
        p=0.9,
        n_clusters=20,
    )
    defaults.update(overrides)
    return AppClusteringParams(**defaults)


class TestExpectedDownloads:
    def test_bounded_by_users(self):
        params = make_params()
        value = expected_downloads(params, overall_rank=1, cluster_rank=1)
        assert 0 < float(value) <= params.n_users

    def test_monotone_in_both_ranks(self):
        params = make_params()
        head = expected_downloads(params, 1, 1)
        tail = expected_downloads(params, params.n_apps, 30)
        assert float(head) > float(tail)

    def test_vectorized(self):
        params = make_params()
        ranks = np.array([1, 10, 100])
        cluster_ranks = np.array([1, 2, 5])
        values = expected_downloads(params, ranks, cluster_ranks)
        assert values.shape == (3,)
        assert np.all(np.diff(values) < 0)

    def test_rank_bounds_validated(self):
        params = make_params()
        with pytest.raises(ValueError):
            expected_downloads(params, 0, 1)
        with pytest.raises(ValueError):
            expected_downloads(params, 1, 10**6)

    def test_p_one_ignores_global_rank(self):
        params = make_params(p=1.0)
        a = expected_downloads(params, 1, 3)
        b = expected_downloads(params, params.n_apps, 3)
        assert float(a) == pytest.approx(float(b))

    def test_p_zero_ignores_cluster_rank(self):
        params = make_params(p=0.0)
        a = expected_downloads(params, 5, 1)
        b = expected_downloads(params, 5, 10)
        assert float(a) == pytest.approx(float(b))


class TestExpectedCurves:
    def test_curve_length(self):
        params = make_params()
        assert expected_download_curve(params).shape == (params.n_apps,)
        assert expected_download_curve_corrected(params).shape == (params.n_apps,)

    def test_corrected_curve_tracks_simulation(self):
        """The corrected mean-field curve must be close to Monte Carlo."""
        params = make_params(n_apps=400, n_users=300, total_downloads=6000)
        simulated = np.zeros(params.n_apps)
        for seed in range(5):
            simulated += AppClusteringModel(params).simulate(seed=seed)
        simulated /= 5
        predicted = expected_download_curve_corrected(params)
        # Compare the sorted curves on the head (where counts are stable).
        sim_sorted = np.sort(simulated)[::-1][:40]
        pred_sorted = np.sort(predicted)[::-1][:40]
        relative = np.abs(sim_sorted - pred_sorted) / sim_sorted
        assert float(relative.mean()) < 0.35

    def test_uncorrected_overestimates_midrange(self):
        """Equation 5 verbatim gives each app its cluster's full budget."""
        params = make_params()
        plain = expected_download_curve(params)
        corrected = expected_download_curve_corrected(params)
        # Summed over all apps, the uncorrected curve promises more
        # downloads than the model can deliver.
        assert plain.sum() > corrected.sum()


class TestDistinctDrawHitProbabilities:
    def test_budget_zero_all_zero(self):
        from repro.core.analytical import distinct_draw_hit_probabilities

        pmf = np.array([0.5, 0.3, 0.2])
        assert np.all(distinct_draw_hit_probabilities(pmf, 0.0) == 0.0)

    def test_budget_n_all_one(self):
        from repro.core.analytical import distinct_draw_hit_probabilities

        pmf = np.array([0.5, 0.3, 0.2])
        assert np.all(distinct_draw_hit_probabilities(pmf, 3.0) == 1.0)

    def test_expected_distinct_matches_budget(self):
        from repro.core.analytical import distinct_draw_hit_probabilities

        pmf = 1.0 / np.arange(1, 101) ** 1.3
        pmf /= pmf.sum()
        hits = distinct_draw_hit_probabilities(pmf, 17.0)
        assert hits.sum() == pytest.approx(17.0, rel=1e-6)

    def test_popular_items_more_likely(self):
        from repro.core.analytical import distinct_draw_hit_probabilities

        pmf = 1.0 / np.arange(1, 51) ** 1.5
        pmf /= pmf.sum()
        hits = distinct_draw_hit_probabilities(pmf, 5.0)
        assert np.all(np.diff(hits) <= 1e-12)
        assert np.all((0.0 <= hits) & (hits <= 1.0))

    def test_matches_empirical_without_replacement(self):
        """The Poissonization approximation tracks rejection sampling."""
        from repro.core.analytical import distinct_draw_hit_probabilities
        from repro.stats.sampling import AliasSampler

        pmf = 1.0 / np.arange(1, 31) ** 1.2
        pmf /= pmf.sum()
        budget = 8
        sampler = AliasSampler(pmf)
        rng = np.random.default_rng(0)
        counts = np.zeros(30)
        trials = 3000
        for _ in range(trials):
            drawn = set()
            while len(drawn) < budget:
                drawn.add(sampler.sample_one(rng))
            for item in sorted(drawn):
                counts[item] += 1
        empirical = counts / trials
        predicted = distinct_draw_hit_probabilities(pmf, float(budget))
        assert np.max(np.abs(empirical - predicted)) < 0.06

    def test_validation(self):
        from repro.core.analytical import distinct_draw_hit_probabilities

        with pytest.raises(ValueError):
            distinct_draw_hit_probabilities(np.array([]), 1.0)
        with pytest.raises(ValueError):
            distinct_draw_hit_probabilities(np.array([0.5, 0.5]), -1.0)

    def test_budget_past_positive_mass_returns_indicator(self):
        """Zero-mass items can never be drawn: a budget at or above the
        positive-mass count draws exactly the positive-mass items."""
        from repro.core.analytical import distinct_draw_hit_probabilities

        for pmf, budget in (
            ([0.5, 0.5, 0.0], 2.0),
            ([0.5, 0.5, 0.0], 2.5),
            ([1e-20, 1.0, 0.0], 2.0),
        ):
            hits = distinct_draw_hit_probabilities(np.array(pmf), budget)
            assert np.array_equal(hits, [1.0, 1.0, 0.0])

    def test_unreachable_budget_raises(self):
        """Items of vanishing mass leave the budget out of reach of any
        intensity the bisection may try."""
        from repro.core.analytical import distinct_draw_hit_probabilities

        with pytest.raises(ValueError, match="out of reach"):
            distinct_draw_hit_probabilities(np.array([1.0, 1e-300, 1e-300]), 2.9)

    @pytest.mark.parametrize(
        "pmf",
        [[0.6, -0.1, 0.5], [0.5, np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]],
    )
    def test_rejects_negative_or_nonfinite_pmf(self, pmf):
        from repro.core.analytical import distinct_draw_hit_probabilities

        with pytest.raises(ValueError, match="finite and non-negative"):
            distinct_draw_hit_probabilities(np.array(pmf), 1.0)


class TestZipfExpectations:
    def test_expected_zipf_total(self):
        curve = expected_zipf(100, 5000, 1.2)
        assert curve.sum() == pytest.approx(5000.0)

    def test_expected_zipf_decreasing(self):
        curve = expected_zipf(50, 1000, 1.0)
        assert np.all(np.diff(curve) < 0)

    def test_amo_capped_by_users(self):
        curve = expected_zipf_at_most_once(100, 40, 100_000, 1.5)
        assert curve.max() <= 40.0

    def test_amo_head_flat(self):
        """The fetch-at-most-once head flattens toward the user count."""
        curve = expected_zipf_at_most_once(1000, 100, 50_000, 1.8)
        assert curve[0] == pytest.approx(100.0, rel=0.01)
        assert curve[1] == pytest.approx(100.0, rel=0.05)

    def test_amo_below_zipf_at_head(self):
        zipf = expected_zipf(500, 50_000, 1.5)
        amo = expected_zipf_at_most_once(500, 100, 50_000, 1.5)
        assert amo[0] < zipf[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_zipf(0, 10, 1.0)
        with pytest.raises(ValueError):
            expected_zipf_at_most_once(10, 0, 10, 1.0)
        with pytest.raises(ValueError):
            expected_zipf(10, -1, 1.0)
