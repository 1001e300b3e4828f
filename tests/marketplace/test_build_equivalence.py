"""The batched store build against the per-entity draws it replaced.

The generator used to draw each APK's libraries with one
``sample_libraries`` call, each developer's portfolio size with one
``rng.choice`` until the apps ran out, and each developer's focus
categories with one call per developer.  It now draws every attribute
for all apps or developers at once, which moves the random stream but
must not move any law: every statistic below must agree with the old
draws to within their own seed-to-seed spread, the rule of
``test_store_equivalence.py``.  The reference functions are short copies
of the old per-entity draws.  A counting generator checks that the
build stays batched: it makes as many Generator calls for a store ten
times as large.
"""

from collections import Counter

import numpy as np
import pytest

from repro.marketplace.ads import (
    TOP_AD_NETWORKS,
    UTILITY_LIBRARIES,
    AdEcosystem,
    contains_ad_network,
)
from repro.marketplace.generator import (
    _focus_categories,
    _portfolio_sizes,
    build_store,
)
from repro.marketplace.profiles import demo_profile
from repro.stats.rng import make_rng
from repro.stats.zipf import zipf_weights

SEEDS = range(6)
N_APKS = 3_000
IS_FREE = np.arange(N_APKS) % 4 != 0  # three free APKs to one paid
N_PORTFOLIO_APPS = 4_000
N_DEVELOPERS, N_CATEGORIES = 3_000, 10
ADS = AdEcosystem()


def reference_sample_libraries(ads, is_free, rng):
    """The per-APK sampler: libraries embedded in one APK."""
    libraries = []
    include_rate = ads.ad_inclusion_rate if is_free else ads.paid_ad_rate
    if rng.random() < include_rate:
        weights = ads.network_weights()
        count = 1 + int(rng.binomial(ads.max_networks_per_app - 1, 0.25))
        chosen = rng.choice(
            len(TOP_AD_NETWORKS),
            size=min(count, len(TOP_AD_NETWORKS)),
            replace=False,
            p=weights / weights.sum(),
        )
        libraries.extend(TOP_AD_NETWORKS[index] for index in chosen)
    utility_count = int(rng.integers(1, 5))
    chosen = rng.choice(len(UTILITY_LIBRARIES), size=utility_count, replace=False)
    libraries.extend(UTILITY_LIBRARIES[index] for index in chosen)
    return tuple(libraries)


def reference_portfolio_sizes(n_apps, rng, alpha=2.2):
    """The ``while`` loop: one portfolio size per draw until the apps
    run out, the last one cut to what is left."""
    sizes = []
    remaining = n_apps
    max_size = max(1, n_apps // 2)
    weights = zipf_weights(max_size, alpha)
    probabilities = weights / weights.sum()
    while remaining > 0:
        size = int(rng.choice(max_size, p=probabilities)) + 1
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def reference_focus(n_categories, rng):
    """One developer's focus categories, in draw order."""
    n_focus = min(1 + int(rng.binomial(4, 0.08)), n_categories)
    return rng.choice(n_categories, size=n_focus, replace=False).tolist()


def split(apk):
    """(networks, utilities) of one library tuple, in listed order."""
    networks = [library for library in apk if library in TOP_AD_NETWORKS]
    return networks, list(apk[len(networks):])


def library_statistics(libraries):
    parts = [split(apk) for apk in libraries]
    has_ads = np.array([bool(networks) for networks, _ in parts])
    with_ads = [networks for networks, _ in parts if networks]
    counts = np.array([len(networks) for networks in with_ads])
    utilities = [utility for _, utility in parts]
    utility_counts = np.array([len(utility) for utility in utilities])
    stats = {
        "inclusion_free": has_ads[IS_FREE].mean(),
        "inclusion_paid": has_ads[~IS_FREE].mean(),
    }
    for count in range(1, ADS.max_networks_per_app + 1):
        stats[f"network_count={count}"] = np.mean(counts == count)
    for rank, network in enumerate(TOP_AD_NETWORKS):
        stats[f"includes[{rank}]"] = np.mean([network in n for n in with_ads])
        stats[f"first[{rank}]"] = np.mean([n[0] == network for n in with_ads])
    for count in range(1, 5):
        stats[f"utility_count={count}"] = np.mean(utility_counts == count)
    for index, utility in enumerate(UTILITY_LIBRARIES):
        stats[f"utility[{index}]"] = np.mean([utility in u for u in utilities])
    return stats


def portfolio_statistics(sizes):
    sizes = np.array(sizes)
    return {
        "size=1": np.mean(sizes == 1),
        "size=2": np.mean(sizes == 2),
        "size=3": np.mean(sizes == 3),
        "size=4..9": np.mean((sizes >= 4) & (sizes <= 9)),
        "size>=10": np.mean(sizes >= 10),
    }


def focus_statistics(focus):
    counts = np.array([len(categories) for categories in focus])
    stats = {
        "focus_count=1": np.mean(counts == 1),
        "focus_count=2": np.mean(counts == 2),
        "focus_count>=3": np.mean(counts >= 3),
    }
    for category in range(N_CATEGORIES):
        stats[f"first_focus[{category}]"] = np.mean(
            [categories[0] == category for categories in focus]
        )
    return stats


def reference_run(seed):
    rng = make_rng(seed)
    libraries = [reference_sample_libraries(ADS, free, rng) for free in IS_FREE]
    sizes = reference_portfolio_sizes(N_PORTFOLIO_APPS, rng)
    focus = [reference_focus(N_CATEGORIES, rng) for _ in range(N_DEVELOPERS)]
    return libraries, sizes, focus


def batched_run(seed):
    rng = make_rng(seed)
    libraries, has_ads = ADS.sample_library_sets(IS_FREE, seed=rng)
    sizes = _portfolio_sizes(N_PORTFOLIO_APPS, rng)
    focus = _focus_categories(N_DEVELOPERS, N_CATEGORIES, rng)
    return libraries, sizes, focus


def statistics(run):
    libraries, sizes, focus = run
    return {
        **library_statistics(libraries),
        **portfolio_statistics(sizes),
        **focus_statistics(focus),
    }


@pytest.fixture(scope="module")
def runs():
    reference = [reference_run(seed) for seed in SEEDS]
    batched = [batched_run(1000 + seed) for seed in SEEDS]
    return reference, batched


@pytest.fixture(scope="module")
def run_statistics(runs):
    return [[statistics(run) for run in side] for side in runs]


STATISTICS = list(statistics(batched_run(0)))


@pytest.mark.parametrize("name", STATISTICS)
def test_batched_draws_match_per_entity_draws(run_statistics, name):
    """Mean over six seeds within the reference's seed-to-seed range."""
    reference = np.array([stats[name] for stats in run_statistics[0]])
    batched = np.array([stats[name] for stats in run_statistics[1]])
    spread = reference.max() - reference.min()
    assert spread > 0
    assert abs(batched.mean() - reference.mean()) <= spread, (
        name,
        reference.round(4).tolist(),
        batched.round(4).tolist(),
    )


class TestExactLaws:
    def test_no_library_twice_in_an_apk(self, runs):
        for libraries, _, _ in runs[1]:
            for apk in libraries:
                assert len(set(apk)) == len(apk), apk

    def test_one_to_four_utilities_after_the_networks(self, runs):
        for libraries, _, _ in runs[1]:
            for apk in libraries:
                networks, utilities = split(apk)
                assert len(networks) <= ADS.max_networks_per_app
                assert 1 <= len(utilities) <= 4
                assert set(utilities) <= set(UTILITY_LIBRARIES), apk

    def test_mask_marks_the_apks_with_networks(self):
        libraries, has_ads = ADS.sample_library_sets(IS_FREE, seed=5)
        assert has_ads.tolist() == [contains_ad_network(apk) for apk in libraries]

    @pytest.mark.parametrize("n_apps", [0, 1, 2, 3, 10, 97, N_PORTFOLIO_APPS])
    def test_portfolio_sizes_cover_the_apps(self, n_apps):
        rng = make_rng(n_apps)
        for _ in SEEDS:
            sizes = _portfolio_sizes(n_apps, rng)
            assert sum(sizes) == n_apps
            assert all(size >= 1 for size in sizes)
            assert max(sizes, default=1) <= max(1, n_apps // 2)

    def test_focus_categories_distinct_and_capped(self, runs):
        for _, _, focus in runs[1]:
            for categories in focus:
                assert 1 <= len(categories) == len(set(categories)) <= 5
        few = _focus_categories(200, 2, make_rng(0))
        for categories in few:
            assert 1 <= len(categories) == len(set(categories)) <= 2

    def test_built_store_flags_ads_from_its_libraries(self, monkeypatch):
        """Every app's APK carries the drawn libraries, and the drawn
        has-ads mask is the scan of those libraries."""
        drawn = []
        sample = AdEcosystem.sample_library_sets

        def recorded(self, is_free, seed=None):
            result = sample(self, is_free, seed=seed)
            drawn.append(result)
            return result

        monkeypatch.setattr(AdEcosystem, "sample_library_sets", recorded)
        store = build_store(demo_profile(paid_fraction=0.25), seed=3).store
        (libraries, has_ads), = drawn
        apps = store.apps()
        assert [app.versions[0].apk.embedded_libraries for app in apps] == libraries
        assert has_ads.tolist() == [contains_ad_network(apk) for apk in libraries]
        declared = np.array([app.declares_ads for app in apps])
        assert np.mean(declared == has_ads) > 0.95


class CountingGenerator(np.random.Generator):
    """A Generator that counts the method calls made on it, by name.

    Calls numpy makes on itself inside a counted call are not counted.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = Counter()
        self.depth = 0

    def __getattribute__(self, name):
        attribute = super().__getattribute__(name)
        if name.startswith("_") or name in ("calls", "depth") or not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            if self.depth == 0:
                self.calls[name] += 1
            self.depth += 1
            try:
                return attribute(*args, **kwargs)
            finally:
                self.depth -= 1

        return counted


def build_calls(scale):
    profile = demo_profile(
        initial_apps=300 * scale,
        new_apps_per_day=2.0 * scale,
        n_users=400 * scale,
        paid_fraction=0.25,
    )
    rng = CountingGenerator(11)
    store = build_store(profile, seed=rng).store
    return store, rng.calls


def test_store_build_makes_no_per_entity_draws():
    """The build's Generator calls do not grow with the store: a tenfold
    store (apps, users, and the developers that follow) makes the same
    calls, method by method."""
    small, small_calls = build_calls(1)
    large, large_calls = build_calls(10)
    assert (small.n_apps, small.n_users) == (320, 400)
    assert (large.n_apps, large.n_users) == (3_200, 4_000)
    assert sum(small_calls.values()) > 10
    assert large_calls == small_calls
