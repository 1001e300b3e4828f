"""Tests for repro.marketplace.ads."""

import numpy as np
import pytest

from repro.marketplace.ads import (
    TOP_AD_NETWORKS,
    UTILITY_LIBRARIES,
    AdEcosystem,
    ad_network_of,
    contains_ad_network,
)


class TestAdEcosystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdEcosystem(ad_inclusion_rate=1.5)
        with pytest.raises(ValueError):
            AdEcosystem(paid_ad_rate=-0.1)
        with pytest.raises(ValueError):
            AdEcosystem(network_skew=-1.0)
        with pytest.raises(ValueError):
            AdEcosystem(max_networks_per_app=0)

    def test_free_app_inclusion_rate(self):
        """The paper measures ~67% of free apps embedding top-20 networks."""
        ecosystem = AdEcosystem(ad_inclusion_rate=0.67)
        libraries, _ = ecosystem.sample_library_sets(np.ones(3000, bool), seed=0)
        with_ads = sum(contains_ad_network(apk) for apk in libraries)
        assert 0.62 < with_ads / 3000 < 0.72

    def test_paid_apps_rarely_have_ads(self):
        ecosystem = AdEcosystem(paid_ad_rate=0.03)
        libraries, _ = ecosystem.sample_library_sets(np.zeros(2000, bool), seed=1)
        with_ads = sum(contains_ad_network(apk) for apk in libraries)
        assert with_ads / 2000 < 0.08

    def test_every_apk_has_some_library(self):
        ecosystem = AdEcosystem()
        free = np.random.default_rng(2).random(50) < 0.5
        libraries, _ = ecosystem.sample_library_sets(free, seed=2)
        assert len(libraries) == 50
        for apk in libraries:
            assert len(apk) >= 1

    def test_network_weights_skewed(self):
        weights = AdEcosystem(network_skew=1.0).network_weights()
        assert weights[0] > weights[-1]
        assert weights.size == len(TOP_AD_NETWORKS)


class TestContainsAdNetwork:
    def test_exact_match(self):
        assert contains_ad_network([TOP_AD_NETWORKS[0]])

    def test_subpackage_match(self):
        assert contains_ad_network([TOP_AD_NETWORKS[0] + ".banner"])

    def test_utility_only_is_clean(self):
        assert not contains_ad_network(list(UTILITY_LIBRARIES))

    def test_empty_is_clean(self):
        assert not contains_ad_network([])

    def test_similar_prefix_not_matched(self):
        assert not contains_ad_network([TOP_AD_NETWORKS[0] + "x.thing"])


def reference_contains(libraries):
    """The list test the matcher replaced: an exact name, or any network
    followed by a dot."""
    networks = set(TOP_AD_NETWORKS)
    for library in libraries:
        if library in networks:
            return True
        for network in TOP_AD_NETWORKS:
            if library.startswith(network + "."):
                return True
    return False


def reference_network_of(library):
    """The per-library loop the scan's counts used: the first network, in
    catalog order, the library equals or starts with plus a dot."""
    for network in TOP_AD_NETWORKS:
        if library == network or library.startswith(network + "."):
            return network
    return None


def library_cases():
    """Exact names, sub-packages and near-misses of every network."""
    cases = ["", ".", "com", "x"] + list(UTILITY_LIBRARIES)
    for network in TOP_AD_NETWORKS:
        parent = network.rsplit(".", 1)[0]
        cases += [
            network,
            network + ".banner",
            network + ".banner.view",
            network + ".",
            network + "x",  # a letter instead of a dot
            network + "x.thing",
            network + "_v2.core",
            network[:-1],
            parent,
            parent + ".other",
            "." + network,
            "org." + network,
            network.upper(),
        ]
    return cases


class TestAdNetworkOf:
    def test_matches_the_old_loops(self):
        for library in library_cases():
            assert ad_network_of(library) == reference_network_of(library), library
            assert contains_ad_network([library]) == reference_contains([library])

    def test_lists_match_the_old_loop(self):
        rng = np.random.default_rng(3)
        cases = library_cases()
        for _ in range(500):
            size = int(rng.integers(0, 5))
            libraries = [cases[int(i)] for i in rng.integers(0, len(cases), size)]
            assert contains_ad_network(libraries) == reference_contains(libraries)

    def test_sub_package_names_its_network(self):
        assert ad_network_of(TOP_AD_NETWORKS[3] + ".a.b") == TOP_AD_NETWORKS[3]
        assert ad_network_of(TOP_AD_NETWORKS[3] + "a.b") is None
