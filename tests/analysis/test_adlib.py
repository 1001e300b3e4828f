"""Tests for repro.analysis.adlib (the ad-library scanner)."""

import numpy as np
import pytest

from repro.analysis.adlib import (
    declaration_accuracy,
    scan_apks,
    scan_store_for_ads,
)
from repro.crawler.database import ApkRecord
from repro.marketplace.ads import TOP_AD_NETWORKS, UTILITY_LIBRARIES


def apk(app_id, libraries, version="1.0"):
    return ApkRecord(
        store="s",
        app_id=app_id,
        version_name=version,
        package_name=f"com.s.app{app_id}",
        size_mb=3.5,
        embedded_libraries=tuple(libraries),
    )


class TestScanApks:
    def test_detects_ad_network(self):
        result = scan_apks("s", [apk(1, ["com.adrift.sdk", "com.google.gson"])])
        assert result.per_app[1] is True
        assert result.n_with_ads == 1

    def test_clean_app(self):
        result = scan_apks("s", [apk(1, ["com.google.gson"])])
        assert result.per_app[1] is False
        assert result.ad_fraction == 0.0

    def test_subpackage_counts(self):
        result = scan_apks("s", [apk(1, ["com.adrift.sdk.banner.view"])])
        assert result.per_app[1] is True

    def test_latest_version_wins(self):
        records = [
            apk(1, ["com.adrift.sdk"], version="1.0"),
            apk(1, ["com.google.gson"], version="1.1"),
        ]
        result = scan_apks("s", records)
        assert result.per_app[1] is False

    def test_network_counts(self):
        records = [
            apk(1, ["com.adrift.sdk"]),
            apk(2, ["com.adrift.sdk", "com.mobipop.ads"]),
        ]
        result = scan_apks("s", records)
        assert result.network_counts["com.adrift.sdk"] == 2
        assert result.network_counts["com.mobipop.ads"] == 1
        assert result.top_networks(1)[0][0] == "com.adrift.sdk"

    def test_empty_scan(self):
        result = scan_apks("s", [])
        assert result.ad_fraction == 0.0
        assert result.n_scanned == 0

    def test_matches_per_library_scan(self):
        """Flags and counts, key order included, equal a scan that tests
        every library of every APK against the catalog in order."""
        rng = np.random.default_rng(11)
        names = list(TOP_AD_NETWORKS) + list(UTILITY_LIBRARIES)
        names += [network + ".banner" for network in TOP_AD_NETWORKS[:5]]
        names += [network + "x" for network in TOP_AD_NETWORKS[:5]]
        libsets = [
            tuple(names[int(i)] for i in rng.integers(0, len(names), int(size)))
            for size in rng.integers(0, 4, 12)
        ]
        records = [
            apk(int(app), libsets[int(index)], version=str(version))
            for version, (app, index) in enumerate(
                zip(rng.integers(0, 15, 60), rng.integers(0, len(libsets), 60))
            )
        ]
        per_app, counts = {}, {}
        for record in records:
            per_app[record.app_id] = False
            for library in record.embedded_libraries:
                for network in TOP_AD_NETWORKS:
                    if library == network or library.startswith(network + "."):
                        per_app[record.app_id] = True
                        counts[network] = counts.get(network, 0) + 1
                        break
        result = scan_apks("s", records)
        assert result.per_app == per_app
        assert list(result.network_counts.items()) == list(counts.items())


class TestScanStore:
    def test_scan_fraction_in_paper_ballpark(self, slideme_campaign):
        """Section 6.3: ~67% of free apps embed a top-20 ad network."""
        result = scan_store_for_ads(
            slideme_campaign.database, "slideme-test", free_only=True
        )
        assert 0.5 < result.ad_fraction < 0.85

    def test_free_only_scans_fewer(self, slideme_campaign):
        everything = scan_store_for_ads(slideme_campaign.database, "slideme-test")
        free_only = scan_store_for_ads(
            slideme_campaign.database, "slideme-test", free_only=True
        )
        assert free_only.n_scanned < everything.n_scanned

    def test_describe(self, slideme_campaign):
        result = scan_store_for_ads(slideme_campaign.database, "slideme-test")
        assert "%" in result.describe()


class TestDeclarationAccuracy:
    def test_declarations_generally_true(self, slideme_campaign):
        """The paper finds the page's ad claim is 'generally true'."""
        accuracy = declaration_accuracy(slideme_campaign.database, "slideme-test")
        assert accuracy > 0.9
