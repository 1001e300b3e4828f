"""Tests for repro.marketplace.entities."""

import pytest

from repro.marketplace.entities import (
    ApkPackage,
    App,
    AppStatistics,
    AppVersion,
    Developer,
)


def make_app(**overrides):
    defaults = dict(
        app_id=0,
        name="app",
        category="games",
        developer_id=1,
        global_rank=1,
        cluster_rank=1,
    )
    defaults.update(overrides)
    return App(**defaults)


class TestApkPackage:
    def test_contains_library_exact(self):
        apk = ApkPackage("com.x.app", 1, 3.5, ("com.adrift.sdk",))
        assert apk.contains_library("com.adrift.sdk")

    def test_contains_library_subpackage(self):
        apk = ApkPackage("com.x.app", 1, 3.5, ("com.adrift.sdk.banner",))
        assert apk.contains_library("com.adrift.sdk")

    def test_prefix_without_dot_boundary_not_matched(self):
        apk = ApkPackage("com.x.app", 1, 3.5, ("com.adrift.sdkextra",))
        assert not apk.contains_library("com.adrift.sdk")

    def test_missing_library(self):
        apk = ApkPackage("com.x.app", 1, 3.5, ())
        assert not apk.contains_library("com.adrift.sdk")


class TestApp:
    def test_free_paid_flags(self):
        assert make_app(price=0.0).is_free
        assert make_app(price=1.99).is_paid

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            make_app(price=-1.0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            make_app(global_rank=0)
        with pytest.raises(ValueError):
            make_app(cluster_rank=0)

    def test_version_tracking(self):
        app = make_app()
        assert app.current_version is None
        assert app.update_count == 0
        apk = ApkPackage("com.x.app", 1, 2.0)
        app.versions.append(AppVersion("1.0", 0, apk))
        assert app.current_version.version_name == "1.0"
        assert app.update_count == 0
        app.versions.append(AppVersion("1.1", 5, apk))
        assert app.current_version.version_name == "1.1"
        assert app.update_count == 1


class TestDeveloper:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Developer(developer_id=-1, name="x")


class TestAppStatistics:
    def test_average_rating(self):
        stats = AppStatistics(
            app_id=1,
            total_downloads=10,
            rating_sum=9,
            rating_count=2,
            comment_count=2,
            version_name="1.0",
            price=0.0,
        )
        assert stats.average_rating == pytest.approx(4.5)

    def test_unrated_is_zero(self):
        stats = AppStatistics(
            app_id=1,
            total_downloads=0,
            rating_sum=0,
            rating_count=0,
            comment_count=0,
            version_name="1.0",
            price=0.0,
        )
        assert stats.average_rating == 0.0
