"""Tests for repro.crawler.quality (crawl audit)."""

import pytest

from repro.crawler.database import AppSnapshot, SnapshotDatabase
from repro.crawler.quality import assess_crawl_quality
from repro.store.schema import SNAPSHOT_COLUMNS
from tests.rows import add_snapshots


def snapshot(day, app_id, downloads, comments=0):
    return AppSnapshot(
        store="s",
        day=day,
        app_id=app_id,
        name=f"app-{app_id}",
        category="games",
        developer_id=1,
        price=0.0,
        declares_ads=False,
        total_downloads=downloads,
        rating_count=0,
        average_rating=0.0,
        comment_count=comments,
        version_name="1.0",
    )


class TestAssessCrawlQuality:
    def test_clean_crawl(self, demo_campaign):
        report = assess_crawl_quality(demo_campaign.database, "demo")
        assert report.is_clean
        assert report.mean_daily_coverage > 0.95
        assert report.n_days == len(demo_campaign.crawled_days)
        assert "clean" in report.describe()

    def test_missing_day_detected(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            # day 2 missing from a daily cadence
            [snapshot(day, app_id=1, downloads=day * 10) for day in (0, 1, 3, 4)],
        )
        report = assess_crawl_quality(database, "s")
        assert report.expected_cadence == 1
        assert 2 in report.missing_days

    def test_sparser_cadence_not_misflagged(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            # every-3-days cadence
            [snapshot(day, app_id=1, downloads=day * 10) for day in (0, 3, 6, 9)],
        )
        report = assess_crawl_quality(database, "s")
        assert report.expected_cadence == 3
        assert report.missing_days == ()

    def test_counter_regression_detected(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(0, app_id=1, downloads=100),
                snapshot(1, app_id=1, downloads=90),  # impossible
            ],
        )
        report = assess_crawl_quality(database, "s")
        assert not report.is_clean
        assert (1, 1, "downloads") in report.monotonicity_violations

    def test_comment_regression_detected(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(0, app_id=1, downloads=10, comments=5),
                snapshot(1, app_id=1, downloads=20, comments=3),
            ],
        )
        report = assess_crawl_quality(database, "s")
        assert (1, 1, "comments") in report.monotonicity_violations

    def test_stale_app_detected(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [snapshot(day, app_id=1, downloads=day) for day in (0, 1, 2)]
            + [snapshot(0, app_id=2, downloads=5)],  # vanishes
        )
        report = assess_crawl_quality(database, "s")
        assert 2 in report.stale_apps
        assert 1 not in report.stale_apps

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            assess_crawl_quality(SnapshotDatabase(), "s")


class TestZeroRowAppend:
    def test_copies_agree_after_an_empty_append(self, tmp_path):
        """An append of zero rows (a served day with no page) adds no
        crawled day, so the in-memory, JSONL and packed copies agree."""
        database = SnapshotDatabase()
        add_snapshots(
            database, [snapshot(day, app_id=1, downloads=day) for day in (3, 5)]
        )
        empty = {column: [] for column in SNAPSHOT_COLUMNS}
        database.columnar.extend_snapshots("s", 4, empty)
        database.save(tmp_path / "crawl.jsonl")
        database.pack(tmp_path / "crawl.cstore")
        copies = [
            database,
            SnapshotDatabase.load(tmp_path / "crawl.jsonl"),
            SnapshotDatabase.load(tmp_path / "crawl.cstore"),
        ]
        assert [copy.days("s") for copy in copies] == [[3, 5]] * 3
        reports = [assess_crawl_quality(copy, "s") for copy in copies]
        assert reports[0].expected_cadence == 2
        assert reports[0].mean_daily_coverage == 1.0
        assert reports[1:] == [reports[0]] * 2
