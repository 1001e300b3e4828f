"""Tests for repro.crawler.exporters (CSV export)."""

import csv

import pytest

from repro.crawler.database import ApkRecord, AppSnapshot, SnapshotDatabase
from repro.crawler.exporters import (
    APK_CSV_HEADER,
    COMMENT_CSV_HEADER,
    SNAPSHOT_CSV_HEADER,
    export_apks_csv,
    export_comments_csv,
    export_snapshots_csv,
)
from tests.rows import add_apks, add_comments, add_snapshots


class TestSnapshotExport:
    def test_row_count_and_header(self, demo_campaign, tmp_path):
        path = tmp_path / "snapshots.csv"
        rows = export_snapshots_csv(demo_campaign.database, path)
        with path.open() as handle:
            reader = csv.reader(handle)
            header = next(reader)
            data = list(reader)
        assert "total_downloads" in header
        assert len(data) == rows
        assert rows > 0

    def test_store_filter(self, demo_campaign, tmp_path):
        path = tmp_path / "filtered.csv"
        rows = export_snapshots_csv(demo_campaign.database, path, store="demo")
        assert rows > 0
        empty_path = tmp_path / "empty.csv"
        assert export_snapshots_csv(
            demo_campaign.database, empty_path, store="ghost"
        ) == 0

    def test_values_round_trip(self, demo_campaign, tmp_path):
        path = tmp_path / "snapshots.csv"
        export_snapshots_csv(demo_campaign.database, path)
        with path.open() as handle:
            reader = csv.DictReader(handle)
            first = next(reader)
        day = int(first["day"])
        app_id = int(first["app_id"])
        snapshot = demo_campaign.database.snapshot("demo", day, app_id)
        assert snapshot is not None
        assert int(first["total_downloads"]) == snapshot.total_downloads
        assert first["category"] == snapshot.category


class TestCommentExport:
    def test_all_comments_exported(self, demo_campaign, tmp_path):
        path = tmp_path / "comments.csv"
        rows = export_comments_csv(demo_campaign.database, path)
        assert rows == demo_campaign.database.n_comments("demo")

    def test_ratings_in_range(self, demo_campaign, tmp_path):
        path = tmp_path / "comments.csv"
        export_comments_csv(demo_campaign.database, path)
        with path.open() as handle:
            for record in csv.DictReader(handle):
                assert 1 <= int(record["rating"]) <= 5


#: The reference database's comments, all in store "alpha".
COMMENTS = [(5, 1, 3, 4), (2, 2, 0, 1)]


def reference_database():
    """Two stores exercising every formatted field (prices, ads, floats)."""
    database = SnapshotDatabase()
    add_snapshots(
        database,
        [
            AppSnapshot(
                store=store,
                day=day,
                app_id=app_id,
                name=f"App {app_id}, deluxe",
                category="games & puzzles",
                developer_id=app_id + 100,
                price=price,
                declares_ads=ads,
                total_downloads=app_id * 1000 + day,
                rating_count=app_id * 3,
                average_rating=rating,
                comment_count=day,
                version_name=f"{day}.0",
            )
            for store, day, app_id, price, ads, rating in [
                ("alpha", 0, 2, 0.0, False, 4.12345),
                ("alpha", 0, 1, 0.99, True, 0.0),
                ("alpha", 3, 1, 0.99, True, 3.5),
                ("beta", 1, 9, 2.5, False, 2.0),
            ]
        ],
    )
    add_comments(database, "alpha", COMMENTS)
    add_apks(
        database,
        [
            ApkRecord(
                store="alpha",
                app_id=1,
                version_name="3.0",
                package_name="com.alpha.app1",
                size_mb=3.14159,
                embedded_libraries=("com.ads.sdk", "com.analytics"),
            ),
            ApkRecord(
                store="beta",
                app_id=9,
                version_name="1.0",
                package_name="com.beta.app9",
                size_mb=0.5,
                embedded_libraries=(),
            ),
        ],
    )
    return database


class TestByteIdentity:
    """The vectorized exporters must reproduce the row-at-a-time output
    byte for byte (a per-row reference writer lives in this test)."""

    def test_snapshots(self, tmp_path):
        database = reference_database()
        reference = tmp_path / "reference.csv"
        with reference.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SNAPSHOT_CSV_HEADER)
            for store in database.stores():
                for day in database.days(store):
                    for row in database.snapshots_on(store, day):
                        writer.writerow(
                            [
                                store,
                                day,
                                row.app_id,
                                row.name,
                                row.category,
                                row.developer_id,
                                row.price,
                                int(row.declares_ads),
                                row.total_downloads,
                                row.rating_count,
                                f"{row.average_rating:.4f}",
                                row.comment_count,
                                row.version_name,
                            ]
                        )
        exported = tmp_path / "exported.csv"
        export_snapshots_csv(database, exported)
        assert exported.read_bytes() == reference.read_bytes()

    def test_comments(self, tmp_path):
        database = reference_database()
        reference = tmp_path / "reference.csv"
        with reference.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(COMMENT_CSV_HEADER)
            for user_id, app_id, day, rating in COMMENTS:
                writer.writerow(["alpha", user_id, app_id, day, rating])
        exported = tmp_path / "exported.csv"
        export_comments_csv(database, exported)
        assert exported.read_bytes() == reference.read_bytes()

    def test_apks(self, tmp_path):
        database = reference_database()
        reference = tmp_path / "reference.csv"
        with reference.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(APK_CSV_HEADER)
            for store in database.stores():
                for record in database.apks(store):
                    writer.writerow(
                        [
                            store,
                            record.app_id,
                            record.version_name,
                            record.package_name,
                            f"{record.size_mb:.2f}",
                            ";".join(record.embedded_libraries),
                        ]
                    )
        exported = tmp_path / "exported.csv"
        export_apks_csv(database, exported)
        assert exported.read_bytes() == reference.read_bytes()

    def test_snapshots_on_campaign(self, demo_campaign, tmp_path):
        """Same check against a realistically crawled database."""
        database = demo_campaign.database
        reference = tmp_path / "reference.csv"
        with reference.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SNAPSHOT_CSV_HEADER)
            for store in database.stores():
                for day in database.days(store):
                    for row in database.snapshots_on(store, day):
                        writer.writerow(
                            [
                                store,
                                day,
                                row.app_id,
                                row.name,
                                row.category,
                                row.developer_id,
                                row.price,
                                int(row.declares_ads),
                                row.total_downloads,
                                row.rating_count,
                                f"{row.average_rating:.4f}",
                                row.comment_count,
                                row.version_name,
                            ]
                        )
        exported = tmp_path / "exported.csv"
        export_snapshots_csv(database, exported)
        assert exported.read_bytes() == reference.read_bytes()


class TestApkExport:
    def test_libraries_joined(self, demo_campaign, tmp_path):
        path = tmp_path / "apks.csv"
        rows = export_apks_csv(demo_campaign.database, path)
        assert rows == len(demo_campaign.database.apks("demo"))
        with path.open() as handle:
            record = next(csv.DictReader(handle))
        libraries = record["embedded_libraries"].split(";")
        assert all("." in library for library in libraries if library)
