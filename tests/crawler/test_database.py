"""Tests for repro.crawler.database."""

import json

import numpy as np
import pytest

from repro.crawler.database import ApkRecord, AppSnapshot, SnapshotDatabase
from repro.store.schema import COMMENT_COLUMNS
from tests.rows import add_apks, add_comments, add_snapshots


def snapshot(store="s", day=0, app_id=0, downloads=10, version="1.0", price=0.0):
    return AppSnapshot(
        store=store,
        day=day,
        app_id=app_id,
        name=f"app-{app_id}",
        category="games",
        developer_id=1,
        price=price,
        declares_ads=False,
        total_downloads=downloads,
        rating_count=0,
        average_rating=0.0,
        comment_count=0,
        version_name=version,
    )


def apk(store="s", app_id=0, version="1.0"):
    return ApkRecord(
        store=store,
        app_id=app_id,
        version_name=version,
        package_name=f"com.s.app{app_id}",
        size_mb=3.5,
        embedded_libraries=("com.adrift.sdk",),
    )


class TestSnapshots:
    def test_insert_and_query(self):
        database = SnapshotDatabase()
        add_snapshots(database, [snapshot(day=1, app_id=5)])
        assert database.stores() == ["s"]
        assert database.days("s") == [1]
        assert database.snapshot("s", 1, 5).app_id == 5
        assert database.snapshot("s", 1, 6) is None

    def test_overwrite_same_key(self):
        database = SnapshotDatabase()
        add_snapshots(database, [snapshot(day=1, app_id=5, downloads=10)])
        add_snapshots(database, [snapshot(day=1, app_id=5, downloads=20)])
        assert database.snapshot("s", 1, 5).total_downloads == 20
        assert len(database.snapshots_on("s", 1)) == 1

    def test_download_vector_ordered_by_app_id(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(day=0, app_id=2, downloads=30),
                snapshot(day=0, app_id=0, downloads=10),
                snapshot(day=0, app_id=1, downloads=20),
            ],
        )
        assert database.download_vector("s", 0).tolist() == [10, 20, 30]

    def test_download_vector_missing_day(self):
        database = SnapshotDatabase()
        with pytest.raises(KeyError):
            database.download_vector("s", 0)

    def test_download_deltas(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(day=0, app_id=1, downloads=10),
                snapshot(day=5, app_id=1, downloads=25),
                snapshot(day=5, app_id=2, downloads=7),
            ],
        )
        deltas = database.download_deltas("s", 0, 5)
        assert deltas[1] == 15
        assert deltas[2] == 7  # new app counted from zero

    def test_update_counts(self):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(day=0, app_id=1, version="1.0"),
                snapshot(day=1, app_id=1, version="1.1"),
                snapshot(day=2, app_id=1, version="1.2"),
                snapshot(day=0, app_id=2, version="1.0"),
                snapshot(day=2, app_id=2, version="1.0"),
            ],
        )
        counts = database.update_counts("s", 0, 2)
        assert counts[1] == 2
        assert counts[2] == 0

    def test_update_counts_matches_per_day_rescan(self):
        """The single grouped pass equals the legacy day-by-day rescan."""
        rng = np.random.default_rng(7)
        database = SnapshotDatabase()
        versions = [f"{major}.{minor}" for major in range(3) for minor in range(4)]
        for day in range(12):
            observed = rng.choice(60, size=rng.integers(10, 40), replace=False)
            add_snapshots(
                database,
                [
                    snapshot(
                        day=day,
                        app_id=app_id,
                        downloads=int(rng.integers(0, 10**6)),
                        version=versions[int(rng.integers(len(versions)))],
                    )
                    for app_id in observed.tolist()
                ],
            )

        def rescan(first_day, last_day):
            seen = {}
            for day in database.days("s"):
                if first_day <= day <= last_day:
                    for row in database.snapshots_on("s", day):
                        seen.setdefault(row.app_id, set()).add(row.version_name)
            return {
                app_id: max(len(names) - 1, 0)
                for app_id, names in seen.items()
            }

        for first_day, last_day in [(0, 11), (3, 8), (5, 5), (9, 2)]:
            assert database.update_counts("s", first_day, last_day) == rescan(
                first_day, last_day
            )


class TestComments:
    def test_deduplication(self):
        database = SnapshotDatabase()
        comment = (1, 2, 3, 4)
        add_comments(database, "s", [comment])
        add_comments(database, "s", [comment])  # daily re-crawl
        assert database.n_comments("s") == 1

    def test_columns_in_insertion_order(self):
        database = SnapshotDatabase()
        add_comments(database, "s", [(1, 5, 9, 3), (1, 4, 2, 5), (2, 4, 5, 1)])
        columns = database.comment_columns("s")
        assert list(columns) == list(COMMENT_COLUMNS)
        assert columns["user_id"].tolist() == [1, 1, 2]
        assert columns["day"].tolist() == [9, 2, 5]
        assert columns["rating"].tolist() == [3, 5, 1]

    def test_store_without_comments(self):
        columns = SnapshotDatabase().comment_columns("s")
        assert list(columns) == list(COMMENT_COLUMNS)
        assert all(
            array.size == 0 and array.dtype == COMMENT_COLUMNS[name]
            for name, array in columns.items()
        )

    def test_rating_bounds(self):
        database = SnapshotDatabase()
        add_comments(database, "s", [(1, 2, 0, 5)])
        assert database.comment_columns("s")["rating"].tolist() == [5]
        for rating in (0, 6):
            database = SnapshotDatabase()
            add_comments(database, "s", [(1, 2, 0, 3), (4, 2, 0, rating)])
            with pytest.raises(
                ValueError, match=f"store 's', comment row 1: .* got {rating}"
            ):
                database.comment_columns("s")


class TestApks:
    def test_version_stored_once(self):
        database = SnapshotDatabase()
        assert add_apks(database, [apk(version="1.0")])
        assert not add_apks(database, [apk(version="1.0")])
        assert add_apks(database, [apk(version="1.1")])
        assert len(database.apks("s")) == 2

    def test_latest_versions(self):
        database = SnapshotDatabase()
        assert database.latest_versions("s") == {}
        add_apks(
            database,
            [
                apk(app_id=1, version="1.0"),
                apk(app_id=2, version="3.0"),
                apk(app_id=1, version="1.1"),
            ],
        )
        assert database.latest_versions("s") == {1: "1.1", 2: "3.0"}
        assert database.latest_versions("other") == {}
        # Archived last, though its version string was interned first.
        add_apks(database, [apk(app_id=2, version="1.0")])
        assert database.latest_versions("s") == {1: "1.1", 2: "1.0"}

    def test_latest_apk_survives_round_trips(self, tmp_path):
        """"Latest" means most recently *archived*, and the explicit seq
        number keeps that true across JSONL and packed round trips even
        when archive order disagrees with version-string order."""
        database = SnapshotDatabase()
        add_apks(
            database,
            [
                apk(app_id=1, version="2.0"),
                apk(app_id=1, version="1.5"),  # archived later
                apk(app_id=2, version="0.9"),
                apk(app_id=2, version="0.10"),
            ],
        )
        expected = {1: "1.5", 2: "0.10"}
        assert database.latest_versions("s") == expected
        jsonl = tmp_path / "crawl.jsonl"
        database.save(jsonl)
        loaded = SnapshotDatabase.load(jsonl)
        assert loaded.latest_versions("s") == expected
        packed = tmp_path / "crawl.cstore"
        loaded.pack(packed)
        assert SnapshotDatabase.load(packed).latest_versions("s") == expected

    def test_apk_seq_written_to_jsonl_but_not_fingerprint(self, tmp_path):
        database = SnapshotDatabase()
        add_apks(database, [apk(app_id=3, version="1.0"), apk(app_id=3, version="1.1")])
        path = tmp_path / "crawl.jsonl"
        database.save(path)
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert [record["seq"] for record in records] == [0, 1]
        assert SnapshotDatabase.load(path).fingerprint() == database.fingerprint()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        database = SnapshotDatabase()
        add_snapshots(
            database,
            [
                snapshot(day=0, app_id=1, downloads=10),
                snapshot(day=1, app_id=1, downloads=20),
            ],
        )
        add_comments(database, "s", [(1, 1, 0, 5)])
        add_apks(database, [apk()])
        path = tmp_path / "crawl.jsonl"
        database.save(path)

        loaded = SnapshotDatabase.load(path)
        assert loaded.days("s") == [0, 1]
        assert loaded.snapshot("s", 1, 1).total_downloads == 20
        assert loaded.n_comments("s") == 1
        assert loaded.apks("s")[0].embedded_libraries == ("com.adrift.sdk",)

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            SnapshotDatabase.load(path)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_load_rejects_a_snapshot_with_other_fields(self, tmp_path, change):
        database = SnapshotDatabase()
        add_snapshots(database, [snapshot(day=0, app_id=1), snapshot(day=0, app_id=2)])
        path = tmp_path / "crawl.jsonl"
        database.save(path)
        first, second = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(second)
        if change == "missing":
            del record["price"]
        else:
            record["colour"] = "red"
        path.write_text(first + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="snapshot record fields"):
            SnapshotDatabase.load(path)
