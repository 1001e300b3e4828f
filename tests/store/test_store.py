"""Unit tests for the repro.store columnar engine.

Covers the pieces individually: intern tables, chunk sealing with
last-write-wins, the insertion-ordered logs, and the vectorized query
helpers of :class:`ColumnarStore`.
"""

import numpy as np
import pytest

from repro.crawler.database import AppSnapshot
from repro.obs.metrics import get_registry
from repro.store import ColumnarStore
from repro.store.chunks import ApkLog, CommentLog, SnapshotChunk
from repro.store.dictionary import StringInterner, TupleInterner
from repro.store.schema import SNAPSHOT_COLUMNS
from tests.rows import add_snapshots


def add_row(
    store,
    name="s",
    day=0,
    app_id=0,
    downloads=10,
    version="1.0",
    price=0.0,
):
    add_snapshots(
        store,
        [
            AppSnapshot(
                store=name,
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
        ],
    )


class TestInterners:
    def test_first_occurrence_assigns_stable_ids(self):
        table = StringInterner()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.values() == ("a", "b")
        assert table.decode([1, 0, 1]) == ["b", "a", "b"]

    def test_string_json_round_trip_preserves_ids(self):
        table = StringInterner()
        for value in ["1.0", "2.0-rc", "1.0", "0.9"]:
            table.intern(value)
        rebuilt = StringInterner.from_json(table.to_json())
        assert rebuilt.values() == table.values()
        assert rebuilt.intern("2.0-rc") == table.intern("2.0-rc")

    def test_tuple_json_round_trip(self):
        table = TupleInterner()
        libset = ("com.ads.sdk", "com.analytics")
        assert table.intern(libset) == 0
        assert table.intern(()) == 1
        rebuilt = TupleInterner.from_json(table.to_json())
        assert rebuilt.values() == (libset, ())
        assert rebuilt.value(0) == libset


class TestSealing:
    def buffers(self, app_ids, downloads):
        buffers = {column: [] for column in SNAPSHOT_COLUMNS}
        for app_id, count in zip(app_ids, downloads):
            buffers["app_id"].append(app_id)
            buffers["name_id"].append(0)
            buffers["category_id"].append(0)
            buffers["developer_id"].append(1)
            buffers["price"].append(0.0)
            buffers["declares_ads"].append(False)
            buffers["total_downloads"].append(count)
            buffers["rating_count"].append(0)
            buffers["average_rating"].append(0.0)
            buffers["comment_count"].append(0)
            buffers["version_id"].append(0)
        return buffers

    def test_seal_sorts_and_keeps_last_write(self):
        chunk = SnapshotChunk.seal(
            "s", 0, self.buffers([5, 2, 5, 9, 2], [10, 20, 11, 30, 21])
        )
        assert chunk.n_rows == 3
        assert chunk.app_ids().tolist() == [2, 5, 9]
        assert chunk.column("total_downloads").tolist() == [21, 11, 30]

    def test_sealed_columns_are_frozen(self):
        chunk = SnapshotChunk.seal("s", 0, self.buffers([1], [10]))
        column = chunk.column("total_downloads")
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 99

    def test_merge_overwrites_existing_rows(self):
        chunk = SnapshotChunk.seal("s", 0, self.buffers([1, 2], [10, 20]))
        merged = chunk.merge_with(self.buffers([2, 3], [25, 7]))
        assert merged.app_ids().tolist() == [1, 2, 3]
        assert merged.column("total_downloads").tolist() == [10, 25, 7]

    def test_row_index_binary_search(self):
        chunk = SnapshotChunk.seal("s", 0, self.buffers([2, 5, 9], [1, 2, 3]))
        assert chunk.row_index(5) == 1
        assert chunk.row_index(9) == 2
        assert chunk.row_index(4) is None
        assert chunk.row_index(10) is None


class TestLogs:
    def test_comment_log_deduplicates(self):
        log = CommentLog("s")
        assert log.extend([(1, 2, 3, 4)]) == 1
        assert log.extend([(1, 2, 3, 4)]) == 0
        assert log.extend([(1, 2, 3, 5)]) == 1
        assert len(log) == 2

    def test_comment_log_arrays_keep_insertion_order(self):
        log = CommentLog("s")
        log.extend([(9, 1, 0, 5), (1, 1, 0, 3)])
        columns = log.arrays()
        assert columns["user_id"].tolist() == [9, 1]
        # Appending after a seal invalidates the cache and re-concatenates.
        log.extend([(4, 2, 1, 2)])
        assert log.arrays()["user_id"].tolist() == [9, 1, 4]

    def test_apk_log_at_most_once_with_seq(self):
        log = ApkLog("s")
        assert log.extend([(1, 0, 0, 3.5, 0)]) == 1
        assert log.extend([(1, 0, 0, 3.5, 0)]) == 0
        assert log.extend([(2, 0, 0, 3.5, 0)]) == 1
        log.arrays()  # seal a segment mid-stream
        assert log.extend([(1, 1, 0, 4.0, 0)]) == 1
        columns = log.arrays()
        assert columns["seq"].tolist() == [0, 1, 2]
        assert columns["app_id"].tolist() == [1, 2, 1]

    def test_tail_reads_the_last_rows_without_sealing(self):
        log = CommentLog("s")
        log.extend([(9, 1, 0, 5), (1, 2, 0, 3)])
        log.arrays()
        log.extend([(4, 3, 1, 2), (5, 4, 1, 1)])
        sealed = get_registry().counter("store.chunks_sealed").value
        assert log.tail("app_id", 2).tolist() == [3, 4]
        assert log.tail("app_id", 0).tolist() == []
        assert get_registry().counter("store.chunks_sealed").value == sealed
        # Rows older than the buffer come from the sealed segments.
        assert log.tail("app_id", 3).tolist() == [2, 3, 4]


class TestColumnarQueries:
    def test_download_vector_missing_day_raises(self):
        store = ColumnarStore()
        with pytest.raises(KeyError):
            store.download_vector("s", 0)

    def test_download_matrix_shape_and_presence(self):
        store = ColumnarStore()
        add_row(store, day=0, app_id=1, downloads=10)
        add_row(store, day=0, app_id=2, downloads=20)
        add_row(store, day=2, app_id=2, downloads=25)
        add_row(store, day=2, app_id=3, downloads=7)
        dm = store.download_matrix("s")
        assert dm.days == (0, 2)
        assert dm.app_ids.tolist() == [1, 2, 3]
        assert dm.matrix.tolist() == [[10, 20, 0], [0, 25, 7]]
        assert dm.present.tolist() == [[True, True, False], [False, True, True]]

    def test_download_deltas_arrays(self):
        store = ColumnarStore()
        add_row(store, day=0, app_id=1, downloads=10)
        add_row(store, day=5, app_id=1, downloads=25)
        add_row(store, day=5, app_id=2, downloads=7)
        app_ids, deltas = store.download_deltas_arrays("s", 0, 5)
        assert app_ids.tolist() == [1, 2]
        assert deltas.tolist() == [15, 7]

    def test_update_counts_arrays_counts_distinct_versions(self):
        store = ColumnarStore()
        add_row(store, day=0, app_id=1, version="1.0")
        add_row(store, day=1, app_id=1, version="1.1")
        add_row(store, day=2, app_id=1, version="1.0")  # revert: still 2 distinct
        add_row(store, day=0, app_id=2, version="1.0")
        add_row(store, day=2, app_id=2, version="1.0")
        add_row(store, day=2, app_id=3, version="3.0")
        app_ids, counts = store.update_counts_arrays("s", 0, 2)
        assert app_ids.tolist() == [1, 2, 3]
        assert counts.tolist() == [1, 0, 0]
        # Window trims the day-2 rows out.
        app_ids, counts = store.update_counts_arrays("s", 0, 1)
        assert app_ids.tolist() == [1, 2]
        assert counts.tolist() == [1, 0]

    def test_stores_vs_snapshot_stores(self):
        store = ColumnarStore()
        add_row(store, name="snaps-only")
        store.extend_comments("comments-only", [(1, 2, 3, 4)])
        assert store.stores() == ["comments-only", "snaps-only"]
        assert store.snapshot_stores() == ["snaps-only"]

    def test_extend_snapshots_matches_per_row_path(self):
        per_row = ColumnarStore()
        for app_id, downloads in [(3, 30), (1, 10), (2, 20)]:
            add_row(per_row, day=4, app_id=app_id, downloads=downloads)

        bulk = ColumnarStore()
        columns = {
            "app_id": np.array([3, 1, 2]),
            "name_id": np.array(
                [bulk.names.intern(f"app-{i}") for i in (3, 1, 2)]
            ),
            "category_id": np.full(3, bulk.categories.intern("games")),
            "developer_id": np.ones(3, dtype=np.int64),
            "price": np.zeros(3),
            "declares_ads": np.zeros(3, dtype=np.bool_),
            "total_downloads": np.array([30, 10, 20]),
            "rating_count": np.zeros(3, dtype=np.int64),
            "average_rating": np.zeros(3),
            "comment_count": np.zeros(3, dtype=np.int64),
            "version_id": np.full(3, bulk.versions.intern("1.0")),
        }
        bulk.extend_snapshots("s", 4, columns)
        assert bulk.fingerprint() == per_row.fingerprint()

    def test_extend_snapshots_interns_strings_in_row_order(self):
        """A day given as strings encodes exactly like per-row writes,
        and an APK of a row's version leaves the shared version table in
        the same order whether it lands per app or after the day."""
        rows = [
            (5, "beta", "tools", "2.0"),
            (2, "alpha", "games", "1.0"),
            (9, "gamma", "games", "2.0"),
            (2, "alpha", "games", "1.1"),
            (7, "delta", "music", "3.0"),
        ]

        def day_columns(day_rows):
            return {
                "app_id": [row[0] for row in day_rows],
                "name": [row[1] for row in day_rows],
                "category": [row[2] for row in day_rows],
                "developer_id": [1] * len(day_rows),
                "price": [0.5] * len(day_rows),
                "declares_ads": [True] * len(day_rows),
                "total_downloads": [10 * row[0] for row in day_rows],
                "rating_count": [row[0] for row in day_rows],
                "average_rating": [4.0] * len(day_rows),
                "comment_count": [0] * len(day_rows),
                "version_name": [row[3] for row in day_rows],
            }

        def apk_rows(day_rows):
            return [
                (app_id, version, f"pkg.{name}", 1.5, ())
                for app_id, name, _, version in day_rows
            ]

        per_row = ColumnarStore()
        for row in rows:
            per_row.extend_snapshots("s", 3, day_columns([row]))
            per_row.extend_apks("s", apk_rows([row]))

        bulk = ColumnarStore()
        bulk.extend_snapshots("s", 3, day_columns(rows))
        bulk.extend_apks("s", apk_rows(rows))

        for table in ("names", "categories", "versions", "packages"):
            assert getattr(bulk, table).values() == getattr(per_row, table).values()
        for column in SNAPSHOT_COLUMNS:
            assert (
                bulk.chunk("s", 3).column(column).tolist()
                == per_row.chunk("s", 3).column(column).tolist()
            )
        assert bulk.fingerprint() == per_row.fingerprint()

    def test_extend_snapshots_rejects_missing_columns(self):
        store = ColumnarStore()
        with pytest.raises(KeyError):
            store.extend_snapshots("s", 0, {"app_id": np.array([1])})

    def test_fingerprint_independent_of_insertion_order(self):
        forward = ColumnarStore()
        backward = ColumnarStore()
        rows = [
            ("a", 0, 1, 10, "1.0"),
            ("a", 0, 2, 20, "1.1"),
            ("b", 1, 1, 30, "2.0"),
        ]
        for name, day, app_id, downloads, version in rows:
            add_row(
                forward,
                name=name,
                day=day,
                app_id=app_id,
                downloads=downloads,
                version=version,
            )
            forward.seal()  # a seal point between every write
        for name, day, app_id, downloads, version in reversed(rows):
            add_row(
                backward,
                name=name,
                day=day,
                app_id=app_id,
                downloads=downloads,
                version=version,
            )
        assert forward.fingerprint() == backward.fingerprint()
