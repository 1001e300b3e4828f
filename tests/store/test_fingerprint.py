"""The fingerprint's canonical bytes and the first-difference walk.

``tests/properties/test_store_exactness.py`` holds the digest to an
independent reference under random write sequences; these tests pin the
edge cases one by one and the answers of :func:`first_difference`.
"""

import math
import struct

import numpy as np
import pytest

from repro.crawler.database import ApkRecord, AppSnapshot, SnapshotDatabase
from repro.store import ColumnarStore, Difference, first_difference
from repro.store.chunks import SnapshotChunk
from repro.store.fingerprint import _sorted_rows
from repro.store.schema import SNAPSHOT_COLUMNS
from tests.rows import add_apks, add_comments, add_snapshots

OTHER_NAN = struct.unpack("<d", bytes.fromhex("0100000000fcffff"))[0]


def snapshot(app_id, day=3, store="s", **fields):
    record = dict(
        store=store,
        day=day,
        app_id=app_id,
        name=f"app-{app_id}",
        category="games",
        developer_id=7,
        price=0.0,
        declares_ads=False,
        total_downloads=100 + app_id,
        rating_count=5,
        average_rating=4.0,
        comment_count=1,
        version_name="1.0",
    )
    record.update(fields)
    return AppSnapshot(**record)


def database_of(*snapshots, comments=(), apks=()):
    database = SnapshotDatabase()
    add_snapshots(database, snapshots)
    add_comments(database, "s", comments)
    add_apks(database, apks)
    return database


def apk(app_id, libraries=(), version="1.0", **fields):
    record = dict(
        store="s",
        app_id=app_id,
        version_name=version,
        package_name=f"com.s.app{app_id}",
        size_mb=2.5,
        embedded_libraries=tuple(libraries),
    )
    record.update(fields)
    return ApkRecord(**record)


class TestCanonicalBytes:
    @pytest.mark.parametrize("field", ["price", "average_rating"])
    def test_nan_payloads_hash_equal(self, field):
        quiet = database_of(snapshot(1, **{field: math.nan}))
        other = database_of(snapshot(1, **{field: OTHER_NAN}))
        stored = [
            db.columnar.chunk("s", 3).column(field).tobytes() for db in (quiet, other)
        ]
        assert stored[0] != stored[1]  # the payloads really differ
        assert quiet.fingerprint() == other.fingerprint()
        assert first_difference(quiet.columnar, other.columnar) is None

    def test_negative_zero_is_not_zero(self):
        positive = database_of(snapshot(1, price=0.0))
        negative = database_of(snapshot(1, price=-0.0))
        assert positive.fingerprint() != negative.fingerprint()
        assert first_difference(positive.columnar, negative.columnar) == Difference(
            "snapshot", "s", 3, "price", 1, 0.0, -0.0
        )

    @pytest.mark.parametrize(
        "left, right",
        [
            (("ab", "c"), ("a", "bc")),
            (("a\x00b", "c"), ("a", "b\x00c")),
            (('a","b', "c"), ("a", 'b","c')),
            (("a\\", "b"), ("a", "\\b")),
            (("\u00e9", "x"), ("e\u0301", "x")),
        ],
    )
    def test_strings_do_not_collide(self, left, right):
        databases = [
            database_of(*(snapshot(app, name=name) for app, name in enumerate(names)))
            for names in (left, right)
        ]
        assert databases[0].fingerprint() != databases[1].fingerprint()
        difference = first_difference(databases[0].columnar, databases[1].columnar)
        assert difference.column == "name"
        assert (difference.left, difference.right) == (left[0], right[0])

    @pytest.mark.parametrize(
        "left, right",
        [
            ([("a", "b")], [("ab",)]),
            ([("a", "b")], [("a\x00b",)]),
            ([("a", "", "b")], [("a", "b")]),
            ([()], [("",)]),
            ([("a",), ("b",)], [("a", "b"), ()]),
        ],
    )
    def test_library_sets_do_not_collide(self, left, right):
        databases = [
            database_of(apks=[apk(app, libraries) for app, libraries in enumerate(sets)])
            for sets in (left, right)
        ]
        assert databases[0].fingerprint() != databases[1].fingerprint()
        assert first_difference(
            databases[0].columnar, databases[1].columnar
        ) == Difference("apk", "s", None, "embedded_libraries", 0, left[0], right[0])

    def test_zero_row_chunk_adds_nothing(self):
        plain = database_of(snapshot(1))
        padded = database_of(snapshot(1))
        empty = {column: [] for column in SNAPSHOT_COLUMNS}
        padded.columnar._register_chunk(SnapshotChunk.seal("s", 9, empty))
        assert padded.days("s") == [3, 9]  # the empty chunk is there
        assert padded.fingerprint() == plain.fingerprint()
        assert first_difference(plain.columnar, padded.columnar) is None

    def test_intern_order_does_not_change_the_fingerprint(self):
        rows = [snapshot(app, category=f"cat-{app % 3}") for app in range(6)]
        forward = database_of(*rows)
        backward = SnapshotDatabase()
        for app in reversed(range(6)):
            backward.columnar.names.intern(f"app-{app}")
            backward.columnar.categories.intern(f"cat-{app % 3}")
        add_snapshots(backward, rows)
        ids = [
            db.columnar.chunk("s", 3).column("name_id").tolist()
            for db in (forward, backward)
        ]
        assert ids[0] != ids[1]  # the same names under other ids
        assert forward.fingerprint() == backward.fingerprint()

    def test_log_order_does_not_change_the_fingerprint(self):
        comments = [
            (2, 1, 4, 5), (1, 3, 4, 2), (1, 1, 5, 1), (1, 1, 4, 3), (2**62, 0, 1, 1),
        ]
        apks = [apk(2, version="1.10"), apk(2, version="1.9"), apk(1, version="2.0")]
        forward = database_of(comments=comments, apks=apks)
        backward = database_of(comments=comments[::-1], apks=apks[::-1])
        assert forward.fingerprint() == backward.fingerprint()


class TestSortedRows:
    @pytest.mark.parametrize("case", ["narrow", "wide", "near_max"])
    def test_matches_lexsort(self, case):
        rng = np.random.default_rng(5)
        unique = rng.permutation(500)
        if case == "narrow":  # packed into one key
            keys = [rng.integers(-9, 9, 500), rng.integers(-9, 9, 500), unique]
        elif case == "wide":  # too wide to pack: np.lexsort
            wide = [rng.integers(-(2**40), 2**40, 500) for _ in range(2)]
            keys = [*wide, unique]
        else:  # packs only once each key is offset by its low end
            keys = [rng.integers(0, 2, 500), np.iinfo(np.int64).max - unique]
        keys[0][::3] = keys[0][0]  # ties in the leading key
        assert np.array_equal(_sorted_rows(*keys), np.lexsort(keys[::-1]))


class TestFirstDifference:
    def test_identical_copies_have_none(self, tmp_path):
        database = SnapshotDatabase()
        add_apks(database, [apk(1, ("com.ads",), version="2.0")])
        add_snapshots(database, [snapshot(1), snapshot(2, day=4)])
        add_comments(database, "s", [(1, 2, 4, 5)])
        database.save(tmp_path / "copy.jsonl")
        database.pack(tmp_path / "copy.cstore")
        copies = [
            SnapshotDatabase.load(tmp_path / name) for name in ("copy.jsonl", "copy.cstore")
        ]
        # The JSONL load meets "1.0" before "2.0"; the crawl met "2.0" first.
        assert copies[0].columnar.versions.values() == ("1.0", "2.0")
        assert database.columnar.versions.values() == ("2.0", "1.0")
        for copy in copies:
            assert first_difference(database.columnar, copy.columnar) is None
        assert first_difference(ColumnarStore(), ColumnarStore()) is None

    def test_names_the_changed_value(self):
        rows = [snapshot(app, day=day) for day in (3, 4) for app in range(5)]
        changed = list(rows)
        changed[7] = snapshot(2, day=4, total_downloads=1)
        difference = first_difference(
            database_of(*rows).columnar, database_of(*changed).columnar
        )
        assert difference == Difference(
            "snapshot", "s", 4, "total_downloads", 2, 102, 1
        )
        assert difference.describe() == (
            "snapshot store 's' day 4, column total_downloads, app 2: A 102, B 1"
        )

    def test_names_an_app_seen_on_one_side(self):
        left = database_of(snapshot(1), snapshot(3))
        right = database_of(snapshot(1), snapshot(2), snapshot(3))
        assert first_difference(left.columnar, right.columnar) == Difference(
            "snapshot", "s", 3, "app_id", 2, None, 2
        )

    def test_names_a_missing_day(self):
        left = database_of(snapshot(1), snapshot(1, day=4), snapshot(2, day=4))
        right = database_of(snapshot(1))
        difference = first_difference(left.columnar, right.columnar)
        assert difference == Difference("snapshot", "s", 4, None, None, 2, None)
        assert difference.describe(("old", "new")) == (
            "snapshot store 's' day 4: old 2 rows, new absent"
        )

    def test_walks_leaves_in_kind_store_day_order(self):
        left = database_of(snapshot(1, price=1.0), apks=[apk(1, size_mb=1.0)])
        right = database_of(snapshot(1, price=2.0), apks=[apk(1, size_mb=2.0)])
        assert first_difference(left.columnar, right.columnar)[:4] == (
            "apk", "s", None, "size_mb"
        )

    def test_names_a_changed_comment_by_canonical_row(self):
        comments = [(user, app, 2, 3) for user, app in [(5, 1), (1, 9), (3, 4)]]
        changed = comments[:2] + [(3, 4, 2, 1)]
        difference = first_difference(
            database_of(comments=comments).columnar,
            database_of(comments=changed).columnar,
        )
        assert difference == Difference("comment", "s", None, "rating", 4, 3, 1)

    @pytest.mark.parametrize(
        "log, kept, expected",
        [
            # The last row missing: name the longer log's next row.
            ("comments", slice(None, 1), ("comment", "user_id", 2, 1, None)),
            # The first row missing shifts the rest up a row: name the
            # first row at which any column differs (app 1's comment,
            # not app 2's, which both sides hold).
            ("comments", slice(1, None), ("comment", "app_id", 1, 1, 2)),
            ("apks", slice(1, None), ("apk", "version_name", 1, "1.0", "2.0")),
        ],
        ids=["last-comment", "first-comment", "first-apk"],
    )
    def test_names_the_first_row_a_shorter_log_lacks(self, log, kept, expected):
        rows = {
            "comments": [(1, app, 2, 3) for app in (1, 2)],
            "apks": [apk(1, version="1.0"), apk(1, version="2.0"), apk(2)],
        }[log]
        difference = first_difference(
            database_of(**{log: rows}).columnar,
            database_of(**{log: rows[kept]}).columnar,
        )
        kind, column, app_id, left, right = expected
        assert difference == Difference(kind, "s", None, column, app_id, left, right)
