"""Property-based exactness tests for the columnar snapshot database.

The columnar engine replaced a flat-dict database, and its contract is
that no interleaving of writes, no placement of seal points, and no
persistence cycle may change what the database *means*.  A miniature
flat-dict reference implementation lives in this test, with its own
implementation of the fingerprint's leaf/root digest written from the
format's definition (see ``repro.store.fingerprint``); hypothesis drives
arbitrary operation sequences against both and demands identical
fingerprints and identical query answers -- including after a save ->
load -> pack -> load trip through both on-disk formats.  The reference
also keeps the flat-dict database's canonical JSON record stream, so one
property checks that the digest tells two databases apart exactly when
that stream does.
"""

import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.database import ApkRecord, AppSnapshot, SnapshotDatabase
from repro.store import first_difference
from repro.store.schema import COMMENT_COLUMNS
from tests.rows import add_apks, add_comments, add_snapshots

STORES = ("alpha", "beta")
VERSIONS = ("1.0", "1.1", "2.0-rc", "0.9")
PRICES = (0.0, 0.99, 2.5)

# Leaf layouts of the fingerprint: (column, encoding) in column order.
SNAPSHOT_LEAF = (
    ("app_id", "int"),
    ("name", "str"),
    ("category", "str"),
    ("developer_id", "int"),
    ("price", "float"),
    ("declares_ads", "bool"),
    ("total_downloads", "int"),
    ("rating_count", "int"),
    ("average_rating", "float"),
    ("comment_count", "int"),
    ("version_name", "str"),
)
COMMENT_LEAF = (
    ("user_id", "int"),
    ("app_id", "int"),
    ("day", "int"),
    ("rating", "int"),
)
APK_LEAF = (
    ("app_id", "int"),
    ("version_name", "str"),
    ("package_name", "str"),
    ("size_mb", "float"),
    ("embedded_libraries", "strs"),
)
CANONICAL_NAN = bytes.fromhex("000000000000f87f")


def _count(value):
    return struct.pack("<q", value)


def _string_column(values):
    encoded = [value.encode("utf-8", "surrogatepass") for value in values]
    return (
        _count(len(encoded))
        + b"".join(_count(len(data)) for data in encoded)
        + b"".join(encoded)
    )


def column_bytes(encoding, values):
    """The canonical bytes of one leaf column, value by value."""
    if encoding == "int":
        return b"".join(struct.pack("<q", value) for value in values)
    if encoding == "float":
        return b"".join(
            CANONICAL_NAN if math.isnan(value) else struct.pack("<d", value)
            for value in values
        )
    if encoding == "bool":
        return bytes(1 if value else 0 for value in values)
    if encoding == "str":
        return _string_column(values)
    assert encoding == "strs"
    return (
        _count(len(values))
        + b"".join(_count(len(value)) for value in values)
        + _string_column([name for value in values for name in value])
    )


def leaf_line(kind, store, day, layout, records):
    """One leaf's JSON line of the root's input."""
    columns = {
        name: hashlib.sha256(
            column_bytes(encoding, [record[name] for record in records])
        ).hexdigest()
        for name, encoding in layout
    }
    leaf = {
        "columns": columns,
        "day": day,
        "kind": kind,
        "rows": len(records),
        "store": store,
    }
    return json.dumps(leaf, sort_keys=True) + "\n"


class LegacyReference:
    """The seed's flat-dict database, kept only to define exactness."""

    def __init__(self):
        self.snapshots = {}  # (store, day, app_id) -> record dict
        self.comments = {}  # store -> insertion-ordered record list
        self.apks = {}  # store -> {(app_id, version): record}, archive order
        self._comment_seen = set()

    def add_snapshot(self, record):
        key = (record["store"], record["day"], record["app_id"])
        self.snapshots[key] = record

    def add_comment(self, record):
        key = tuple(sorted(record.items()))
        if key in self._comment_seen:
            return
        self._comment_seen.add(key)
        self.comments.setdefault(record["store"], []).append(record)

    def add_apk(self, record):
        table = self.apks.setdefault(record["store"], {})
        table.setdefault((record["app_id"], record["version_name"]), record)

    def records(self):
        """The flat-dict database's canonical JSON record stream."""
        lines = []
        for key in sorted(self.snapshots):
            record = {"kind": "snapshot", **self.snapshots[key]}
            lines.append(json.dumps(record, sort_keys=True))
        for store in sorted(self.comments):
            ordered = sorted(
                self.comments[store],
                key=lambda r: (r["user_id"], r["app_id"], r["day"], r["rating"]),
            )
            for record in ordered:
                lines.append(json.dumps({"kind": "comment", **record}, sort_keys=True))
        for store in sorted(self.apks):
            for key in sorted(self.apks[store]):
                record = {"kind": "apk", **self.apks[store][key]}
                lines.append(json.dumps(record, sort_keys=True))
        return lines

    def fingerprint(self):
        """The leaf/root digest, computed from the flat dicts."""
        leaves = {}  # (kind, store, day or -1) -> JSON line
        for store, table in self.apks.items():
            records = [table[key] for key in sorted(table)]
            leaves[("apk", store, -1)] = leaf_line(
                "apk", store, None, APK_LEAF, records
            )
        for store, comments in self.comments.items():
            records = sorted(
                comments,
                key=lambda r: (r["user_id"], r["app_id"], r["day"], r["rating"]),
            )
            leaves[("comment", store, -1)] = leaf_line(
                "comment", store, None, COMMENT_LEAF, records
            )
        chunks = {}
        for (store, day, _), record in sorted(self.snapshots.items()):
            chunks.setdefault((store, day), []).append(record)
        for (store, day), records in chunks.items():
            leaves[("snapshot", store, day)] = leaf_line(
                "snapshot", store, day, SNAPSHOT_LEAF, records
            )
        digest = hashlib.sha256()
        for key in sorted(leaves):
            digest.update(leaves[key].encode("utf-8"))
        return digest.hexdigest()

    def days(self, store):
        return sorted({day for (s, day, _) in self.snapshots if s == store})

    def snapshots_on(self, store, day):
        rows = [
            AppSnapshot(**record)
            for (s, d, _), record in self.snapshots.items()
            if s == store and d == day
        ]
        return sorted(rows, key=lambda row: row.app_id)

    def comment_rows(self, store):
        return [
            (record["user_id"], record["app_id"], record["day"], record["rating"])
            for record in self.comments.get(store, [])
        ]

    def apk_rows(self, store):
        return [
            ApkRecord(
                store=record["store"],
                app_id=record["app_id"],
                version_name=record["version_name"],
                package_name=record["package_name"],
                size_mb=record["size_mb"],
                embedded_libraries=tuple(record["embedded_libraries"]),
            )
            for record in self.apks.get(store, {}).values()  # archive order
        ]

    def latest_versions(self, store):
        latest = {}
        for record in self.apks.get(store, {}).values():  # archive order
            latest[record["app_id"]] = record["version_name"]
        return latest


# One operation per tuple; the first element tags the kind.

snapshot_ops = st.tuples(
    st.just("snapshot"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=3),  # day
    st.integers(min_value=0, max_value=5),  # app_id
    st.integers(min_value=0, max_value=10**6),  # downloads
    st.sampled_from(PRICES),
    st.sampled_from(VERSIONS),
    st.booleans(),  # declares_ads
)

comment_ops = st.tuples(
    st.just("comment"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=3),  # user_id
    st.integers(min_value=0, max_value=5),  # app_id
    st.integers(min_value=0, max_value=3),  # day
    st.integers(min_value=1, max_value=5),  # rating
)

apk_ops = st.tuples(
    st.just("apk"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=5),  # app_id
    st.sampled_from(VERSIONS),
)

seal_ops = st.tuples(
    st.just("seal"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=3),  # day
)

operations = st.lists(
    st.one_of(snapshot_ops, comment_ops, apk_ops, seal_ops), max_size=40
)

# Values a byte encoding can get wrong: prefixes and concatenations of
# each other, a NUL, quotes, a backslash, non-ASCII (with a composed and
# a decomposed e-acute), a lone surrogate, two NaN payloads and -0.0.
EDGE_STRINGS = (
    "", "a", "ab", "b", "a\x00b", "\x00", 'q"uote', "\\", "\u00e9",
    "e\u0301", "\ud800", "\u00df",
)
OTHER_NAN = struct.unpack("<d", bytes.fromhex("0100000000fcffff"))[0]
EDGE_FLOATS = (0.0, -0.0, 1.5, math.nan, OTHER_NAN)

edge_snapshot_ops = st.tuples(
    st.just("edge-snapshot"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=2),  # day
    st.integers(min_value=0, max_value=3),  # app_id
    st.sampled_from(EDGE_STRINGS),  # name
    st.sampled_from(EDGE_STRINGS),  # category
    st.sampled_from(EDGE_FLOATS),  # price
    st.sampled_from(EDGE_FLOATS),  # average_rating
    st.sampled_from(EDGE_STRINGS),  # version_name
    st.integers(min_value=0, max_value=3),  # downloads
)

edge_apk_ops = st.tuples(
    st.just("edge-apk"),
    st.sampled_from(STORES),
    st.integers(min_value=0, max_value=3),  # app_id
    st.sampled_from(EDGE_STRINGS),  # version_name
    st.sampled_from(EDGE_STRINGS),  # package_name
    st.sampled_from(EDGE_FLOATS),  # size_mb
    st.lists(st.sampled_from(EDGE_STRINGS), max_size=3).map(tuple),
)

edge_operations = st.lists(
    st.one_of(edge_snapshot_ops, comment_ops, edge_apk_ops, seal_ops),
    max_size=30,
)


def add_snapshot(database, legacy, record):
    add_snapshots(database, [AppSnapshot(**record)])
    legacy.add_snapshot(record)


def add_apk(database, legacy, record):
    add_apks(
        database,
        [
            ApkRecord(
                **{**record, "embedded_libraries": tuple(record["embedded_libraries"])}
            )
        ],
    )
    legacy.add_apk(record)


def apply_operations(ops):
    """Replay one operation sequence into both implementations."""
    database = SnapshotDatabase()
    legacy = LegacyReference()
    for op in ops:
        if op[0] == "snapshot":
            _, store, day, app_id, downloads, price, version, ads = op
            add_snapshot(
                database,
                legacy,
                {
                    "store": store,
                    "day": day,
                    "app_id": app_id,
                    "name": f"app-{app_id}",
                    "category": f"cat-{app_id % 3}",
                    "developer_id": app_id + 100,
                    "price": price,
                    "declares_ads": ads,
                    "total_downloads": downloads,
                    "rating_count": downloads % 50,
                    "average_rating": 2.5,
                    "comment_count": downloads % 7,
                    "version_name": version,
                },
            )
        elif op[0] == "edge-snapshot":
            _, store, day, app_id, name, category, price, rating, version, n = op
            add_snapshot(
                database,
                legacy,
                {
                    "store": store,
                    "day": day,
                    "app_id": app_id,
                    "name": name,
                    "category": category,
                    "developer_id": n,
                    "price": price,
                    "declares_ads": n % 2 == 1,
                    "total_downloads": n,
                    "rating_count": n,
                    "average_rating": rating,
                    "comment_count": n,
                    "version_name": version,
                },
            )
        elif op[0] == "comment":
            _, store, user_id, app_id, day, rating = op
            add_comments(database, store, [(user_id, app_id, day, rating)])
            legacy.add_comment(
                {
                    "store": store,
                    "user_id": user_id,
                    "app_id": app_id,
                    "day": day,
                    "rating": rating,
                }
            )
        elif op[0] == "apk":
            _, store, app_id, version = op
            add_apk(
                database,
                legacy,
                {
                    "store": store,
                    "app_id": app_id,
                    "version_name": version,
                    "package_name": f"com.{store}.app{app_id}",
                    "size_mb": 1.5 + app_id,
                    "embedded_libraries": ["com.ads.sdk"] if app_id % 2 else [],
                },
            )
        elif op[0] == "edge-apk":
            _, store, app_id, version, package, size_mb, libraries = op
            add_apk(
                database,
                legacy,
                {
                    "store": store,
                    "app_id": app_id,
                    "version_name": version,
                    "package_name": package,
                    "size_mb": size_mb,
                    "embedded_libraries": list(libraries),
                },
            )
        else:  # a seal point: freeze whatever is buffered for (store, day)
            _, store, day = op
            database.columnar.seal_chunk(store, day)
    return database, legacy


def assert_same_answers(database, legacy):
    for store in STORES:
        assert database.days(store) == legacy.days(store)
        for day in legacy.days(store):
            assert database.snapshots_on(store, day) == legacy.snapshots_on(
                store, day
            )
        columns = database.comment_columns(store)
        assert list(
            zip(*(columns[name].tolist() for name in COMMENT_COLUMNS))
        ) == legacy.comment_rows(store)
        assert database.apks(store) == legacy.apk_rows(store)
        assert database.latest_versions(store) == legacy.latest_versions(store)


class TestExactness:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_matches_legacy_reference(self, ops):
        database, legacy = apply_operations(ops)
        assert database.fingerprint() == legacy.fingerprint()

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_queries_match_legacy_reference(self, ops):
        database, legacy = apply_operations(ops)
        assert_same_answers(database, legacy)

    @given(ops=operations)
    @settings(max_examples=20, deadline=None)
    def test_save_load_pack_load_cycle_is_lossless(self, ops):
        database, legacy = apply_operations(ops)
        expected = legacy.fingerprint()
        with tempfile.TemporaryDirectory() as tmp:
            jsonl = Path(tmp) / "crawl.jsonl"
            database.save(jsonl)
            loaded = SnapshotDatabase.load(jsonl)
            packed_path = Path(tmp) / "crawl.cstore"
            loaded.pack(packed_path)
            packed = SnapshotDatabase.load(packed_path)
            for replica in (loaded, packed):
                assert replica.fingerprint() == expected
                assert_same_answers(replica, legacy)
                for store in STORES:
                    assert replica.update_counts(store, 0, 3) == (
                        database.update_counts(store, 0, 3)
                    )

    @given(ops=edge_operations)
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_matches_reference_on_edge_values(self, ops):
        database, legacy = apply_operations(ops)
        assert database.fingerprint() == legacy.fingerprint()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fingerprints_equal_exactly_when_record_streams_are(self, data):
        """Two databases hash alike iff their canonical JSON record
        streams match, and the first-difference walk finds a difference
        iff they do not."""
        ops = data.draw(edge_operations)
        index = data.draw(st.integers(min_value=0, max_value=max(len(ops) - 1, 0)))
        replaced = data.draw(st.one_of(edge_snapshot_ops, edge_apk_ops, comment_ops))
        other = data.draw(
            st.one_of(
                st.permutations(ops),
                st.just(ops[:index] + ops[index + 1 :]),
                st.just(ops[:index] + [replaced] + ops[index + 1 :]),
                edge_operations,
            )
        )
        first, first_legacy = apply_operations(ops)
        second, second_legacy = apply_operations(other)
        same_stream = first_legacy.records() == second_legacy.records()
        assert (first.fingerprint() == second.fingerprint()) == same_stream
        difference = first_difference(first.columnar, second.columnar)
        assert (difference is None) == same_stream

    def test_columns_longer_than_a_join_block_match_reference(self):
        """Rows past the first 2,048 of a string column hash like the rest."""
        ops = []
        for app in range(5000):
            name = EDGE_STRINGS[app % len(EDGE_STRINGS)] * (app % 4)
            libraries = (name, "com.ads") if app % 2 else ()
            ops.append(
                ("edge-snapshot", "alpha", 1, app, name, f"c{app % 7}", 0.5, 1.0, "1.0", app)
            )
            ops.append(("edge-apk", "alpha", app, "1.0", f"p{app}", 2.0, libraries))
        database, legacy = apply_operations(ops)
        assert database.fingerprint() == legacy.fingerprint()
