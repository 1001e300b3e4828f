"""Snapshot database: what the crawler stores, and what analyses consume.

The paper's crawlers write every observation to a local database: per-app
daily statistics, all user comments, and every APK version.  This module
is that database's façade over the out-of-core columnar engine in
:mod:`repro.store`.  The crawler lands each crawled day in the engine as
bulk appends (:func:`repro.crawler.crawler.commit_day`); the analyses
read columns (:meth:`SnapshotDatabase.snapshot_columns`,
:meth:`SnapshotDatabase.download_matrix`, the chunks themselves), and
the row-shaped queries (:meth:`SnapshotDatabase.snapshots_on`,
:meth:`SnapshotDatabase.snapshot`) stay for tests and tools that want
one record per row.  Snapshots live in per-(store, day) chunks sorted
by app id, so day queries are O(chunk) slices instead of full-database
scans; comments and APK index entries live in per-store
insertion-ordered logs.

Two persistence formats round-trip losslessly:

- **JSONL** (``save``/``load`` on a file): one record per line, the
  interchange format;
- **packed columnar** (``pack``/``load`` on a directory): one ``.npy``
  per column, read back zero-copy via ``np.load(mmap_mode="r")`` so a
  paper-scale crawl streams from disk instead of materializing.

Exactness contract: for the same observations, ``fingerprint()`` returns
the same hex no matter which path the data travelled (in-memory, JSONL
round trip, packed + mmap) -- the chaos suite depends on it.  The hex is
a root over per-(store, day) column digests that hash strings as
resolved values (:mod:`repro.store.fingerprint`), and
:func:`repro.store.first_difference` names the first (store, day,
column, app) at which two databases' columns part.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.marketplace.entities import Comment, is_free_price
from repro.store import (
    ColumnarStore,
    DownloadMatrix,
    SnapshotChunk,
    is_packed_dataset,
    open_store,
    pack_store,
)
from repro.store.schema import SNAPSHOT_COLUMNS


@dataclass(frozen=True)
class AppSnapshot:
    """One (app, day) observation from a crawl."""

    store: str
    day: int
    app_id: int
    name: str
    category: str
    developer_id: int
    price: float
    declares_ads: bool
    total_downloads: int
    rating_count: int
    average_rating: float
    comment_count: int
    version_name: str

    @property
    def is_free(self) -> bool:
        """Whether the app was listed as free on this crawl day."""
        return is_free_price(self.price)

    @property
    def is_paid(self) -> bool:
        """Whether the app was listed with a price on this crawl day."""
        return not is_free_price(self.price)


@dataclass(frozen=True)
class ApkRecord:
    """One APK version archived by the crawler."""

    store: str
    app_id: int
    version_name: str
    package_name: str
    size_mb: float
    embedded_libraries: Tuple[str, ...]


class SnapshotColumns:
    """Zero-copy columnar view of one (store, day) snapshot chunk.

    The vectorized counterpart of :meth:`SnapshotDatabase.snapshots_on`:
    ``column(name)`` returns the raw frozen array (string-valued fields
    as intern-table ids), ``decoded(name)`` a per-row string list, and
    the string tables themselves are exposed for bincount-style group
    work (``category_names`` et al., index == id).
    """

    def __init__(self, chunk: SnapshotChunk, store: ColumnarStore) -> None:
        self._chunk = chunk
        self._store = store

    @property
    def store(self) -> str:
        return self._chunk.store

    @property
    def day(self) -> int:
        return self._chunk.day

    @property
    def n_rows(self) -> int:
        return self._chunk.n_rows

    def column(self, name: str) -> np.ndarray:
        """One raw column array (``name_id`` etc. for string fields)."""
        return self._chunk.column(name)

    @property
    def app_ids(self) -> np.ndarray:
        return self._chunk.app_ids()

    @property
    def category_names(self) -> Tuple[str, ...]:
        return self._store.categories.values()

    @property
    def version_names(self) -> Tuple[str, ...]:
        return self._store.versions.values()

    def decoded(self, name: str) -> List[str]:
        """A string-valued column decoded to one string per row."""
        tables = {
            "name_id": self._store.names,
            "category_id": self._store.categories,
            "version_id": self._store.versions,
        }
        if name not in tables:
            raise KeyError(f"{name!r} is not a string-valued column")
        return tables[name].decode(self.column(name).tolist())


class SnapshotDatabase:
    """Crawl database façade over the columnar store.

    Snapshots are indexed by (store, day, app_id); comments and APKs are
    appended.  Query helpers return the shapes the analysis layer wants:
    per-app download vectors on a day, per-app deltas between days, and
    per-user comment streams -- plus columnar accessors
    (:meth:`snapshot_columns`, :meth:`download_matrix`) for analyses
    that want arrays instead of dataclasses.
    """

    def __init__(self, columnar: Optional[ColumnarStore] = None) -> None:
        self._store = columnar if columnar is not None else ColumnarStore()

    @property
    def columnar(self) -> ColumnarStore:
        """The backing columnar engine (column-shaped access)."""
        return self._store

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stores(self) -> List[str]:
        """Store names present in the database."""
        return self._store.snapshot_stores()

    def days(self, store: str) -> List[int]:
        """Crawled days for a store, ascending."""
        return self._store.days(store)

    def _materialize(self, chunk: SnapshotChunk, rows=None) -> List[AppSnapshot]:
        """Dataclass rows of one chunk (all rows, or a row selection)."""
        columns = {}
        for name in SNAPSHOT_COLUMNS:
            array = chunk.column(name)
            columns[name] = (array if rows is None else array[rows]).tolist()
        names = self._store.names.values()
        categories = self._store.categories.values()
        versions = self._store.versions.values()
        store, day = chunk.store, chunk.day
        return [
            AppSnapshot(
                store=store,
                day=day,
                app_id=app_id,
                name=names[name_id],
                category=categories[category_id],
                developer_id=developer_id,
                price=price,
                declares_ads=declares_ads,
                total_downloads=total_downloads,
                rating_count=rating_count,
                average_rating=average_rating,
                comment_count=comment_count,
                version_name=versions[version_id],
            )
            for (
                app_id,
                name_id,
                category_id,
                developer_id,
                price,
                declares_ads,
                total_downloads,
                rating_count,
                average_rating,
                comment_count,
                version_id,
            ) in zip(*(columns[name] for name in SNAPSHOT_COLUMNS))
        ]

    def snapshots_on(self, store: str, day: int) -> List[AppSnapshot]:
        """All app snapshots of a store on one day, ascending app id."""
        chunk = self._store.chunk(store, day)
        if chunk is None:
            return []
        return self._materialize(chunk)

    def snapshot(self, store: str, day: int, app_id: int) -> Optional[AppSnapshot]:
        """One observation, or None when the app was not crawled that day."""
        chunk = self._store.chunk(store, day)
        if chunk is None:
            return None
        row = chunk.row_index(app_id)
        if row is None:
            return None
        return self._materialize(chunk, rows=np.array([row]))[0]

    def app_ids(self, store: str) -> List[int]:
        """Every app ever observed in a store."""
        return self._store.app_ids(store).tolist()

    def snapshot_columns(
        self, store: str, day: int
    ) -> Optional[SnapshotColumns]:
        """Columnar view of one (store, day), or None when not crawled."""
        chunk = self._store.chunk(store, day)
        if chunk is None:
            return None
        return SnapshotColumns(chunk, self._store)

    def download_vector(self, store: str, day: int) -> np.ndarray:
        """Per-app total downloads on a day (order: ascending app id).

        A zero-copy, read-only view of the chunk's column; ``.astype``
        or ``np.array(...)`` it before mutating.
        """
        return self._store.download_vector(store, day)

    def download_matrix(self, store: str) -> DownloadMatrix:
        """Dense days x apps download matrix of one store (vectorized)."""
        return self._store.download_matrix(store)

    def download_deltas(
        self, store: str, first_day: int, last_day: int
    ) -> Dict[int, int]:
        """Per-app download growth between two crawled days.

        Apps that appeared after ``first_day`` are counted from zero.
        """
        app_ids, deltas = self._store.download_deltas_arrays(
            store, first_day, last_day
        )
        return dict(zip(app_ids.tolist(), deltas.tolist()))

    def update_counts(
        self, store: str, first_day: int, last_day: int
    ) -> Dict[int, int]:
        """Per-app number of version changes observed between two days.

        One grouped pass over the window's chunks (the legacy
        implementation re-scanned the whole database once per day).
        """
        app_ids, counts = self._store.update_counts_arrays(
            store, first_day, last_day
        )
        return dict(zip(app_ids.tolist(), counts.tolist()))

    def n_comments(self, store: str) -> int:
        """Number of comments of a store, without building them."""
        log = self._store.comment_log(store)
        return 0 if log is None else len(log)

    def comments(self, store: str) -> List[Comment]:
        """All comments of a store in insertion order."""
        log = self._store.comment_log(store)
        if log is None or len(log) == 0:
            return []
        columns = log.arrays()
        return [
            Comment(user_id=user_id, app_id=app_id, day=day, rating=rating)
            for user_id, app_id, day, rating in zip(
                columns["user_id"].tolist(),
                columns["app_id"].tolist(),
                columns["day"].tolist(),
                columns["rating"].tolist(),
            )
        ]

    def comment_streams(self, store: str) -> Dict[int, List[Comment]]:
        """Per-user comment streams in chronological order."""
        streams: Dict[int, List[Comment]] = {}
        for comment in self.comments(store):
            streams.setdefault(comment.user_id, []).append(comment)
        for stream in streams.values():
            stream.sort(key=lambda c: c.day)
        return streams

    def apks(self, store: str) -> List[ApkRecord]:
        """All archived APK versions for a store, archive order."""
        log = self._store.apk_log(store)
        if log is None or len(log) == 0:
            return []
        columns = log.arrays()
        versions = self._store.versions.values()
        packages = self._store.packages.values()
        libsets = self._store.libsets.values()
        order = np.argsort(columns["seq"], kind="stable")
        return [
            ApkRecord(
                store=store,
                app_id=app_id,
                version_name=versions[version_id],
                package_name=packages[package_id],
                size_mb=size_mb,
                embedded_libraries=libsets[libset_id],
            )
            for app_id, version_id, package_id, size_mb, libset_id in zip(
                columns["app_id"][order].tolist(),
                columns["version_id"][order].tolist(),
                columns["package_id"][order].tolist(),
                columns["size_mb"][order].tolist(),
                columns["libset_id"][order].tolist(),
            )
        ]

    def latest_apk_per_app(self, store: str) -> Dict[int, ApkRecord]:
        """The most recently archived APK version of every app.

        "Latest" is defined by the explicit archive sequence number each
        entry carries, not by container order -- a save/load round trip
        or chunk-sorted storage can never silently reorder it.
        """
        log = self._store.apk_log(store)
        if log is None or len(log) == 0:
            return {}
        columns = log.arrays()
        # Sort by (app_id, seq); the last row of each app run is the
        # highest sequence number, i.e. the most recent archive.
        order = np.lexsort((columns["seq"], columns["app_id"]))
        app_ids = columns["app_id"][order]
        keep = np.empty(app_ids.size, dtype=np.bool_)
        keep[:-1] = app_ids[1:] != app_ids[:-1]
        keep[-1] = True
        rows = order[keep]
        versions = self._store.versions.values()
        packages = self._store.packages.values()
        libsets = self._store.libsets.values()
        return {
            app_id: ApkRecord(
                store=store,
                app_id=app_id,
                version_name=versions[version_id],
                package_name=packages[package_id],
                size_mb=size_mb,
                embedded_libraries=libsets[libset_id],
            )
            for app_id, version_id, package_id, size_mb, libset_id in zip(
                columns["app_id"][rows].tolist(),
                columns["version_id"][rows].tolist(),
                columns["package_id"][rows].tolist(),
                columns["size_mb"][rows].tolist(),
                columns["libset_id"][rows].tolist(),
            )
        }

    def fingerprint(self) -> str:
        """Order-independent SHA-256 over the full database contents.

        Two databases holding the same observations hash identically no
        matter what order the crawler recorded them in -- which is what
        lets chaos tests assert that a crawl under an aggressive fault
        plan recovered the *exact* dataset of the fault-free run.  The
        hex is byte-identical across the in-memory, JSONL, and packed
        columnar representations of the same observations: it is the
        root over one leaf per (store, day) of snapshots and one per
        store of comments and of APKs, each leaf holding one digest per
        column, with strings hashed as resolved values rather than
        intern ids (see :mod:`repro.store.fingerprint`).
        """
        return self._store.fingerprint()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def dump_jsonl(self, handle) -> int:
        """Stream the database as JSONL to a text handle; returns lines.

        Snapshots stream in canonical chunk order, comments in insertion
        order, APKs in archive order.  APK records carry their archive
        sequence number (``seq``) so the "latest version" ordering
        survives any re-serialization; readers that predate the field
        simply ignore it.
        """
        lines = 0
        for chunk in self._store.chunks():
            for snapshot in self._materialize(chunk):
                record = {
                    "kind": "snapshot",
                    "store": snapshot.store,
                    "day": snapshot.day,
                    "app_id": snapshot.app_id,
                    "name": snapshot.name,
                    "category": snapshot.category,
                    "developer_id": snapshot.developer_id,
                    "price": snapshot.price,
                    "declares_ads": snapshot.declares_ads,
                    "total_downloads": snapshot.total_downloads,
                    "rating_count": snapshot.rating_count,
                    "average_rating": snapshot.average_rating,
                    "comment_count": snapshot.comment_count,
                    "version_name": snapshot.version_name,
                }
                handle.write(json.dumps(record) + "\n")
                lines += 1
        for store in self._store.comment_stores():
            for comment in self.comments(store):
                handle.write(
                    json.dumps(
                        {
                            "kind": "comment",
                            "store": store,
                            "user_id": comment.user_id,
                            "app_id": comment.app_id,
                            "day": comment.day,
                            "rating": comment.rating,
                        }
                    )
                    + "\n"
                )
                lines += 1
        for store in self._store.apk_stores():
            for sequence, apk in enumerate(self.apks(store)):
                handle.write(
                    json.dumps(
                        {
                            "kind": "apk",
                            "store": apk.store,
                            "app_id": apk.app_id,
                            "version_name": apk.version_name,
                            "package_name": apk.package_name,
                            "size_mb": apk.size_mb,
                            "embedded_libraries": list(apk.embedded_libraries),
                            "seq": sequence,
                        }
                    )
                    + "\n"
                )
                lines += 1
        return lines

    def save(self, path) -> None:
        """Write the database to a JSONL file."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            self.dump_jsonl(handle)

    def pack(self, path) -> int:
        """Write the packed columnar form; returns bytes on disk."""
        return pack_store(self._store, path)

    @classmethod
    def load(cls, path) -> "SnapshotDatabase":
        """Read a database saved as JSONL, or open a packed directory.

        A packed directory opens lazily: columns are mmap-loaded on
        first touch, so the resident set stays a small fraction of the
        dataset (see docs/architecture.md, "Out-of-core columnar
        snapshot store").
        """
        path = Path(path)
        if is_packed_dataset(path):
            return cls(columnar=open_store(path))
        database = cls()
        with path.open("r", encoding="utf-8") as handle:
            records = (json.loads(line) for line in handle if line.strip())
            for key, run in itertools.groupby(records, key=_run_key):
                while batch := list(itertools.islice(run, _LOAD_BATCH)):
                    _land_records(database._store, key, batch)
        return database


#: Each JSONL record kind's fields besides ``kind``, ``store`` and a
#: snapshot's ``day``, in the order its bulk append takes them.
_ROW_FIELDS = {
    "snapshot": tuple(
        field.name for field in fields(AppSnapshot) if field.name not in ("store", "day")
    ),
    "comment": ("user_id", "app_id", "day", "rating"),
    "apk": tuple(field.name for field in fields(ApkRecord) if field.name != "store"),
}
#: The fields each record kind must carry.  An APK record may also carry
#: its archive ``seq``, which loading re-assigns.
_RECORD_FIELDS = {kind: {"kind", "store", *names} for kind, names in _ROW_FIELDS.items()}
_RECORD_FIELDS["snapshot"].add("day")
#: Records per bulk append when loading JSONL, so a long run (one
#: store's comments) never sits in memory whole.
_LOAD_BATCH = 1 << 16


def _run_key(record: dict) -> Tuple[str, str, Optional[int]]:
    """The bulk append a JSONL record joins: its kind, store and, for a
    snapshot, day.  Raises on an unknown kind or a missing or extra
    field, so a malformed file never loads as something else."""
    kind = record.get("kind")
    if kind not in _RECORD_FIELDS:
        raise ValueError(f"unknown record kind {kind!r}")
    present = record.keys() - {"seq"} if kind == "apk" else record.keys()
    if present != _RECORD_FIELDS[kind]:
        raise ValueError(
            f"{kind} record fields {sorted(record)} differ from "
            f"{sorted(_RECORD_FIELDS[kind])}"
        )
    return kind, record["store"], record["day"] if kind == "snapshot" else None


def _land_records(
    columnar: ColumnarStore, key: Tuple[str, str, Optional[int]], records: List[dict]
) -> None:
    """Append one batch of same-key JSONL records in file order."""
    kind, store, day = key
    names = _ROW_FIELDS[kind]
    if kind == "snapshot":
        columns = {name: [record[name] for record in records] for name in names}
        columnar.extend_snapshots(store, day, columns)
        return
    rows = [tuple(record[name] for name in names) for record in records]
    if kind == "comment":
        columnar.extend_comments(store, rows)
    else:
        columnar.extend_apks(store, rows)
