"""The append-only columnar snapshot store.

:class:`ColumnarStore` is the engine behind
:class:`repro.crawler.database.SnapshotDatabase`: snapshots live in
per-(store, day) chunks sorted by app id, comments and APK index entries
in per-store insertion-ordered logs, and every string routes through
four intern tables.  All query helpers work directly on column arrays --
the façade only materializes dataclasses at its own edge.

Design invariants:

- **Append-only with overwrite-by-key semantics**: re-crawling a
  (store, day, app) replaces the row at seal time (stable last-write
  selection), never in place.
- **Zero-copy reads**: sealed columns are frozen; queries return views.
- **Exactness**: :meth:`fingerprint` is a root over per-(store, day)
  column digests that hash strings as resolved values, never intern
  ids, so a packed, mmap-backed dataset, a JSONL round trip and an
  in-memory crawl of the same observations hash alike, and
  :func:`~repro.store.fingerprint.first_difference` can name where two
  datasets part.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devtools.flow import pure
from repro.obs.metrics import get_registry
from repro.store.chunks import ApkLog, CommentLog, SnapshotChunk
from repro.store.dictionary import StringInterner, TupleInterner
from repro.store.fingerprint import fingerprint_leaves, fingerprint_root
from repro.store.schema import SNAPSHOT_COLUMNS

__all__ = [
    "ColumnarStore",
    "DownloadMatrix",
    "align_download_deltas",
    "grouped_update_counts",
]


@pure
def align_download_deltas(
    end_ids: np.ndarray,
    end_downloads: np.ndarray,
    start_ids: np.ndarray,
    start_downloads: np.ndarray,
) -> np.ndarray:
    """Download growth per end-day app, aligned against the start day.

    Apps absent on the start day count from zero.  A pure kernel: it
    copies ``end_downloads`` once and only mutates that copy.
    """
    deltas = end_downloads.astype(np.int64, copy=True)
    if start_ids.size:
        positions = np.searchsorted(start_ids, end_ids)
        positions = np.minimum(positions, start_ids.size - 1)
        found = start_ids[positions] == end_ids
        deltas -= np.where(found, start_downloads[positions], 0)
    return deltas


@pure
def grouped_update_counts(
    app_ids: np.ndarray, version_ids: np.ndarray, n_versions: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(app_ids, distinct-version counts minus one) in one grouped pass.

    Pair-encodes ``(app, version)`` so a single ``np.unique`` groups
    both dimensions; never negative, matching the legacy semantics.
    """
    pairs = app_ids * np.int64(n_versions) + version_ids
    unique_apps, version_counts = np.unique(
        np.unique(pairs) // np.int64(n_versions), return_counts=True
    )
    return unique_apps, np.maximum(version_counts - 1, 0)


class DownloadMatrix:
    """Dense days x apps download matrix of one store.

    ``matrix[i, j]`` is the total download count of app ``app_ids[j]``
    on crawl day ``days[i]``; ``present[i, j]`` records whether the app
    was actually observed that day (absent cells hold 0 downloads).
    """

    __slots__ = ("store", "days", "app_ids", "matrix", "present")

    def __init__(
        self,
        store: str,
        days: Tuple[int, ...],
        app_ids: np.ndarray,
        matrix: np.ndarray,
        present: np.ndarray,
    ) -> None:
        self.store = store
        self.days = days
        self.app_ids = app_ids
        self.matrix = matrix
        self.present = present


class ColumnarStore:
    """Columnar chunks + intern tables + per-store logs."""

    def __init__(self) -> None:
        self.names = StringInterner()
        self.categories = StringInterner()
        self.versions = StringInterner()
        self.packages = StringInterner()
        self.libsets = TupleInterner()
        self._chunks: Dict[Tuple[str, int], SnapshotChunk] = {}
        self._buffers: Dict[Tuple[str, int], Dict[str, List]] = {}
        self._comments: Dict[str, CommentLog] = {}
        self._apks: Dict[str, ApkLog] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _snapshot_buffers(self, store: str, day: int) -> Dict[str, List]:
        buffers = self._buffers.get((store, day))
        if buffers is None:
            buffers = {column: [] for column in SNAPSHOT_COLUMNS}
            self._buffers[(store, day)] = buffers
        return buffers

    def extend_snapshots(
        self, store: str, day: int, columns: Mapping[str, Sequence]
    ) -> None:
        """Bulk-buffer one day of snapshot rows from column sequences.

        ``columns`` holds one sequence per snapshot column, in row order.
        An intern-id column may come as ids from this store's tables
        (``name_id``, ``category_id``, ``version_id``) or as its strings
        (``name``, ``category``, ``version_name``).  Strings are interned
        in row order, so a day encodes the same whether it lands in one
        call or row by row.  Zero rows add nothing: no buffer, so no
        crawled day that a JSONL copy (one line per row) would not have.
        """
        strings = {
            "name_id": ("name", self.names),
            "category_id": ("category", self.categories),
            "version_id": ("version_name", self.versions),
        }
        sources = {}
        for column in SNAPSHOT_COLUMNS:
            if column in columns:
                sources[column] = columns[column]
            elif column in strings and strings[column][0] in columns:
                field, table = strings[column]
                # Lazy, so nothing is interned before the check below.
                sources[column] = map(table.intern, columns[field])
        missing = [column for column in SNAPSHOT_COLUMNS if column not in sources]
        if missing:
            raise KeyError(f"missing snapshot columns: {missing}")
        n_rows = len(columns["app_id"])
        if n_rows == 0:
            return
        buffers = self._snapshot_buffers(store, day)
        for column, values in sources.items():
            if isinstance(values, np.ndarray):
                values = values.tolist()
            buffers[column].extend(values)
        get_registry().counter("store.rows_ingested.snapshots").add(n_rows)

    def extend_comments(
        self, store: str, rows: Sequence[Tuple[int, int, int, int]]
    ) -> int:
        """Append ``(user_id, app_id, day, rating)`` rows to a store's log.

        A row is kept on the first sight of its identity (the whole
        tuple), in this call or an earlier one, so first-seen order
        survives.  Returns rows kept; zero rows add nothing, not even an
        empty log.
        """
        if not rows:
            return 0
        log = self._comments.get(store)
        if log is None:
            log = self._comments[store] = CommentLog(store)
        kept = log.extend(rows)
        if kept:
            get_registry().counter("store.rows_ingested.comments").add(kept)
        return kept

    def extend_apks(
        self, store: str, rows: Sequence[Tuple[int, str, str, float, Tuple[str, ...]]]
    ) -> int:
        """Archive ``(app_id, version_name, package_name, size_mb,
        embedded_libraries)`` rows, each (app, version) at most once.

        Every row's strings are interned in row order, kept or not, and
        kept rows take sequence numbers in row order.  Returns rows kept;
        zero rows add nothing.
        """
        if not rows:
            return 0
        log = self._apks.get(store)
        if log is None:
            log = self._apks[store] = ApkLog(store)
        versions, packages = self.versions.intern, self.packages.intern
        libsets = self.libsets.intern
        kept = log.extend(
            [
                (app_id, versions(version), packages(package), size_mb,
                 libsets(tuple(libraries)))
                for app_id, version, package, size_mb, libraries in rows
            ]
        )
        if kept:
            get_registry().counter("store.rows_ingested.apks").add(kept)
        return kept

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def seal_chunk(self, store: str, day: int) -> None:
        """Seal (or merge) the append buffer of one (store, day)."""
        buffers = self._buffers.pop((store, day), None)
        if buffers is None:
            return
        existing = self._chunks.get((store, day))
        if existing is None:
            self._chunks[(store, day)] = SnapshotChunk.seal(store, day, buffers)
        else:
            self._chunks[(store, day)] = existing.merge_with(buffers)

    def seal(self) -> None:
        """Seal every dirty snapshot buffer."""
        for store, day in sorted(self._buffers):
            self.seal_chunk(store, day)

    def _register_chunk(self, chunk: SnapshotChunk) -> None:
        """Attach an already-sealed (typically disk-backed) chunk."""
        self._chunks[(chunk.store, chunk.day)] = chunk

    def _register_comment_log(self, log: CommentLog) -> None:
        self._comments[log.store] = log

    def _register_apk_log(self, log: ApkLog) -> None:
        self._apks[log.store] = log

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def stores(self) -> List[str]:
        """Store names with any snapshots, comments, or APKs."""
        present = {key[0] for key in self._chunks}
        present.update(key[0] for key in self._buffers)
        present.update(self._comments)
        present.update(self._apks)
        return sorted(present)

    def snapshot_stores(self) -> List[str]:
        """Store names present in the snapshot chunks (legacy contract)."""
        present = {key[0] for key in self._chunks}
        present.update(key[0] for key in self._buffers)
        return sorted(present)

    def days(self, store: str) -> List[int]:
        """Crawled days of one store, ascending."""
        present = {day for (s, day) in self._chunks if s == store}
        present.update(day for (s, day) in self._buffers if s == store)
        return sorted(present)

    def chunk(self, store: str, day: int) -> Optional[SnapshotChunk]:
        """The sealed chunk of (store, day), sealing buffers on demand."""
        if (store, day) in self._buffers:
            self.seal_chunk(store, day)
        return self._chunks.get((store, day))

    def chunks(self, store: Optional[str] = None) -> Iterator[SnapshotChunk]:
        """Sealed chunks in (store, day) order, sealing dirty buffers."""
        self.seal()
        for key in sorted(self._chunks):
            if store is None or key[0] == store:
                yield self._chunks[key]

    def app_ids(self, store: str) -> np.ndarray:
        """Every app id ever observed in a store, sorted, as int64."""
        arrays = [chunk.app_ids() for chunk in self.chunks(store)]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))

    def n_snapshot_rows(self, store: Optional[str] = None) -> int:
        """Total snapshot rows, counted after sealing.

        Sealing de-duplicates first, so two writes to one (store, day,
        app) count as one row.
        """
        self.seal()
        return sum(
            chunk.n_rows
            for key, chunk in sorted(self._chunks.items())
            if store is None or key[0] == store
        )

    def comment_log(self, store: str) -> Optional[CommentLog]:
        """The comment log of one store, if any."""
        return self._comments.get(store)

    def apk_log(self, store: str) -> Optional[ApkLog]:
        """The APK log of one store, if any."""
        return self._apks.get(store)

    def comment_stores(self) -> List[str]:
        """Stores holding comments, sorted."""
        return sorted(self._comments)

    def apk_stores(self) -> List[str]:
        """Stores holding APK entries, sorted."""
        return sorted(self._apks)

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------

    def download_vector(self, store: str, day: int) -> np.ndarray:
        """Per-app downloads on one day, app-id order, zero-copy."""
        chunk = self.chunk(store, day)
        if chunk is None or chunk.n_rows == 0:
            raise KeyError(f"no snapshots for store {store!r} on day {day}")
        return chunk.column("total_downloads")

    def download_matrix(self, store: str) -> DownloadMatrix:
        """The dense days x apps download matrix of one store."""
        chunk_list = list(self.chunks(store))
        if not chunk_list:
            raise KeyError(f"no snapshots for store {store!r}")
        app_ids = np.unique(
            np.concatenate([chunk.app_ids() for chunk in chunk_list])
        )
        days = tuple(chunk.day for chunk in chunk_list)
        matrix = np.zeros((len(chunk_list), app_ids.size), dtype=np.int64)
        present = np.zeros((len(chunk_list), app_ids.size), dtype=np.bool_)
        for row, chunk in enumerate(chunk_list):
            positions = np.searchsorted(app_ids, chunk.app_ids())
            matrix[row, positions] = chunk.column("total_downloads")
            present[row, positions] = True
        return DownloadMatrix(store, days, app_ids, matrix, present)

    def download_deltas_arrays(
        self, store: str, first_day: int, last_day: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(app_ids, deltas) of download growth between two crawled days.

        Apps absent on ``first_day`` are counted from zero, matching the
        legacy dict query.  Ordered by app id.
        """
        end = self.chunk(store, last_day)
        if end is None or end.n_rows == 0:
            raise KeyError(f"no snapshots for store {store!r} on day {last_day}")
        end_ids = end.app_ids()
        start = self.chunk(store, first_day)
        if start is not None and start.n_rows:
            start_ids = start.app_ids()
            start_downloads = start.column("total_downloads")
        else:
            start_ids = np.empty(0, dtype=np.int64)
            start_downloads = np.empty(0, dtype=np.int64)
        deltas = align_download_deltas(
            end_ids, end.column("total_downloads"), start_ids, start_downloads
        )
        return end_ids, deltas

    def update_counts_arrays(
        self, store: str, first_day: int, last_day: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(app_ids, update counts) over a window, one grouped pass.

        Counts distinct version strings per app across every crawled day
        in ``[first_day, last_day]`` minus one, never negative -- the
        legacy semantics, without the O(days x total-rows) rescan.
        """
        id_parts: List[np.ndarray] = []
        version_parts: List[np.ndarray] = []
        for chunk in self.chunks(store):
            if first_day <= chunk.day <= last_day:
                id_parts.append(chunk.app_ids())
                version_parts.append(chunk.column("version_id"))
        if not id_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        app_ids = np.concatenate(id_parts)
        version_ids = np.concatenate(version_parts).astype(np.int64)
        return grouped_update_counts(
            app_ids, version_ids, max(len(self.versions), 1)
        )

    # ------------------------------------------------------------------
    # Fingerprint
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Order-independent SHA-256 of the stored observations.

        The root over per-(store, day) snapshot leaves and per-store
        comment and APK leaves, each holding one digest per column
        (:mod:`repro.store.fingerprint` defines the bytes).  Strings hash
        as resolved values, so in-memory, JSONL and packed copies of the
        same observations agree whatever order their strings were
        interned in.
        """
        return fingerprint_root(fingerprint_leaves(self))
