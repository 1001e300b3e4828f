"""Append buffers and sealed chunks: the store's write and read units.

Writes accumulate in plain-list **append buffers** (a crawled day lands
as one bulk extend per column; everything downstream is arrays).  A
buffer **seals** into an immutable chunk: columns become
numpy arrays, snapshot rows are stable-sorted by ``app_id`` with
last-write-wins de-duplication (re-crawls overwrite), and the arrays are
frozen (``writeable = False``) so query paths can hand them out
zero-copy.

Chunks read back from a packed dataset carry a *loader* instead of
materialized arrays; each column is ``np.load``-ed with ``mmap_mode="r"``
the first time something touches it, which is what keeps a paper-scale
dataset's resident set tiny (see :mod:`repro.store.disk`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import get_registry
from repro.store.schema import (
    APK_COLUMNS,
    COMMENT_COLUMNS,
    SNAPSHOT_COLUMNS,
)

__all__ = [
    "ApkLog",
    "AppendLog",
    "CommentLog",
    "SnapshotChunk",
    "seal_columns",
]

#: ``column(...)`` loader signature for disk-backed chunks.
ColumnLoader = Callable[[str], np.ndarray]


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array immutable so views can be shared zero-copy."""
    if array.flags.writeable:
        array.flags.writeable = False
    return array


def seal_columns(
    buffers: Dict[str, List], schema: Dict[str, np.dtype]
) -> Dict[str, np.ndarray]:
    """Convert per-column append lists into frozen arrays."""
    return {
        name: _freeze(np.asarray(buffers[name], dtype=dtype))
        for name, dtype in schema.items()
    }


def _last_write_order(app_ids: np.ndarray) -> np.ndarray:
    """Row selection that sorts by app id, keeping only the last write.

    The stable sort preserves insertion order within one app id, so the
    final row of each run is the most recent write -- the same semantics
    as the legacy ``dict[(store, day, app_id)]`` overwrite.
    """
    order = np.argsort(app_ids, kind="stable")
    sorted_ids = app_ids[order]
    keep = np.empty(sorted_ids.size, dtype=np.bool_)
    if keep.size:
        keep[:-1] = sorted_ids[1:] != sorted_ids[:-1]
        keep[-1] = True
    return order[keep]


class SnapshotChunk:
    """One immutable (store, day) slice of snapshot columns.

    Rows are sorted by ``app_id`` and unique per app.  ``source`` is
    ``"memory"`` for chunks sealed in-process and ``"mmap"`` for chunks
    opened from a packed dataset; every column access bumps the matching
    ``store.column_reads.*`` counter so a run can report how much of it
    streamed from disk.
    """

    __slots__ = ("store", "day", "n_rows", "source", "_columns", "_loader")

    def __init__(
        self,
        store: str,
        day: int,
        n_rows: int,
        columns: Optional[Dict[str, np.ndarray]] = None,
        loader: Optional[ColumnLoader] = None,
        source: str = "memory",
    ) -> None:
        if columns is None and loader is None:
            raise ValueError("chunk needs columns or a loader")
        self.store = store
        self.day = day
        self.n_rows = n_rows
        self.source = source
        self._columns: Dict[str, np.ndarray] = dict(columns or {})
        self._loader = loader

    @classmethod
    def seal(
        cls, store: str, day: int, buffers: Dict[str, List]
    ) -> "SnapshotChunk":
        """Seal one append buffer into a sorted, de-duplicated chunk."""
        raw = seal_columns(buffers, SNAPSHOT_COLUMNS)
        rows = _last_write_order(raw["app_id"])
        columns = {
            name: _freeze(np.ascontiguousarray(array[rows]))
            for name, array in raw.items()
        }
        get_registry().counter("store.chunks_sealed").add(1)
        return cls(store, day, int(rows.size), columns=columns)

    def merge_with(self, buffers: Dict[str, List]) -> "SnapshotChunk":
        """A new chunk with this chunk's rows plus later buffered writes.

        Buffer rows are appended *after* the existing rows, so the
        stable last-write-wins selection lets them overwrite.
        """
        raw = seal_columns(buffers, SNAPSHOT_COLUMNS)
        merged = {
            name: np.concatenate([self.column(name), raw[name]])
            for name in SNAPSHOT_COLUMNS
        }
        rows = _last_write_order(merged["app_id"])
        columns = {
            name: _freeze(np.ascontiguousarray(array[rows]))
            for name, array in merged.items()
        }
        registry = get_registry()
        registry.counter("store.chunks_sealed").add(1)
        registry.counter("store.chunk_merges").add(1)
        return SnapshotChunk(self.store, self.day, int(rows.size), columns=columns)

    def column(self, name: str) -> np.ndarray:
        """One frozen column array (mmap-loaded on first touch)."""
        array = self._columns.get(name)
        if array is None:
            if self._loader is None:
                raise KeyError(name)
            array = _freeze(self._loader(name))
            self._columns[name] = array
        get_registry().counter(f"store.column_reads.{self.source}").add(1)
        return array

    def app_ids(self) -> np.ndarray:
        """The sorted app-id column."""
        return self.column("app_id")

    def row_index(self, app_id: int) -> Optional[int]:
        """Row position of one app, or None when absent (binary search)."""
        app_ids = self.app_ids()
        position = int(np.searchsorted(app_ids, app_id))
        if position < app_ids.size and int(app_ids[position]) == app_id:
            return position
        return None


class AppendLog:
    """Insertion-ordered columnar log (base for comments and APKs).

    Sealed segments plus one active append buffer; ``arrays()`` seals the
    buffer and concatenates segments (cached until the next append).  A
    disk-backed log starts from a lazily mmap-loaded base segment.
    """

    schema: Dict[str, np.dtype] = {}

    def __init__(
        self,
        store: str,
        n_base_rows: int = 0,
        loader: Optional[ColumnLoader] = None,
        source: str = "memory",
    ) -> None:
        self.store = store
        self.source = source if loader is not None else "memory"
        self._loader = loader
        self._base_rows = n_base_rows if loader is not None else 0
        self._segments: List[Dict[str, np.ndarray]] = []
        self._sealed_rows = 0
        self._buffers: Dict[str, List] = {name: [] for name in self.schema}
        self._buffered = 0
        self._cache: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        return self._base_rows + self._sealed_rows + self._buffered

    def append_rows(self, rows: List[Tuple]) -> None:
        """Append rows, each given in schema column order."""
        if not rows:
            return
        for name, values in zip(self.schema, zip(*rows)):
            self._buffers[name].extend(values)
        self._buffered += len(rows)
        self._cache = None

    def tail(self, name: str, n: int) -> np.ndarray:
        """The last ``n`` values of one column.  Rows still in the append
        buffer are read from it, so reading what was just appended seals
        nothing."""
        if n <= self._buffered:
            values = self._buffers[name]
            return np.array(values[len(values) - n:], dtype=self.schema[name])
        return self.arrays()[name][len(self) - n:]

    def _load_base(self) -> Optional[Dict[str, np.ndarray]]:
        if self._loader is None:
            return None
        columns = {
            name: _freeze(self._loader(name)) for name in self.schema
        }
        get_registry().counter(f"store.column_reads.{self.source}").add(
            len(columns)
        )
        return columns

    def arrays(self) -> Dict[str, np.ndarray]:
        """All rows as one frozen array per column, insertion order."""
        if self._cache is not None:
            get_registry().counter("store.column_reads.memory").add(1)
            return self._cache
        if self._buffered:
            self._segments.append(seal_columns(self._buffers, self.schema))
            self._sealed_rows += self._buffered
            self._buffers = {name: [] for name in self.schema}
            self._buffered = 0
            get_registry().counter("store.chunks_sealed").add(1)
        base = self._load_base()
        if base is not None:
            self._loader = None
            self._segments.insert(0, base)
            self._sealed_rows += self._base_rows
            self._base_rows = 0
        if len(self._segments) == 1:
            self._cache = self._segments[0]
        else:
            self._cache = {
                name: _freeze(
                    np.concatenate([segment[name] for segment in self._segments])
                    if self._segments
                    else np.empty(0, dtype=dtype)
                )
                for name, dtype in self.schema.items()
            }
            self._segments = [self._cache]
        return self._cache


class CommentLog(AppendLog):
    """Per-store comment log with cross-crawl de-duplication."""

    schema = COMMENT_COLUMNS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seen: set = set()
        if self._loader is not None:
            # Disk-backed logs hydrate the dedupe set on first write,
            # not at open time (read-only workloads never pay for it).
            self._seen_hydrated = False
        else:
            self._seen_hydrated = True

    def _hydrate_seen(self) -> None:
        if self._seen_hydrated:
            return
        columns = self.arrays()
        self._seen.update(
            zip(
                columns["user_id"].tolist(),
                columns["app_id"].tolist(),
                columns["day"].tolist(),
                columns["rating"].tolist(),
            )
        )
        self._seen_hydrated = True

    def extend(
        self, rows: Union[np.ndarray, Sequence[Tuple[int, int, int, int]]]
    ) -> int:
        """Append ``(user_id, app_id, day, rating)`` rows (an ``(n, 4)``
        array or a sequence of 4-tuples) in order, each only on the first
        sight of its identity key, whether the key came earlier in
        ``rows`` or in an earlier call; returns rows kept."""
        self._hydrate_seen()
        seen = self._seen
        fresh = []
        for key in map(tuple, np.asarray(rows).tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(key)
        self.append_rows(fresh)
        return len(fresh)


class ApkLog(AppendLog):
    """Per-store APK archive with at-most-once versions and seq numbers."""

    schema = APK_COLUMNS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._keys: set = set()
        self._next_seq = len(self)
        self._keys_hydrated = self._loader is None

    def _hydrate_keys(self) -> None:
        if self._keys_hydrated:
            return
        columns = self.arrays()
        self._keys.update(
            zip(columns["app_id"].tolist(), columns["version_id"].tolist())
        )
        self._next_seq = (
            int(columns["seq"].max()) + 1 if columns["seq"].size else 0
        )
        self._keys_hydrated = True

    def extend(self, rows: Iterable[Tuple[int, int, int, float, int]]) -> int:
        """Archive ``(app_id, version_id, package_id, size_mb, libset_id)``
        rows in order, each (app, version) at most once; kept rows take
        the next sequence numbers.  Returns rows kept."""
        self._hydrate_keys()
        keys = self._keys
        fresh = []
        for app_id, version_id, package_id, size_mb, libset_id in rows:
            key = (app_id, version_id)
            if key in keys:
                continue
            keys.add(key)
            fresh.append(
                (app_id, version_id, package_id, size_mb, libset_id, self._next_seq)
            )
            self._next_seq += 1
        self.append_rows(fresh)
        return len(fresh)
