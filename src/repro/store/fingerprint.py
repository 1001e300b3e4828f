"""Dataset fingerprint: per-(store, day) column digests under one root.

The fingerprint of a :class:`~repro.store.columnar.ColumnarStore` is a
sha256 *root* over *leaves*.  A leaf covers one unit of stored data and
holds one sha256 per column:

- a ``snapshot`` leaf per (store, day) chunk, rows in the chunk's own
  order (sorted by app id, one row per app);
- a ``comment`` leaf per store, rows sorted by (user, app, day, rating);
- an ``apk`` leaf per store, rows sorted by (app id, version string),
  without the archive sequence number ``seq``.

A (store, day) without rows and an empty log add no leaf.  Column bytes
are canonical, so the same observations hash alike in memory, after a
JSONL round trip and in a packed dataset.  Every count and length below
is an 8-byte little-endian integer.

- A numeric column hashes as the little-endian bytes of its schema
  dtype, every NaN as the one payload ``0x7ff8000000000000``; ``-0.0``
  stays distinct from ``0.0``.
- A string column hashes the resolved strings, never the intern ids,
  which follow arrival order and so differ between copies of the same
  data: the row count, each row's UTF-8 byte length, then the rows'
  UTF-8 bytes (lone surrogates pass through, as ``surrogatepass``
  encodes them).
- The library-set column hashes the row count, each row's number of
  libraries, then all the sets' libraries in row order as a string
  column.

The root is the sha256 of one JSON line per leaf, in (kind, store, day)
order: ``{"columns": {column: hex}, "day": day, "kind": kind, "rows":
n, "store": store}`` with sorted keys, ``"day": null`` for the logs,
and a newline after each line.

:func:`first_difference` walks two stores' leaves to the first one that
differs, then to that leaf's first differing column, and names the app
of the first differing row: a snapshot leaf's rows align by app id, a
log's by canonical position, where the first row at which any column
differs is named.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.store.schema import APK_COLUMNS, COMMENT_COLUMNS, SNAPSHOT_COLUMNS

if TYPE_CHECKING:
    from repro.store.chunks import ApkLog, CommentLog, SnapshotChunk
    from repro.store.columnar import ColumnarStore

__all__ = [
    "Difference",
    "Leaf",
    "fingerprint_leaves",
    "fingerprint_root",
    "first_difference",
]

#: (kind, store, day) of a leaf; ``day`` is None for the per-store logs.
LeafKey = Tuple[str, str, Optional[int]]

#: The dtype of the counts and byte lengths in string-column bytes.
_LENGTH = np.dtype("<i8")

#: Rows of a string column joined into one bytes object at a time.
_BLOCK_ROWS = 2048

#: Intern-id columns -> (leaf column, intern table) per record kind.
_SNAPSHOT_STRINGS = {
    "name_id": ("name", "names"),
    "category_id": ("category", "categories"),
    "version_id": ("version_name", "versions"),
}
_APK_STRINGS = {
    "version_id": ("version_name", "versions"),
    "package_id": ("package_name", "packages"),
    "libset_id": ("embedded_libraries", "libsets"),
}


def _count(value: int) -> bytes:
    return value.to_bytes(8, "little")


class _StringTable:
    """An intern table's strings, UTF-8 encoded once per walk."""

    def __init__(self, values: Sequence[str]) -> None:
        self.values = values
        encoded = [value.encode("utf-8", "surrogatepass") for value in values]
        self._lengths = np.fromiter(map(len, encoded), dtype=_LENGTH, count=len(encoded))
        # An object array gathers a column's rows in one fancy index.
        self._encoded = np.empty(len(encoded), dtype=object)
        self._encoded[:] = encoded

    def update(self, digest: "hashlib._Hash", ids: np.ndarray) -> None:
        """Feed the row count, each row's byte length, then the rows' bytes."""
        digest.update(_count(ids.size))
        digest.update(self._lengths[ids])
        # Joined a block at a time, so no copy of the whole column's
        # bytes is ever built.
        for start in range(0, ids.size, _BLOCK_ROWS):
            block = ids[start : start + _BLOCK_ROWS]
            digest.update(b"".join(self._encoded[block].tolist()))


class _TupleTable:
    """An intern table of string tuples (the library sets)."""

    def __init__(self, values: Sequence[Tuple[str, ...]]) -> None:
        self.values = values
        self._counts = np.fromiter(map(len, values), dtype=_LENGTH, count=len(values))
        self._starts = np.cumsum(self._counts) - self._counts
        self._strings = _StringTable(tuple(chain.from_iterable(values)))

    def update(self, digest: "hashlib._Hash", ids: np.ndarray) -> None:
        """Feed the row count, each row's tuple length, then every tuple's
        strings in row order as a string column."""
        counts = self._counts[ids]
        digest.update(_count(ids.size))
        digest.update(counts)
        ends = np.cumsum(counts)
        flat = np.repeat(self._starts[ids] - (ends - counts), counts)
        flat += np.arange(flat.size)
        self._strings.update(digest, flat)


def _numeric(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Canonical little-endian ``dtype`` values with one NaN payload."""
    array = np.asarray(array, dtype=dtype)
    if dtype.kind == "f":
        array = np.where(np.isnan(array), np.nan, array)
    return np.ascontiguousarray(array, dtype=dtype.newbyteorder("<"))


class _Strings:
    """A string-valued leaf column: row intern ids plus their table."""

    __slots__ = ("ids", "table")

    def __init__(
        self, ids: np.ndarray, table: Union[_StringTable, _TupleTable]
    ) -> None:
        self.ids = ids
        self.table = table

    def __len__(self) -> int:
        return int(self.ids.size)


#: A leaf column in canonical row order.
_Column = Union[np.ndarray, _Strings]


class _Tables:
    """A store's intern tables, each encoded at most once per walk."""

    def __init__(self, store: "ColumnarStore") -> None:
        self._interners = {
            "names": store.names,
            "categories": store.categories,
            "versions": store.versions,
            "packages": store.packages,
            "libsets": store.libsets,
        }
        self._tables: Dict[str, Union[_StringTable, _TupleTable]] = {}

    def strings(self, name: str, ids: np.ndarray) -> _Strings:
        table = self._tables.get(name)
        if table is None:
            values = self._interners[name].values()
            table = _TupleTable(values) if name == "libsets" else _StringTable(values)
            self._tables[name] = table
        return _Strings(ids, table)

    def ranks(self, name: str) -> np.ndarray:
        """Each id's position among the table's values in sorted order."""
        values = self._interners[name].values()
        ranks = np.empty(len(values), dtype=np.int64)
        ranks[sorted(range(len(values)), key=values.__getitem__)] = np.arange(
            len(values)
        )
        return ranks


def _snapshot_columns(
    chunk: "SnapshotChunk", tables: _Tables
) -> Dict[str, _Column]:
    columns: Dict[str, _Column] = {}
    for name, dtype in SNAPSHOT_COLUMNS.items():
        array = chunk.column(name)
        if name in _SNAPSHOT_STRINGS:
            field, table = _SNAPSHOT_STRINGS[name]
            columns[field] = tables.strings(table, array)
        else:
            columns[name] = _numeric(array, dtype)
    return columns


def _sorted_rows(*keys: np.ndarray) -> np.ndarray:
    """Row order by integer keys, most significant first.

    The keys must identify each row (both logs de-duplicate on theirs),
    so any sort gives ``np.lexsort``'s order.  Packed into one int64
    when their value ranges allow, they sort in one argsort: 0.2 ms on
    a 7,876-row comment log (x86_64, numpy 2.4), where ``np.lexsort``
    takes 1.1-1.3 ms, a fifth of the whole fingerprint call.
    """
    packed = np.zeros(keys[0].size, dtype=np.int64)
    span = 1
    for key in reversed(keys):
        low, high = (int(key.min()), int(key.max())) if key.size else (0, 0)
        width = high - low + 1
        if span * width > np.iinfo(np.int64).max:
            return np.lexsort(keys[::-1])
        packed += (key - low) * span
        span *= width
    return np.argsort(packed)


def _comment_columns(log: "CommentLog", tables: _Tables) -> Dict[str, _Column]:
    arrays = log.arrays()
    rows = _sorted_rows(
        arrays["user_id"], arrays["app_id"], arrays["day"], arrays["rating"]
    )
    return {
        name: _numeric(arrays[name][rows], dtype)
        for name, dtype in COMMENT_COLUMNS.items()
    }


def _apk_columns(log: "ApkLog", tables: _Tables) -> Dict[str, _Column]:
    arrays = log.arrays()
    version_ranks = tables.ranks("versions")[arrays["version_id"]]
    rows = _sorted_rows(arrays["app_id"], version_ranks)
    columns: Dict[str, _Column] = {}
    for name, dtype in APK_COLUMNS.items():
        if name == "seq":
            continue
        array = arrays[name][rows]
        if name in _APK_STRINGS:
            field, table = _APK_STRINGS[name]
            columns[field] = tables.strings(table, array)
        else:
            columns[name] = _numeric(array, dtype)
    return columns


_LEAF_COLUMNS = {
    "apk": _apk_columns,
    "comment": _comment_columns,
    "snapshot": _snapshot_columns,
}


def _units(store: "ColumnarStore") -> Iterator[Tuple[LeafKey, int, object]]:
    """(key, rows, chunk or log) of every leaf, in leaf order."""
    for name in store.apk_stores():
        log = store.apk_log(name)
        if len(log):
            yield ("apk", name, None), len(log), log
    for name in store.comment_stores():
        log = store.comment_log(name)
        if len(log):
            yield ("comment", name, None), len(log), log
    for chunk in store.chunks():
        if chunk.n_rows:
            yield ("snapshot", chunk.store, chunk.day), chunk.n_rows, chunk


def _digest(column: _Column) -> str:
    digest = hashlib.sha256()
    if isinstance(column, _Strings):
        column.table.update(digest, column.ids)
    else:
        digest.update(column)
    return digest.hexdigest()


def _sort_key(key: LeafKey) -> Tuple[str, str, int]:
    kind, store, day = key
    return kind, store, -1 if day is None else day


class Leaf(NamedTuple):
    """One fingerprint leaf: a (kind, store, day) and its column digests."""

    kind: str
    store: str
    day: Optional[int]
    rows: int
    #: Column name -> sha256 hex of its canonical bytes, in column order.
    columns: Dict[str, str]

    def encode(self) -> bytes:
        """The leaf's line in the root's input."""
        line = json.dumps(
            {
                "columns": self.columns,
                "day": self.day,
                "kind": self.kind,
                "rows": self.rows,
                "store": self.store,
            },
            sort_keys=True,
        )
        return (line + "\n").encode("utf-8")


def fingerprint_leaves(store: "ColumnarStore") -> List[Leaf]:
    """Every leaf of a store, in (kind, store, day) order."""
    tables = _Tables(store)
    leaves = []
    for key, rows, unit in _units(store):
        columns = _LEAF_COLUMNS[key[0]](unit, tables)
        digests = {name: _digest(column) for name, column in columns.items()}
        leaves.append(Leaf(*key, rows, digests))
    return leaves


def fingerprint_root(leaves: Sequence[Leaf]) -> str:
    """The sha256 root over leaves given in (kind, store, day) order."""
    digest = hashlib.sha256()
    for leaf in leaves:
        digest.update(leaf.encode())
    return digest.hexdigest()


class Difference(NamedTuple):
    """Where two datasets first differ.

    With ``column`` None the leaf exists on one side only, and
    ``left``/``right`` hold its row counts (None on the side that lacks
    it).  Otherwise ``app_id`` is the app of the first differing row:
    in a snapshot leaf the first row whose ``column`` value differs, in
    a log the first canonical row at which any column differs, with
    ``column`` its first differing column.  ``left``/``right`` are that
    row's ``column`` values (None on a side without the row).
    """

    kind: str
    store: str
    day: Optional[int]
    column: Optional[str]
    app_id: Optional[int]
    left: object
    right: object

    def describe(self, sides: Tuple[str, str] = ("A", "B")) -> str:
        """One line naming the leaf, column, app and both values."""
        where = f"{self.kind} store {self.store!r}"
        if self.day is not None:
            where += f" day {self.day}"
        if self.column is None:
            shown = [
                "absent" if rows is None else f"{rows:,} rows"
                for rows in (self.left, self.right)
            ]
            return f"{where}: {sides[0]} {shown[0]}, {sides[1]} {shown[1]}"
        shown = [
            "absent" if value is None else repr(value)
            for value in (self.left, self.right)
        ]
        return (
            f"{where}, column {self.column}, app {self.app_id}: "
            f"{sides[0]} {shown[0]}, {sides[1]} {shown[1]}"
        )


def _row_keys(column: _Column) -> list:
    """Per-row values that compare exactly as the digest does."""
    if isinstance(column, _Strings):
        values = column.table.values
        return [values[value_id] for value_id in column.ids.tolist()]
    return column.view(np.dtype((np.void, column.itemsize))).tolist()


def _row_value(column: _Column, row: int) -> object:
    if row >= len(column):
        return None
    if isinstance(column, _Strings):
        return column.table.values[int(column.ids[row])]
    return column[row].item()


def _row_difference(
    key: LeafKey,
    name: str,
    left: Dict[str, _Column],
    right: Dict[str, _Column],
) -> Difference:
    """The first differing row of a leaf whose ``name`` digests differ.

    Snapshot rows align by app id, so only ``name`` is compared.  Log
    rows align by canonical position, where a row that one side lacks
    shifts every later row: the first row at which any column differs
    is named, with its first differing column.
    """
    left_ids, right_ids = left["app_id"], right["app_id"]
    if key[0] == "snapshot" and name == "app_id":
        # Rows differ in which apps they hold: name the first app that
        # only one side observed.
        app_id = int(np.setxor1d(left_ids, right_ids)[0])
        return Difference(
            *key,
            name,
            app_id,
            app_id if app_id in left_ids else None,
            app_id if app_id in right_ids else None,
        )
    # Snapshot rows align one to one here: their app_id digests agree.
    names = [name] if key[0] == "snapshot" else list(left)
    rows = [
        list(zip(*(_row_keys(side[column]) for column in names)))
        for side in (left, right)
    ]
    shared = min(len(rows[0]), len(rows[1]))
    row = next(
        (row for row in range(shared) if rows[0][row] != rows[1][row]), shared
    )
    if row < shared:
        name = next(
            column
            for column, value, other in zip(names, rows[0][row], rows[1][row])
            if value != other
        )
    else:  # one log holds every row of the other and more
        name = names[0]
    ids = left_ids if row < len(left_ids) else right_ids
    return Difference(
        *key,
        name,
        int(ids[row]),
        _row_value(left[name], row),
        _row_value(right[name], row),
    )


def first_difference(
    left: "ColumnarStore", right: "ColumnarStore"
) -> Optional[Difference]:
    """The first place two stores differ, or None when they are equal.

    Leaves are compared in (kind, store, day) order and a leaf's columns
    in column order, so the answer is None exactly when the two
    fingerprints are equal.
    """
    tables = (_Tables(left), _Tables(right))
    units = [
        {key: (rows, unit) for key, rows, unit in _units(store)}
        for store in (left, right)
    ]
    for key in sorted(set(units[0]) | set(units[1]), key=_sort_key):
        if key not in units[0] or key not in units[1]:
            rows = [side[key][0] if key in side else None for side in units]
            return Difference(*key, None, None, *rows)
        build = _LEAF_COLUMNS[key[0]]
        columns = [
            build(side[key][1], side_tables)
            for side, side_tables in zip(units, tables)
        ]
        for name in columns[0]:
            if _digest(columns[0][name]) != _digest(columns[1][name]):
                return _row_difference(key, name, *columns)
    return None
