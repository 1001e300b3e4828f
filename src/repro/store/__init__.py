"""Out-of-core columnar snapshot store.

Append-only columnar storage for crawl datasets: snapshots, comments,
and APK index entries live in numpy columns with dictionary-encoded
strings, sealed into immutable per-(store, day) chunks, and persist to a
``.npy``-per-column directory layout that reads back zero-copy through
``np.load(mmap_mode="r")``.  :class:`repro.crawler.database.SnapshotDatabase`
is the dataclass façade over this engine; use that for row-shaped
access and this package for columns.  :mod:`repro.store.fingerprint`
digests a dataset per (store, day) and column, and names the first
place two datasets differ.
"""

from repro.store.chunks import ApkLog, AppendLog, CommentLog, SnapshotChunk
from repro.store.columnar import ColumnarStore, DownloadMatrix
from repro.store.dictionary import Interner, StringInterner, TupleInterner
from repro.store.disk import (
    bytes_on_disk,
    is_packed_dataset,
    open_store,
    pack_store,
)
from repro.store.fingerprint import Difference, first_difference
from repro.store.schema import (
    APK_COLUMNS,
    COMMENT_COLUMNS,
    FORMAT_VERSION,
    SNAPSHOT_COLUMNS,
)

__all__ = [
    "APK_COLUMNS",
    "ApkLog",
    "AppendLog",
    "COMMENT_COLUMNS",
    "ColumnarStore",
    "CommentLog",
    "Difference",
    "DownloadMatrix",
    "FORMAT_VERSION",
    "Interner",
    "SNAPSHOT_COLUMNS",
    "SnapshotChunk",
    "StringInterner",
    "TupleInterner",
    "bytes_on_disk",
    "first_difference",
    "is_packed_dataset",
    "open_store",
    "pack_store",
]
