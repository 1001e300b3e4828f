"""Land test rows through the store's bulk write calls.

Tests describe rows with the database's read types (``AppSnapshot``,
``Comment``, ``ApkRecord``).  These helpers append them as a crawled day
lands: one ``extend_snapshots`` call per run of same-(store, day)
snapshots, one ``extend_comments`` call per list of comments and one
``extend_apks`` call per run of same-store APKs.  ``target`` is a
``SnapshotDatabase`` or a ``ColumnarStore``.
"""

from dataclasses import fields
from itertools import groupby

from repro.crawler.database import AppSnapshot

SNAPSHOT_FIELDS = tuple(
    field.name for field in fields(AppSnapshot) if field.name not in ("store", "day")
)


def _columnar(target):
    return getattr(target, "columnar", target)


def add_snapshots(target, snapshots):
    """Append snapshot rows in order (a later row of one key wins)."""
    columnar = _columnar(target)
    for (store, day), run in groupby(snapshots, key=lambda row: (row.store, row.day)):
        run = list(run)
        columnar.extend_snapshots(
            store,
            day,
            {field: [getattr(row, field) for row in run] for field in SNAPSHOT_FIELDS},
        )


def add_comments(target, store, comments):
    """Append comments to one store's log; returns how many were kept."""
    return _columnar(target).extend_comments(
        store,
        [(comment.user_id, comment.app_id, comment.day, comment.rating)
         for comment in comments],
    )


def add_apks(target, apks):
    """Archive APK records in order; returns how many were new versions."""
    columnar = _columnar(target)
    return sum(
        columnar.extend_apks(
            store,
            [(apk.app_id, apk.version_name, apk.package_name, apk.size_mb,
              apk.embedded_libraries) for apk in run],
        )
        for store, run in groupby(apks, key=lambda apk: apk.store)
    )
