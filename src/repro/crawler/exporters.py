"""Export crawled data as CSV for downstream analytics tools.

The snapshot database's native format is JSONL (lossless round trip);
these exporters flatten the three record kinds into CSVs that load
directly into pandas/R/spreadsheets, which is how a measurement group
would actually hand the dataset to collaborators.

Rows are produced a columnar batch at a time: each (store, day) chunk is
decoded once per column (string ids through the intern tables, numerics
via ``.tolist()``) and handed to ``csv.writer.writerows`` zipped, so the
export never materializes per-row dataclasses.  The output is
byte-identical to the row-at-a-time formatting it replaced.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

import numpy as np

from repro.crawler.database import SnapshotDatabase
from repro.store.schema import COMMENT_COLUMNS

SNAPSHOT_CSV_HEADER = [
    "store",
    "day",
    "app_id",
    "name",
    "category",
    "developer_id",
    "price",
    "declares_ads",
    "total_downloads",
    "rating_count",
    "average_rating",
    "comment_count",
    "version_name",
]

COMMENT_CSV_HEADER = ["store", "user_id", "app_id", "day", "rating"]

APK_CSV_HEADER = [
    "store",
    "app_id",
    "version_name",
    "package_name",
    "size_mb",
    "embedded_libraries",
]


def export_snapshots_csv(
    database: SnapshotDatabase, path, store: Optional[str] = None
) -> int:
    """Write all (store, day, app) snapshots to CSV; returns row count."""
    path = Path(path)
    stores = [store] if store is not None else database.stores()
    rows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SNAPSHOT_CSV_HEADER)
        for store_name in stores:
            for day in database.days(store_name):
                columns = database.snapshot_columns(store_name, day)
                if columns is None:
                    continue
                n_rows = columns.n_rows
                writer.writerows(
                    zip(
                        [store_name] * n_rows,
                        [day] * n_rows,
                        columns.app_ids.tolist(),
                        columns.decoded("name_id"),
                        columns.decoded("category_id"),
                        columns.column("developer_id").tolist(),
                        columns.column("price").tolist(),
                        columns.column("declares_ads")
                        .astype(np.int64)
                        .tolist(),
                        columns.column("total_downloads").tolist(),
                        columns.column("rating_count").tolist(),
                        [
                            f"{rating:.4f}"
                            for rating in columns.column(
                                "average_rating"
                            ).tolist()
                        ],
                        columns.column("comment_count").tolist(),
                        columns.decoded("version_id"),
                    )
                )
                rows += n_rows
    return rows


def export_comments_csv(
    database: SnapshotDatabase, path, store: Optional[str] = None
) -> int:
    """Write all comments to CSV; returns row count."""
    path = Path(path)
    stores = [store] if store is not None else database.stores()
    rows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COMMENT_CSV_HEADER)
        for store_name in stores:
            columns = database.comment_columns(store_name)
            n_rows = int(columns["user_id"].size)
            writer.writerows(
                zip(
                    [store_name] * n_rows,
                    *(columns[name].tolist() for name in COMMENT_COLUMNS),
                )
            )
            rows += n_rows
    return rows


def export_apks_csv(
    database: SnapshotDatabase, path, store: Optional[str] = None
) -> int:
    """Write the APK archive index to CSV; returns row count.

    Embedded libraries are joined with ``;`` in a single column.
    """
    path = Path(path)
    stores = [store] if store is not None else database.stores()
    columnar = database.columnar
    versions = columnar.versions.values()
    packages = columnar.packages.values()
    libsets = columnar.libsets.values()
    rows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(APK_CSV_HEADER)
        for store_name in stores:
            log = columnar.apk_log(store_name)
            if log is None or len(log) == 0:
                continue
            columns = log.arrays()
            order = np.argsort(columns["seq"], kind="stable")
            n_rows = int(order.size)
            writer.writerows(
                zip(
                    [store_name] * n_rows,
                    columns["app_id"][order].tolist(),
                    [
                        versions[version_id]
                        for version_id in columns["version_id"][order].tolist()
                    ],
                    [
                        packages[package_id]
                        for package_id in columns["package_id"][order].tolist()
                    ],
                    [
                        f"{size:.2f}"
                        for size in columns["size_mb"][order].tolist()
                    ],
                    [
                        ";".join(libsets[libset_id])
                        for libset_id in columns["libset_id"][order].tolist()
                    ],
                )
            )
            rows += n_rows
    return rows
