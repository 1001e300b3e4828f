"""Tests for the packed columnar disk format (pack/open, mmap, gating).

The disk layer's promises: a packed dataset answers every query exactly
like the store that wrote it, opening is lazy (no column touched until a
query needs it), columns stream back as read-only memory maps, and a
dataset from a different format version is refused loudly.
"""

import json

import numpy as np
import pytest

from repro.crawler.database import AppSnapshot
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.store import (
    ColumnarStore,
    bytes_on_disk,
    is_packed_dataset,
    open_store,
    pack_store,
)
from tests.rows import add_snapshots


def build_store():
    """Two stores with snapshots, comments, and APK entries."""
    store = ColumnarStore()
    add_snapshots(
        store,
        [
            AppSnapshot(
                store=name,
                day=day,
                app_id=app_id,
                name=f"app-{app_id}",
                category="games",
                developer_id=app_id + 100,
                price=0.99 if app_id % 2 else 0.0,
                declares_ads=bool(app_id % 2),
                total_downloads=downloads,
                rating_count=downloads // 2,
                average_rating=3.5,
                comment_count=downloads // 3,
                version_name=f"{day}.0",
            )
            for name, day, app_id, downloads in [
                ("alpha", 0, 1, 10),
                ("alpha", 0, 2, 20),
                ("alpha", 3, 1, 15),
                ("beta", 1, 7, 70),
            ]
        ],
    )
    store.extend_comments("alpha", [(1, 2, 0, 5), (2, 2, 1, 3)])
    store.extend_apks(
        "alpha",
        [
            (1, "0.0", "com.a.app1", 3.5, ("com.ads",)),
            (1, "3.0", "com.a.app1", 3.6, ()),
        ],
    )
    return store


class TestPack:
    def test_pack_reports_bytes_and_marks_dataset(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        written = pack_store(build_store(), path)
        assert written == bytes_on_disk(path) > 0
        assert is_packed_dataset(path)
        assert not is_packed_dataset(tmp_path / "missing")
        plain = tmp_path / "plain.jsonl"
        plain.write_text("{}\n", encoding="utf-8")
        assert not is_packed_dataset(plain)

    def test_pack_bumps_counters(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            total = pack_store(build_store(), tmp_path / "crawl.cstore")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["store.datasets_packed"] == 1
        assert snapshot["gauges"]["store.bytes_on_disk"] == total


class TestOpen:
    def test_round_trip_fingerprint_and_queries(self, tmp_path):
        original = build_store()
        path = tmp_path / "crawl.cstore"
        pack_store(original, path)
        opened = open_store(path)
        assert opened.fingerprint() == original.fingerprint()
        assert opened.stores() == original.stores()
        assert opened.days("alpha") == [0, 3]
        assert (
            opened.download_vector("alpha", 0).tolist()
            == original.download_vector("alpha", 0).tolist()
        )
        assert len(opened.comment_log("alpha")) == 2
        assert opened.apk_log("alpha").arrays()["seq"].tolist() == [0, 1]

    def test_columns_stream_back_as_readonly_memmaps(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        pack_store(build_store(), path)
        chunk = open_store(path).chunk("alpha", 0)
        assert chunk.source == "mmap"
        column = chunk.column("total_downloads")
        assert isinstance(column, np.memmap)
        assert not column.flags.writeable

    def test_open_is_lazy_until_a_column_is_touched(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        pack_store(build_store(), path)
        registry = MetricsRegistry()
        with use_registry(registry):
            opened = open_store(path)
            opened.stores()
            opened.days("alpha")
            opened.n_snapshot_rows()
            assert registry.counter("store.column_reads.mmap").value == 0
            opened.download_vector("alpha", 0)
            assert registry.counter("store.column_reads.mmap").value > 0

    def test_unknown_format_version_refused(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        pack_store(build_store(), path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = "repro-columnar/999"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported columnar format"):
            open_store(path)

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.cstore"
        pack_store(ColumnarStore(), path)
        opened = open_store(path)
        assert opened.stores() == []
        assert opened.fingerprint() == ColumnarStore().fingerprint()


class TestWritesAfterOpen:
    def test_comment_dedupe_survives_pack_boundary(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        pack_store(build_store(), path)
        opened = open_store(path)
        assert opened.extend_comments("alpha", [(1, 2, 0, 5)]) == 0  # already packed
        assert opened.extend_comments("alpha", [(3, 2, 2, 4)]) == 1
        assert len(opened.comment_log("alpha")) == 3

    def test_apk_seq_continues_after_open(self, tmp_path):
        path = tmp_path / "crawl.cstore"
        pack_store(build_store(), path)
        opened = open_store(path)
        assert (
            opened.extend_apks("alpha", [(1, "0.0", "com.a.app1", 3.5, ("com.ads",))])
            == 0
        )
        assert opened.extend_apks("alpha", [(1, "4.0", "com.a.app1", 3.7, ())]) == 1
        assert opened.apk_log("alpha").arrays()["seq"].tolist() == [0, 1, 2]

    def test_snapshot_overwrite_merges_into_mmap_chunk(self, tmp_path):
        original = build_store()
        path = tmp_path / "crawl.cstore"
        pack_store(original, path)
        opened = open_store(path)
        add_snapshots(
            opened,
            [
                AppSnapshot(
                    "alpha", 0, 2, "app-2", "games", 102, 0.0, False, 99, 0, 0.0, 0, "0.0"
                )
            ],
        )
        assert opened.download_vector("alpha", 0).tolist() == [10, 99]
        assert original.download_vector("alpha", 0).tolist() == [10, 20]
