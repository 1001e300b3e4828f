"""Columnar snapshot store benchmark: ingest, day queries, resident set.

Three measurements, all against the out-of-core store behind
:class:`repro.crawler.database.SnapshotDatabase`:

- **ingest** -- rows/s through the bulk ``extend_snapshots`` path (one
  sealed chunk per crawl day);
- **day queries** -- latency of ``download_vector(store, day)`` against
  a faithful re-creation of the seed's flat-dict scan (every day query
  walked all (store, day, app) keys); the acceptance bar is a >=10x
  speedup at 100k apps x 150 crawl days;
- **resident set** -- a fresh subprocess opens the packed 4-store
  dataset and answers queries in every store; its peak RSS must stay
  under 25% of the dataset's uncompressed JSONL size (the mmap path is
  doing its job).

Results append to ``BENCH_store.json`` at the repo root so future PRs
have a performance trajectory to compare against.

Run modes
---------
- ``make bench-store-smoke`` / ``pytest benchmarks/bench_store.py -m
  bench_smoke`` -- small sizes, asserts exactness + direction, seconds.
- ``PYTHONPATH=src python benchmarks/bench_store.py`` -- the paper-scale
  run; writes ``BENCH_store.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.crawler.database import SnapshotDatabase
from repro.obs.manifest import RunManifest, write_metrics_jsonl
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.stats.rng import make_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_store.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The day-query acceptance workload: one store, 100k apps, 150 days.
QUERY_REFERENCE = dict(n_apps=100_000, n_days=150)
QUERY_SMOKE = dict(n_apps=3_000, n_days=8)

#: The 4-store resident-set workload (paper-scale catalog shapes).
RSS_REFERENCE = (
    ("anzhi", 60_000, 44),
    ("appchina", 55_000, 44),
    ("1mobile", 35_000, 44),
    ("slideme", 12_000, 75),
)
RSS_SMOKE = (("demo-a", 2_000, 6), ("demo-b", 1_500, 6))

_N_CATEGORIES = 30
_N_VERSIONS = 12

#: Subprocess probe: open a packed dataset cold, query every store, and
#: report the checksum plus the process's peak resident set.
_RSS_PROBE = """
import json, sys
from repro.crawler.database import SnapshotDatabase


def peak_rss_bytes():
    # VmHWM belongs to the post-exec address space; ru_maxrss keeps the
    # high-water mark of the forked (copy-on-write) parent image, which
    # would report the benchmark parent's footprint instead of ours.
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


database = SnapshotDatabase.load(sys.argv[1])
checksum = 0
for store in database.stores():
    days = database.days(store)
    for day in (days[0], days[len(days) // 2], days[-1]):
        checksum += int(database.download_vector(store, day).sum())
print(json.dumps({"checksum": checksum, "peak_rss_bytes": peak_rss_bytes()}))
"""


class _CountingSink(io.TextIOBase):
    """A write-only text sink that counts bytes instead of storing them."""

    def __init__(self) -> None:
        self.bytes_written = 0

    def write(self, text: str) -> int:
        encoded = len(text.encode("utf-8"))
        self.bytes_written += encoded
        return len(text)


@dataclass(frozen=True)
class IngestTiming:
    """Bulk ingest throughput."""

    n_rows: int
    bulk_seconds: float

    @property
    def bulk_rows_per_sec(self) -> float:
        return self.n_rows / self.bulk_seconds if self.bulk_seconds else 0.0

    def describe(self) -> str:
        return (
            f"ingest: bulk {self.bulk_rows_per_sec:,.0f} rows/s "
            f"({self.n_rows:,} rows)"
        )


@dataclass(frozen=True)
class DayQueryTiming:
    """Chunk-indexed day queries vs the seed's flat-dict scan."""

    n_apps: int
    n_days: int
    n_queries: int
    legacy_seconds: float
    columnar_seconds: float

    @property
    def legacy_per_query(self) -> float:
        return self.legacy_seconds / self.n_queries if self.n_queries else 0.0

    @property
    def columnar_per_query(self) -> float:
        if not self.n_queries:
            return 0.0
        return self.columnar_seconds / self.n_queries

    @property
    def speedup(self) -> float:
        if self.columnar_seconds == 0:
            return float("inf")
        return self.legacy_seconds / self.columnar_seconds

    def describe(self) -> str:
        return (
            f"day queries ({self.n_apps:,} apps x {self.n_days} days): "
            f"dict scan {self.legacy_per_query * 1e3:.1f} ms/query, "
            f"chunk index {self.columnar_per_query * 1e6:.0f} us/query "
            f"({self.speedup:,.0f}x)"
        )


@dataclass(frozen=True)
class ResidentSetResult:
    """Peak RSS of a cold subprocess querying the packed dataset."""

    n_stores: int
    n_rows: int
    jsonl_bytes: int
    packed_bytes: int
    peak_rss_bytes: int
    checksum_matches: bool

    @property
    def rss_fraction(self) -> float:
        if not self.jsonl_bytes:
            return float("inf")
        return self.peak_rss_bytes / self.jsonl_bytes

    def describe(self) -> str:
        check = "==" if self.checksum_matches else "!="
        return (
            f"resident set: {self.n_stores} stores, {self.n_rows:,} rows; "
            f"JSONL {self.jsonl_bytes / 1e6:,.0f} MB, packed "
            f"{self.packed_bytes / 1e6:,.0f} MB, peak RSS "
            f"{self.peak_rss_bytes / 1e6:,.0f} MB "
            f"({self.rss_fraction * 100:.1f}% of JSONL, checksum {check})"
        )


def _day_columns(
    store_seed: int, day: int, n_apps: int
) -> Dict[str, np.ndarray]:
    """Synthetic pre-encoded snapshot columns for one (store, day).

    Downloads grow linearly at a per-app rate so day queries see
    realistic monotone counts; everything derives from ``store_seed`` so
    the dataset is identical across runs.
    """
    rng = make_rng(store_seed)
    app_ids = np.arange(n_apps, dtype=np.int64)
    base = rng.integers(0, 5_000, size=n_apps, dtype=np.int64)
    rate = rng.integers(0, 40, size=n_apps, dtype=np.int64)
    return {
        "app_id": app_ids,
        "name_id": app_ids.astype(np.int32),
        "category_id": (app_ids % _N_CATEGORIES).astype(np.int32),
        "developer_id": app_ids // 4,
        "price": np.zeros(n_apps, dtype=np.float64),
        "declares_ads": (app_ids % 3 == 0),
        "total_downloads": base + rate * day,
        "rating_count": base // 10,
        "average_rating": np.full(n_apps, 3.5, dtype=np.float64),
        "comment_count": base // 50,
        "version_id": ((app_ids + day // 30) % _N_VERSIONS).astype(np.int32),
    }


def _intern_tables(database: SnapshotDatabase, n_apps: int) -> None:
    """Pre-populate the intern tables the encoded columns reference."""
    columnar = database.columnar
    for index in range(n_apps):
        columnar.names.intern(f"app-{index}")
    for index in range(_N_CATEGORIES):
        columnar.categories.intern(f"category-{index}")
    for index in range(_N_VERSIONS):
        columnar.versions.intern(f"1.{index}")


def build_store_database(
    shapes: Tuple[Tuple[str, int, int], ...], seed: int = 0
) -> Tuple[SnapshotDatabase, IngestTiming]:
    """Build a multi-store database through the bulk ingest path."""
    database = SnapshotDatabase()
    columnar = database.columnar
    _intern_tables(database, max(n_apps for _, n_apps, _ in shapes))

    n_rows = 0
    start = time.perf_counter()
    for index, (store, n_apps, n_days) in enumerate(shapes):
        for day in range(n_days):
            columnar.extend_snapshots(
                store, day, _day_columns(seed + index, day, n_apps)
            )
            columnar.seal_chunk(store, day)
            n_rows += n_apps
    bulk_seconds = time.perf_counter() - start
    return database, IngestTiming(n_rows=n_rows, bulk_seconds=bulk_seconds)


def _legacy_flat_dict(
    database: SnapshotDatabase, store: str
) -> Dict[Tuple[str, int, int], int]:
    """The seed's storage shape: one flat dict over every (day, app) key.

    Day queries against it scan all keys, exactly like the seed's
    ``snapshots_on``; values are just the download counts, which makes
    the baseline *faster* than the real dataclass scan -- the reported
    speedup is conservative.
    """
    flat: Dict[Tuple[str, int, int], int] = {}
    for chunk in database.columnar.chunks(store):
        day = chunk.day
        for app_id, downloads in zip(
            chunk.app_ids().tolist(),
            chunk.column("total_downloads").tolist(),
        ):
            flat[(store, day, app_id)] = downloads
    return flat


def time_day_queries(
    database: SnapshotDatabase,
    store: str,
    n_apps: int,
    n_days: int,
    n_queries: int = 8,
) -> DayQueryTiming:
    """Time chunk-indexed day queries against the flat-dict scan."""
    days = database.days(store)
    sample = [days[(i * len(days)) // n_queries] for i in range(n_queries)]
    flat = _legacy_flat_dict(database, store)

    start = time.perf_counter()
    legacy_checksum = 0
    for day in sample:
        values = [
            downloads
            for (key_store, key_day, _), downloads in flat.items()
            if key_store == store and key_day == day
        ]
        legacy_checksum += sum(values)
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    columnar_checksum = 0
    for day in sample:
        columnar_checksum += int(database.download_vector(store, day).sum())
    columnar_seconds = time.perf_counter() - start

    if legacy_checksum != columnar_checksum:
        raise AssertionError(
            f"query paths disagree: dict scan {legacy_checksum} != "
            f"chunk index {columnar_checksum}"
        )
    return DayQueryTiming(
        n_apps=n_apps,
        n_days=n_days,
        n_queries=len(sample),
        legacy_seconds=legacy_seconds,
        columnar_seconds=columnar_seconds,
    )


def measure_resident_set(
    database: SnapshotDatabase, pack_path: Path
) -> ResidentSetResult:
    """Pack the database and probe a cold subprocess's peak RSS."""
    sink = _CountingSink()
    database.dump_jsonl(sink)
    packed_bytes = database.pack(pack_path)

    expected = 0
    for store in database.stores():
        days = database.days(store)
        for day in (days[0], days[len(days) // 2], days[-1]):
            expected += int(database.download_vector(store, day).sum())

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    probe = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(pack_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(probe.stdout)

    return ResidentSetResult(
        n_stores=len(database.stores()),
        n_rows=database.columnar.n_snapshot_rows(),
        jsonl_bytes=sink.bytes_written,
        packed_bytes=packed_bytes,
        peak_rss_bytes=int(report["peak_rss_bytes"]),
        checksum_matches=int(report["checksum"]) == expected,
    )


def write_results(
    label: str,
    ingest: IngestTiming,
    day_query: DayQueryTiming,
    resident: ResidentSetResult,
    path: Path = DEFAULT_OUTPUT,
) -> dict:
    """Append a benchmark record to the JSON trajectory file."""
    record = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ingest": {
            **asdict(ingest),
            "bulk_rows_per_sec": round(ingest.bulk_rows_per_sec, 1),
        },
        "day_query": {
            **asdict(day_query),
            "legacy_per_query_ms": round(day_query.legacy_per_query * 1e3, 3),
            "columnar_per_query_ms": round(
                day_query.columnar_per_query * 1e3, 6
            ),
            "speedup": round(day_query.speedup, 1),
        },
        "resident_set": {
            **asdict(resident),
            "rss_fraction": round(resident.rss_fraction, 4),
        },
    }
    history = []
    if path.exists():
        history = json.loads(path.read_text(encoding="utf-8"))
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return record


def _write_metrics_sidecar(
    registry: MetricsRegistry, label: str, seed: int, path: Path
) -> Path:
    """Write the run's store counters next to its timing output."""
    path.parent.mkdir(exist_ok=True)
    manifest = RunManifest(
        command=f"bench-store-{label}",
        seed=seed,
        params={"label": label},
    )
    return write_metrics_jsonl(path, registry, manifest)


def run_benchmark(
    query_sizes: Dict[str, int],
    rss_shapes: Tuple[Tuple[str, int, int], ...],
    pack_path: Path,
    seed: int = 0,
) -> Tuple[IngestTiming, DayQueryTiming, ResidentSetResult]:
    """Run all three measurements and return their results."""
    query_store = ("query-store", query_sizes["n_apps"], query_sizes["n_days"])
    database, ingest = build_store_database((query_store,), seed=seed)
    day_query = time_day_queries(
        database,
        "query-store",
        query_sizes["n_apps"],
        query_sizes["n_days"],
    )
    rss_database, _ = build_store_database(rss_shapes, seed=seed + 1)
    resident = measure_resident_set(rss_database, pack_path)
    return ingest, day_query, resident


@pytest.mark.bench_smoke
def test_bench_store_smoke(tmp_path):
    """Smoke mode: exactness and direction at small sizes, in seconds.

    The flat-dict baseline and the chunk index must agree on every
    checksum (both are asserted inside the timing helpers), the columnar
    path must win the day-query comparison even at smoke sizes, and the
    packed-dataset probe must reproduce the in-process answers from a
    cold subprocess.  The 10x / 25%-RSS acceptance bars apply to the
    paper-scale run (see ``main``).
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        ingest, day_query, resident = run_benchmark(
            QUERY_SMOKE, RSS_SMOKE, tmp_path / "smoke.cstore", seed=0
        )
    sidecar = _write_metrics_sidecar(
        registry, "smoke", 0, RESULTS_DIR / "bench_store_smoke.metrics.jsonl"
    )
    print(f"(metrics sidecar: {sidecar})")
    for result in (ingest, day_query, resident):
        print(result.describe())
    assert ingest.n_rows == QUERY_SMOKE["n_apps"] * QUERY_SMOKE["n_days"]
    assert ingest.bulk_rows_per_sec > 0
    assert day_query.speedup > 1.0, day_query.describe()
    assert resident.checksum_matches, resident.describe()
    assert resident.peak_rss_bytes > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the small smoke sizes instead"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUTPUT, help="JSON trajectory file"
    )
    parser.add_argument(
        "--label", default=None, help="record label (default: smoke/paper)"
    )
    parser.add_argument(
        "--pack-dir",
        type=Path,
        default=None,
        help="directory for the packed dataset (default: a temp dir)",
    )
    args = parser.parse_args()

    query_sizes = QUERY_SMOKE if args.smoke else QUERY_REFERENCE
    rss_shapes = RSS_SMOKE if args.smoke else RSS_REFERENCE
    label = args.label or ("smoke" if args.smoke else "paper")

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_store_") as scratch:
        pack_path = (args.pack_dir or Path(scratch)) / "bench.cstore"
        registry = MetricsRegistry()
        with use_registry(registry):
            ingest, day_query, resident = run_benchmark(
                query_sizes, rss_shapes, pack_path, seed=args.seed
            )

    for result in (ingest, day_query, resident):
        print(result.describe())
    if not args.smoke:
        assert day_query.speedup >= 10.0, day_query.describe()
        assert resident.rss_fraction < 0.25, resident.describe()
        assert resident.checksum_matches, resident.describe()

    record = write_results(label, ingest, day_query, resident, path=args.out)
    print(f"wrote {args.out} ({record['label']})")
    sidecar = _write_metrics_sidecar(
        registry,
        label,
        args.seed,
        RESULTS_DIR / f"bench_store_{label}.metrics.jsonl",
    )
    print(f"wrote {sidecar}")


if __name__ == "__main__":
    main()
