"""Shared benchmark fixtures: scaled-down crawl campaigns per store.

Every table and figure of the paper is regenerated from these campaigns.
The four store profiles are the paper's Table 1 entries scaled to laptop
size (see ``DESIGN.md``): distribution *shapes* are preserved; absolute
magnitudes are not expected to match the paper's testbed.

Each bench writes its rendered output under ``benchmarks/results/`` so
the regenerated tables and figures can be inspected and diffed after a
run (stdout is captured by pytest).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.crawler.database import SnapshotDatabase
from repro.crawler.proxies import ProxyPool
from repro.crawler.scheduler import CrawlCampaign, run_crawl_campaign
from repro.marketplace.profiles import paper_profile, scaled_profile
from repro.stats.rng import derive_seed

RESULTS_DIR = Path(__file__).parent / "results"

# Per-store scaling, tuned so the whole bench suite builds in about a
# minute: every store keeps its Table 1 *relative* characteristics (Anzhi
# and AppChina busy, 1Mobile large but quiet, SlideMe small with paid
# apps).
_SCALES = {
    "anzhi": dict(
        app_scale=0.035, download_scale=2.2e-4, user_scale=1.3e-3, day_scale=0.25
    ),
    "appchina": dict(
        app_scale=0.05, download_scale=2.2e-4, user_scale=1.1e-3, day_scale=0.25
    ),
    "1mobile": dict(
        app_scale=0.016, download_scale=2.6e-3, user_scale=2.4e-3, day_scale=0.12
    ),
    "slideme": dict(
        app_scale=0.12, download_scale=1.3e-2, user_scale=7e-3, day_scale=0.12
    ),
}

_SEED = 20131023  # the paper's presentation date at IMC'13


def build_benchmark_campaigns() -> dict:
    """Crawl all four scaled stores into one shared database."""
    database = SnapshotDatabase()
    proxy_pool = ProxyPool.planetlab_like(n_proxies=100, seed=_SEED)
    campaigns = {}
    for name, scales in _SCALES.items():
        profile = scaled_profile(paper_profile(name), **scales)
        # derive_seed, not builtin hash(): str hashes are randomized per
        # process, which silently re-seeded every store on every run.
        campaigns[name] = run_crawl_campaign(
            profile,
            seed=derive_seed(_SEED, name),
            database=database,
            proxy_pool=proxy_pool,
            # The affinity study only needs Anzhi's comments (the paper's
            # choice, because Anzhi timestamps comments precisely).
            fetch_comments=(name == "anzhi"),
        )
    return campaigns


_SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def crawl_cache_key() -> str:
    """sha256 over everything the crawl depends on: every source file of
    the package (path and bytes) and the benchmark's scales and seed."""
    digest = hashlib.sha256()
    for path in sorted(_SOURCE_ROOT.rglob("*.py")):
        digest.update(path.relative_to(_SOURCE_ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update(json.dumps([_SCALES, _SEED], sort_keys=True).encode())
    return digest.hexdigest()


def _cache_path(key: str) -> Path:
    return Path(__file__).parent / f".crawl_cache-{key[:16]}.jsonl"


@pytest.fixture(scope="session")
def database() -> SnapshotDatabase:
    """The shared snapshot database holding all four crawls.

    Building the campaigns takes a while, so the crawled database is
    cached on disk under a name keyed by :func:`crawl_cache_key`: a
    change to the code, the scales or the seed rebuilds it, and the
    stale caches are deleted.
    """
    path = _cache_path(crawl_cache_key())
    if path.exists():
        return SnapshotDatabase.load(path)
    campaigns = build_benchmark_campaigns()
    database = next(iter(campaigns.values())).database
    for stale in path.parent.glob(".crawl_cache*.jsonl"):
        stale.unlink()
    database.save(path)
    return database


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop their rendered tables/figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a bench's rendered output and persist it for inspection."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
