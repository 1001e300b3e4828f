"""Monte Carlo appstore workload models (Section 5).

The paper validates its clustering hypothesis with three simulators:

- **ZIPF** -- every download is an independent draw from the global Zipf
  law ``ZG``.
- **ZIPF-at-most-once** -- downloads are drawn from ``ZG``, but no user
  ever downloads the same app twice (the fetch-at-most-once property of
  peer-to-peer workloads).
- **APP-CLUSTERING** -- the paper's model: the first download of a user
  comes from ``ZG``; each subsequent download comes, with probability
  ``p``, from the cluster of a previously downloaded app (uniformly chosen
  among visited clusters, app drawn from the cluster's internal Zipf law
  ``Zc``), otherwise from ``ZG``; fetch-at-most-once always holds.

All three expose the same interface: ``simulate`` returns per-app download
counts indexed by global appeal rank (index 0 = rank 1), ``iter_batches``
yields the event stream as vectorized :class:`~repro.core.engine.EventBatch`
chunks (the hot path, backed by :mod:`repro.core.engine`), and
``iter_events`` yields individual (user, app) download events for
consumers that need per-event objects (a thin adapter over the batches).
``iter_events_legacy`` keeps the original per-event reference
implementation around -- it is the baseline the statistical-equivalence
tests and the throughput benchmark compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import (
    DEFAULT_BATCH_SIZE,
    MAX_DRAW_ATTEMPTS,
    DownloadEvent,
    EventBatch,
    app_clustering_event_batches,
    counts_from_batches,
    events_from_batches,
    interleaved_user_order,
    per_user_budgets,
    zipf_amo_event_batches,
    zipf_event_batches,
)
from repro.devtools.flow import pure
from repro.stats.rng import SeedLike, make_rng
from repro.stats.sampling import AliasSampler, HeadTailSampler
from repro.stats.zipf import zipf_weights

__all__ = [
    "AppClusteringModel",
    "AppClusteringParams",
    "DownloadEvent",
    "EventBatch",
    "ModelKind",
    "ZipfAtMostOnceModel",
    "ZipfModel",
    "simulate_downloads",
]

class ModelKind(str, enum.Enum):
    """The three workload models compared throughout the paper."""

    ZIPF = "ZIPF"
    ZIPF_AT_MOST_ONCE = "ZIPF-at-most-once"
    APP_CLUSTERING = "APP-CLUSTERING"


@dataclass(frozen=True)
class AppClusteringParams:
    """Parameters of the APP-CLUSTERING model (the paper's Table 2).

    Attributes
    ----------
    n_apps:
        ``A`` -- number of apps.
    n_users:
        ``U`` -- number of users.
    total_downloads:
        ``D`` -- total downloads to simulate; the per-user budget ``d`` is
        ``D / U`` (distributed as evenly as possible).
    zr:
        Zipf exponent of the overall app ranking (``ZG``).
    zc:
        Zipf exponent of each cluster's internal ranking (``Zc``).
    p:
        Probability that a download is clustering-driven.
    n_clusters:
        ``C`` -- number of clusters; apps are assigned to clusters
        round-robin by rank so every cluster contains apps of all
        popularity levels and sizes are equal (the paper's analytical
        simplification).
    cluster_of:
        Optional explicit cluster assignment (length ``n_apps``); overrides
        the round-robin default, letting callers plug in a store's real
        category map.
    """

    n_apps: int
    n_users: int
    total_downloads: int
    zr: float = 1.5
    zc: float = 1.4
    p: float = 0.9
    n_clusters: int = 30
    cluster_of: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.n_apps < 1:
            raise ValueError("n_apps must be positive")
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.total_downloads < 0:
            raise ValueError("total_downloads must be non-negative")
        if self.zr < 0 or self.zc < 0:
            raise ValueError("Zipf exponents must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if self.cluster_of is not None and len(self.cluster_of) != self.n_apps:
            raise ValueError("cluster_of must have one entry per app")

    @property
    def downloads_per_user(self) -> float:
        """The paper's ``d``: average downloads per user."""
        return self.total_downloads / self.n_users

    @pure
    def cluster_assignment(self) -> np.ndarray:
        """Cluster index of each app (0-based ranks)."""
        if self.cluster_of is not None:
            return np.asarray(self.cluster_of, dtype=np.int64)
        return np.arange(self.n_apps, dtype=np.int64) % self.n_clusters


class ZipfModel:
    """Pure ZIPF workload: every download is i.i.d. from ``ZG``."""

    kind = ModelKind.ZIPF

    def __init__(self, n_apps: int, zr: float) -> None:
        if n_apps < 1:
            raise ValueError("n_apps must be positive")
        self.n_apps = n_apps
        self.zr = zr
        self._sampler = AliasSampler(zipf_weights(n_apps, zr))

    def simulate(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Per-app download counts after ``total_downloads`` draws."""
        return counts_from_batches(
            self.iter_batches(n_users, total_downloads, seed=seed), self.n_apps
        )

    def iter_batches(
        self,
        n_users: int,
        total_downloads: int,
        seed: SeedLike = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[EventBatch]:
        """The event stream as vectorized chunks."""
        rng = make_rng(seed)
        return zipf_event_batches(
            self._sampler, n_users, total_downloads, rng, batch_size
        )

    def iter_events(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> Iterator[DownloadEvent]:
        """Yield the individual download events in simulation order."""
        return events_from_batches(
            self.iter_batches(n_users, total_downloads, seed=seed)
        )

    def iter_events_legacy(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> Iterator[DownloadEvent]:
        """Reference per-event implementation (benchmark baseline)."""
        rng = make_rng(seed)
        budgets = per_user_budgets(total_downloads, n_users, rng)
        order = interleaved_user_order(budgets, rng)
        draws = self._sampler.sample(total_downloads, seed=rng)
        for user_id, app_index in zip(order, draws):
            yield DownloadEvent(user_id=int(user_id), app_index=int(app_index))


class ZipfAtMostOnceModel:
    """ZIPF with the fetch-at-most-once constraint per user."""

    kind = ModelKind.ZIPF_AT_MOST_ONCE

    def __init__(self, n_apps: int, zr: float) -> None:
        if n_apps < 1:
            raise ValueError("n_apps must be positive")
        self.n_apps = n_apps
        self.zr = zr
        weights = zipf_weights(n_apps, zr)
        self._sampler = AliasSampler(weights)
        # Built once so block-sharded campaigns that stream many small
        # populations through one model instance skip the per-stream
        # argsort + alias construction.
        self._head_tail = HeadTailSampler(weights)

    def simulate(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Per-app download counts honouring fetch-at-most-once."""
        return counts_from_batches(
            self.iter_batches(n_users, total_downloads, seed=seed), self.n_apps
        )

    def iter_batches(
        self,
        n_users: int,
        total_downloads: int,
        seed: SeedLike = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[EventBatch]:
        """The event stream as vectorized chunks."""
        rng = make_rng(seed)
        return zipf_amo_event_batches(
            self._sampler,
            n_users,
            total_downloads,
            rng,
            self._head_tail,
            batch_size=batch_size,
        )

    def iter_events(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> Iterator[DownloadEvent]:
        """Yield download events; saturated users stop early."""
        return events_from_batches(
            self.iter_batches(n_users, total_downloads, seed=seed)
        )

    def _draw_new(self, downloaded: set, rng: np.random.Generator) -> Optional[int]:
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = self._sampler.sample_one(rng)
            if candidate not in downloaded:
                return candidate
        return None

    def iter_events_legacy(
        self, n_users: int, total_downloads: int, seed: SeedLike = None
    ) -> Iterator[DownloadEvent]:
        """Reference per-event implementation (benchmark baseline)."""
        rng = make_rng(seed)
        budgets = per_user_budgets(total_downloads, n_users, rng)
        downloaded: List[set] = [set() for _ in range(n_users)]
        order = interleaved_user_order(budgets, rng)
        for user_id in order:
            user_downloads = downloaded[user_id]
            if len(user_downloads) >= self.n_apps:
                continue
            candidate = self._draw_new(user_downloads, rng)
            if candidate is None:
                continue
            user_downloads.add(candidate)
            yield DownloadEvent(user_id=int(user_id), app_index=int(candidate))


class AppClusteringModel:
    """The paper's APP-CLUSTERING workload model."""

    kind = ModelKind.APP_CLUSTERING

    def __init__(self, params: AppClusteringParams) -> None:
        self.params = params
        self._clusters = params.cluster_assignment()
        self._global_sampler = AliasSampler(zipf_weights(params.n_apps, params.zr))
        # Only clusters that actually contain apps get members/samplers;
        # empty cluster ids (possible with an explicit ``cluster_of`` map)
        # are skipped cleanly and can never be sampled, because a cluster
        # only becomes "visited" through a download of one of its apps.
        self._members: Dict[int, np.ndarray] = {}
        self._cluster_samplers: Dict[int, AliasSampler] = {}
        self._cluster_head_tails: Dict[int, HeadTailSampler] = {}
        for cluster_index in np.unique(self._clusters):  # repro: noqa=RPL020 -- construction-time, once per cluster
            members = np.flatnonzero(self._clusters == cluster_index)
            weights = zipf_weights(members.size, params.zc)
            self._members[int(cluster_index)] = members
            self._cluster_samplers[int(cluster_index)] = AliasSampler(weights)
            self._cluster_head_tails[int(cluster_index)] = HeadTailSampler(
                weights, outcomes=members
            )
        self._global_head_tail = HeadTailSampler(
            zipf_weights(params.n_apps, params.zr)
        )

    @property
    def n_apps(self) -> int:
        """Number of apps."""
        return self.params.n_apps

    def cluster_of(self, app_index: int) -> int:
        """Cluster index of an app."""
        return int(self._clusters[app_index])

    def simulate(
        self,
        seed: SeedLike = None,
        n_users: Optional[int] = None,
        total_downloads: Optional[int] = None,
    ) -> np.ndarray:
        """Per-app download counts for the configured population.

        ``n_users`` / ``total_downloads`` optionally override the baked
        parameters: the sharded campaign runner streams many user blocks
        through a single model instance, reusing its alias tables.
        """
        return counts_from_batches(
            self.iter_batches(
                seed=seed, n_users=n_users, total_downloads=total_downloads
            ),
            self.n_apps,
        )

    def iter_batches(
        self,
        seed: SeedLike = None,
        n_users: Optional[int] = None,
        total_downloads: Optional[int] = None,
    ) -> Iterator[EventBatch]:
        """The event stream as vectorized chunks (one batch per round)."""
        params = self.params
        rng = make_rng(seed)
        return app_clustering_event_batches(
            params.n_users if n_users is None else n_users,
            params.total_downloads if total_downloads is None else total_downloads,
            params.p,
            self._cluster_samplers,
            self._members,
            self._clusters,
            rng,
            self._global_head_tail,
            self._cluster_head_tails,
        )

    def iter_events(self, seed: SeedLike = None) -> Iterator[DownloadEvent]:
        """Yield download events following the Section 5.1 user process."""
        return events_from_batches(self.iter_batches(seed=seed))

    def _draw_global(
        self, downloaded: set, rng: np.random.Generator
    ) -> Optional[int]:
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = self._global_sampler.sample_one(rng)
            if candidate not in downloaded:
                return candidate
        return None

    def _draw_clustered(
        self,
        downloaded: set,
        visited_clusters: List[int],
        rng: np.random.Generator,
    ) -> Optional[int]:
        cluster = visited_clusters[int(rng.integers(0, len(visited_clusters)))]
        sampler = self._cluster_samplers.get(cluster)
        if sampler is None:
            return None
        members = self._members[cluster]
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = int(members[sampler.sample_one(rng)])
            if candidate not in downloaded:
                return candidate
        return None

    def iter_events_legacy(self, seed: SeedLike = None) -> Iterator[DownloadEvent]:
        """Reference per-event implementation (benchmark baseline)."""
        params = self.params
        rng = make_rng(seed)
        budgets = per_user_budgets(params.total_downloads, params.n_users, rng)
        downloaded: List[set] = [set() for _ in range(params.n_users)]
        visited: List[List[int]] = [[] for _ in range(params.n_users)]
        order = interleaved_user_order(budgets, rng)
        for user_id in order:
            user_downloads = downloaded[user_id]
            if len(user_downloads) >= self.n_apps:
                continue
            user_clusters = visited[user_id]
            candidate: Optional[int] = None
            if user_clusters and rng.random() < params.p:
                candidate = self._draw_clustered(user_downloads, user_clusters, rng)
            if candidate is None:
                candidate = self._draw_global(user_downloads, rng)
            if candidate is None:
                continue
            user_downloads.add(candidate)
            cluster = self.cluster_of(candidate)
            if cluster not in user_clusters:
                user_clusters.append(cluster)
            yield DownloadEvent(user_id=int(user_id), app_index=int(candidate))


def simulate_downloads(
    kind: ModelKind,
    n_apps: int,
    n_users: int,
    total_downloads: int,
    zr: float,
    zc: float = 1.4,
    p: float = 0.9,
    n_clusters: int = 30,
    cluster_of: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Convenience dispatcher: per-app download counts under any model."""
    if kind == ModelKind.ZIPF:
        return ZipfModel(n_apps, zr).simulate(n_users, total_downloads, seed=seed)
    if kind == ModelKind.ZIPF_AT_MOST_ONCE:
        return ZipfAtMostOnceModel(n_apps, zr).simulate(
            n_users, total_downloads, seed=seed
        )
    if kind == ModelKind.APP_CLUSTERING:
        params = AppClusteringParams(
            n_apps=n_apps,
            n_users=n_users,
            total_downloads=total_downloads,
            zr=zr,
            zc=zc,
            p=p,
            n_clusters=n_clusters,
            cluster_of=tuple(cluster_of) if cluster_of is not None else None,
        )
        return AppClusteringModel(params).simulate(seed=seed)
    raise ValueError(f"unknown model kind: {kind!r}")
