"""The rival hypothesis: recommender-feedback (information filtering).

Section 3.2 of the paper discusses the competing explanation for
power-law truncation in user-generated content: "search engines and
recommendation systems tend to favor the most popular content, due to
information filtering, which results to the observed truncation of power
law" (citing Cho & Roy and Mossa et al.).  The paper argues the
clustering effect is the more general mechanism.

This module makes that debate testable by implementing the rival
mechanism as a fourth workload model:

- **RECOMMENDER-FEEDBACK** -- with probability ``q`` a user's next
  download comes from the store's top-``N`` recommendation list (ranked
  by *current* download counts, so popularity feeds back on itself);
  otherwise from the global Zipf law.  Fetch-at-most-once holds.

The two mechanisms leave different fingerprints, which the ablation
bench checks: feedback steepens the head and *sharpens* the boundary at
rank ``N`` (apps inside the list absorb everything, apps outside starve
uniformly), while clustering bends the tail smoothly and keeps
within-category favorites alive at every global rank.

The simulation batches on the chart-refresh boundary: between refreshes
the recommendation list is frozen, so every download slot of a refresh
window can be resolved in one vectorized pass through the shared
rejection kernel of :mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

import numpy as np

from repro.core.engine import (
    MAX_DRAW_ATTEMPTS,
    DownloadEvent,
    DownloadLedger,
    EventBatch,
    _budget_capacity,
    counts_from_batches,
    events_from_batches,
    interleaved_user_order,
    per_user_budgets,
    sample_new_apps,
)
from repro.stats.rng import SeedLike, make_rng
from repro.stats.sampling import AliasSampler
from repro.stats.zipf import zipf_weights


@dataclass(frozen=True)
class RecommenderFeedbackParams:
    """Parameters of the feedback model.

    Attributes
    ----------
    n_apps, n_users, total_downloads:
        Population sizes, as in :class:`AppClusteringParams`.
    zr:
        Zipf exponent of the organic (non-recommended) selections.
    q:
        Probability a download is recommendation-driven.
    list_size:
        ``N`` -- length of the store's "most popular" list.
    refresh_every:
        Downloads between recommendation-list refreshes (the store
        recomputes its charts periodically, not per download).
    """

    n_apps: int
    n_users: int
    total_downloads: int
    zr: float = 1.5
    q: float = 0.9
    list_size: int = 50
    refresh_every: int = 500

    def __post_init__(self) -> None:
        if self.n_apps < 1 or self.n_users < 1:
            raise ValueError("n_apps and n_users must be positive")
        if self.total_downloads < 0:
            raise ValueError("total_downloads must be non-negative")
        if self.zr < 0:
            raise ValueError("zr must be non-negative")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.list_size < 1:
            raise ValueError("list_size must be >= 1")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")


class RecommenderFeedbackModel:
    """Monte Carlo simulator of popularity-feedback downloads."""

    kind = "RECOMMENDER-FEEDBACK"

    def __init__(self, params: RecommenderFeedbackParams) -> None:
        self.params = params
        self._organic = AliasSampler(zipf_weights(params.n_apps, params.zr))

    @property
    def n_apps(self) -> int:
        """Number of apps."""
        return self.params.n_apps

    def simulate(self, seed: SeedLike = None) -> np.ndarray:
        """Per-app download counts after the full population runs."""
        return counts_from_batches(self.iter_batches(seed=seed), self.n_apps)

    def iter_batches(self, seed: SeedLike = None) -> Iterator[EventBatch]:
        """The event stream as one vectorized batch per refresh window.

        The chart is frozen between refreshes, which is exactly what makes
        the window batchable: every slot sees the same recommendation
        list, and fetch-at-most-once (including duplicates *within* the
        window) is enforced by the engine's rejection kernel.
        """
        params = self.params
        rng = make_rng(seed)
        budgets = per_user_budgets(params.total_downloads, params.n_users, rng)
        order = interleaved_user_order(budgets, rng)
        ledger = DownloadLedger(
            params.n_users,
            params.n_apps,
            _budget_capacity(params.total_downloads, params.n_users),
        )
        counts = np.zeros(params.n_apps, dtype=np.int64)

        # The chart starts from the organic appeal ranking (ranks 1..N)
        # and refreshes from realized counts as downloads accumulate.
        chart = np.arange(min(params.list_size, params.n_apps), dtype=np.int64)

        for start in range(0, order.size, params.refresh_every):
            if start > 0:
                top = np.argsort(counts)[::-1][: params.list_size]
                chart = top.astype(np.int64)
            window = order[start : start + params.refresh_every]
            apps = np.full(window.size, -1, dtype=np.int64)

            recommended = np.flatnonzero(rng.random(window.size) < params.q)
            if recommended.size:
                # Recommendation-driven: uniform pick from the chart (the
                # user scrolls the "top apps" page).
                apps[recommended] = sample_new_apps(
                    lambda size: chart[rng.integers(0, chart.size, size=size)],
                    window[recommended],
                    ledger,
                )
            organic = np.flatnonzero(apps < 0)
            if organic.size:
                apps[organic] = sample_new_apps(
                    lambda size: self._organic.sample(size, seed=rng),
                    window[organic],
                    ledger,
                )
            done = apps >= 0
            if not np.any(done):
                continue
            counts += np.bincount(apps[done], minlength=params.n_apps)
            yield EventBatch(window[done], apps[done])

    def iter_events(self, seed: SeedLike = None) -> Iterator[DownloadEvent]:
        """Yield download events under the feedback process."""
        return events_from_batches(self.iter_batches(seed=seed))

    def _draw_recommended(
        self, downloaded: Set[int], chart: np.ndarray, rng
    ) -> Optional[int]:
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = int(chart[int(rng.integers(0, chart.size))])
            if candidate not in downloaded:
                return candidate
        return None

    def _draw_organic(self, downloaded: Set[int], rng) -> Optional[int]:
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = int(self._organic.sample(1, seed=rng)[0])
            if candidate not in downloaded:
                return candidate
        return None

    def iter_events_legacy(self, seed: SeedLike = None) -> Iterator[DownloadEvent]:
        """Reference per-event implementation (benchmark baseline).

        Same process as :meth:`iter_batches` -- the chart freezes for
        ``refresh_every`` download slots and a failed recommendation
        falls through to the organic law -- resolved one event at a
        time.
        """
        params = self.params
        rng = make_rng(seed)
        budgets = per_user_budgets(params.total_downloads, params.n_users, rng)
        order = interleaved_user_order(budgets, rng)
        downloaded: List[Set[int]] = [set() for _ in range(params.n_users)]
        counts = np.zeros(params.n_apps, dtype=np.int64)
        chart = np.arange(min(params.list_size, params.n_apps), dtype=np.int64)
        for slot, user_id in enumerate(order):
            if slot > 0 and slot % params.refresh_every == 0:
                top = np.argsort(counts)[::-1][: params.list_size]
                chart = top.astype(np.int64)
            user_downloads = downloaded[user_id]
            if len(user_downloads) >= params.n_apps:
                continue
            candidate: Optional[int] = None
            if rng.random() < params.q:
                candidate = self._draw_recommended(user_downloads, chart, rng)
            if candidate is None:
                candidate = self._draw_organic(user_downloads, rng)
            if candidate is None:
                continue
            user_downloads.add(candidate)
            counts[candidate] += 1
            yield DownloadEvent(user_id=int(user_id), app_index=int(candidate))
