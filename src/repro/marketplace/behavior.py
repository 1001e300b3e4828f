"""User download behaviour engine.

This is the generative mechanism the paper's APP-CLUSTERING model
abstracts (Section 5.1), embedded in the marketplace simulator so that the
*measured* synthetic data actually contains the phenomena the analysis
pipeline must recover:

- **fetch-at-most-once** -- a user never downloads the same app twice
  (re-downloads only happen after an update);
- **clustering effect** -- with probability ``p`` a user's next download
  comes from the category of one of their previous downloads (drawn from
  that category's internal Zipf law), otherwise from the global Zipf law.

The engine works on app *indices* and category arrays for speed; the store
wraps it with the entity layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.engine import MAX_DRAW_ATTEMPTS
from repro.stats.sampling import AliasSampler
from repro.stats.zipf import zipf_weights


@dataclass(frozen=True)
class BehaviorParams:
    """Tunable knobs of the download behaviour.

    Parameters
    ----------
    cluster_probability:
        The paper's ``p``: fraction of downloads driven by the clustering
        effect.  The paper's best fits use 0.90-0.95.
    global_exponent:
        The paper's ``zr``: Zipf exponent of the global appeal ranking.
    cluster_exponent:
        The paper's ``zc``: Zipf exponent of each category's internal
        ranking.

    Fetch-at-most-once resampling stops after
    :data:`repro.core.engine.MAX_DRAW_ATTEMPTS` tries per draw: a user
    who has exhausted a category falls back to the global distribution,
    and a download that still finds nothing new is skipped.
    """

    cluster_probability: float = 0.9
    global_exponent: float = 1.5
    cluster_exponent: float = 1.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.cluster_probability <= 1.0:
            raise ValueError("cluster_probability must be in [0, 1]")
        if self.global_exponent < 0 or self.cluster_exponent < 0:
            raise ValueError("Zipf exponents must be non-negative")


@dataclass
class UserState:
    """Per-user download history the engine consults."""

    downloaded: Set[int] = field(default_factory=set)
    visited_categories: List[int] = field(default_factory=list)

    def record(self, app_index: int, category_index: int) -> None:
        """Add a download to the history."""
        self.downloaded.add(app_index)
        if category_index not in self.visited_categories:
            self.visited_categories.append(category_index)


class DownloadBehavior:
    """Samples app downloads for users over a fixed app population.

    Parameters
    ----------
    app_categories:
        ``app_categories[i]`` is the category index of the app with global
        appeal rank ``i + 1``.  Apps are identified by their 0-based global
        appeal index throughout the engine.
    appeal_multipliers:
        Optional per-app multiplicative appeal adjustments (price demand
        factors, editorial boosts).  Defaults to all ones.
    params:
        The behaviour knobs.
    listing_days:
        Optional per-app availability day; draws landing on an app not yet
        listed at the requested day are rejected and resampled, which is
        how the simulator models a growing catalog.
    """

    def __init__(
        self,
        app_categories: Sequence[int],
        params: BehaviorParams,
        appeal_multipliers: Optional[Sequence[float]] = None,
        listing_days: Optional[Sequence[int]] = None,
        clustered_accept_probability: Optional[Sequence[float]] = None,
    ) -> None:
        self._categories = np.asarray(app_categories, dtype=np.int64)
        if self._categories.ndim != 1 or self._categories.size == 0:
            raise ValueError("app_categories must be a non-empty 1-D array")
        if np.any(self._categories < 0):
            raise ValueError("category indices must be non-negative")
        self._n_apps = self._categories.size
        self._params = params

        if appeal_multipliers is None:
            multipliers = np.ones(self._n_apps, dtype=np.float64)
        else:
            multipliers = np.asarray(appeal_multipliers, dtype=np.float64)
            if multipliers.shape != (self._n_apps,):
                raise ValueError("appeal_multipliers must match app count")
            if np.any(multipliers < 0):
                raise ValueError("appeal multipliers must be non-negative")
        self._multipliers = multipliers

        if listing_days is None:
            self._listing_days = np.zeros(self._n_apps, dtype=np.int64)
        else:
            self._listing_days = np.asarray(listing_days, dtype=np.int64)
            if self._listing_days.shape != (self._n_apps,):
                raise ValueError("listing_days must match app count")

        # Per-app probability that a *clustered* (casual, browse-driven)
        # draw landing on the app is accepted.  The paper conjectures that
        # users are selective when paying: paid apps are rarely picked up
        # through casual same-category browsing, which is what gives their
        # rank curve the clean Zipf shape of Figure 11(b).  Deliberate
        # global-law selections are unaffected.
        if clustered_accept_probability is None:
            self._clustered_accept = np.ones(self._n_apps, dtype=np.float64)
        else:
            self._clustered_accept = np.asarray(
                clustered_accept_probability, dtype=np.float64
            )
            if self._clustered_accept.shape != (self._n_apps,):
                raise ValueError(
                    "clustered_accept_probability must match app count"
                )
            if np.any(self._clustered_accept < 0) or np.any(
                self._clustered_accept > 1
            ):
                raise ValueError(
                    "clustered_accept_probability values must lie in [0, 1]"
                )

        # Global sampler: Zipf over appeal ranks times per-app multipliers.
        global_weights = (
            zipf_weights(self._n_apps, params.global_exponent) * multipliers
        )
        self._global_sampler = AliasSampler(global_weights)

        # Per-category samplers over each category's own apps, ordered by
        # their within-category appeal (global order restricted to the
        # category preserves that ordering).
        self._category_members: Dict[int, np.ndarray] = {}
        self._category_samplers: Dict[int, AliasSampler] = {}
        for category_index in np.unique(self._categories):  # repro: noqa=RPL020 -- sampler setup, O(categories) not O(users)
            members = np.flatnonzero(self._categories == category_index)
            weights = (
                zipf_weights(members.size, params.cluster_exponent)
                * multipliers[members]
            )
            self._category_members[int(category_index)] = members
            if weights.sum() > 0:
                self._category_samplers[int(category_index)] = AliasSampler(
                    weights
                )

    @property
    def n_apps(self) -> int:
        """Number of apps in the population."""
        return self._n_apps

    @property
    def params(self) -> BehaviorParams:
        """The behaviour parameters in force."""
        return self._params

    def category_of(self, app_index: int) -> int:
        """Category index of an app."""
        return int(self._categories[app_index])

    def _available(self, app_index: int, day: int) -> bool:
        return self._listing_days[app_index] <= day

    def _draw_global(
        self, state: UserState, day: int, rng: np.random.Generator
    ) -> Optional[int]:
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = self._global_sampler.sample_one(rng)
            if candidate in state.downloaded:
                continue
            if not self._available(candidate, day):
                continue
            return candidate
        return None

    def _draw_clustered(
        self, state: UserState, day: int, rng: np.random.Generator
    ) -> Optional[int]:
        if not state.visited_categories:
            return None
        # The paper: the cluster is chosen uniformly among the categories
        # of previous downloads.
        position = int(rng.integers(0, len(state.visited_categories)))
        category = state.visited_categories[position]
        sampler = self._category_samplers.get(category)
        if sampler is None:
            return None
        members = self._category_members[category]
        for _ in range(MAX_DRAW_ATTEMPTS):
            candidate = int(members[sampler.sample_one(rng)])
            if candidate in state.downloaded:
                continue
            if not self._available(candidate, day):
                continue
            accept = self._clustered_accept[candidate]
            if accept < 1.0 and rng.random() >= accept:
                continue
            return candidate
        return None

    def next_download(
        self, state: UserState, day: int, rng: np.random.Generator
    ) -> Optional[int]:
        """Sample the user's next app, or ``None`` when saturated.

        Implements the decision process of Section 5.1: first download from
        the global law; afterwards from a previously visited category with
        probability ``p`` (falling back to the global law when the chosen
        category is exhausted), else from the global law.  The returned app
        is *not* recorded into ``state``; callers decide whether the
        download actually happens (e.g. paid-app purchase decisions) and
        then call ``state.record``.
        """
        if len(state.downloaded) >= self._n_apps:
            return None
        use_cluster = (
            bool(state.visited_categories)
            and rng.random() < self._params.cluster_probability
        )
        if use_cluster:
            candidate = self._draw_clustered(state, day, rng)
            if candidate is not None:
                return candidate
        return self._draw_global(state, day, rng)

