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

A :class:`DownloadBehavior` holds one user segment's laws -- the global
law and a stack of one law per category -- and serves a *round*: one
download for each of a set of distinct users, drawn through the engine's
masked head/tail kernel (one clustered call, one global call) against a
shared :class:`~repro.core.engine.DownloadLedger` and
:class:`~repro.core.engine.VisitedClusters`.  The store runs a day
as rounds (round ``k`` serves every user's ``k``-th download of the
day), so each user still runs the exact chain, one download after the
other; the few accounts with more downloads in a day than a day has
rounds draw theirs in one sequence by exponential races
(:meth:`DownloadBehavior.draw_sequence`).  The engine works on app
*indices* and category arrays; the store wraps it with the entity layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.engine import DownloadLedger, VisitedClusters, masked_head_tail_draw
from repro.stats.sampling import HeadTailSampler
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

    A clustered draw whose category has nothing left to give the user
    falls back to the global law; a user with nothing left anywhere
    gets no download.
    """

    cluster_probability: float = 0.9
    global_exponent: float = 1.5
    cluster_exponent: float = 1.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.cluster_probability <= 1.0:
            raise ValueError("cluster_probability must be in [0, 1]")
        if self.global_exponent < 0 or self.cluster_exponent < 0:
            raise ValueError("Zipf exponents must be non-negative")


@dataclass(frozen=True)
class _Laws:
    """The laws in force while ``n_listed`` apps are listed: each law's
    apps (listed, positive weight; possibly none), the global law as a
    stack of one and the category laws as one stack indexed by
    category."""

    n_listed: int
    global_apps: np.ndarray
    global_law: HeadTailSampler
    category_apps: List[np.ndarray]
    category_laws: HeadTailSampler


class DownloadBehavior:
    """The download laws of one user segment over a fixed app population.

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
        Optional per-app availability day: the laws of a day cover only
        the apps listed by then, which is how the simulator models a
        growing catalog.
    clustered_accept_probability:
        Optional per-app probability that a *clustered* draw landing on
        the app is accepted (a rejected pick is drawn again).  It is
        folded into the category laws: a category law weighs each app
        by its within-category Zipf weight times this probability.
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
        self._category_list = self._categories.tolist()
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

        if listing_days is None:
            self._listing_days = np.zeros(self._n_apps, dtype=np.int64)
        else:
            self._listing_days = np.asarray(listing_days, dtype=np.int64)
            if self._listing_days.shape != (self._n_apps,):
                raise ValueError("listing_days must match app count")
        self._sorted_listing_days = np.sort(self._listing_days)

        # The paper conjectures that users are selective when paying:
        # paid apps are rarely picked up through casual same-category
        # browsing, which is what gives their rank curve the clean Zipf
        # shape of Figure 11(b).  Deliberate global-law selections are
        # unaffected.
        if clustered_accept_probability is None:
            accept = np.ones(self._n_apps, dtype=np.float64)
        else:
            accept = np.asarray(clustered_accept_probability, dtype=np.float64)
            if accept.shape != (self._n_apps,):
                raise ValueError(
                    "clustered_accept_probability must match app count"
                )
            if np.any(accept < 0) or np.any(accept > 1):
                raise ValueError(
                    "clustered_accept_probability values must lie in [0, 1]"
                )

        # Global law: Zipf over appeal ranks times per-app multipliers.
        self._global_weights = (
            zipf_weights(self._n_apps, params.global_exponent) * multipliers
        )
        # Category laws: Zipf over each category's own appeal order (the
        # global order restricted to the category), times multipliers,
        # times the clustered-accept probability.  Drawing from the
        # folded weights is the accept/redraw loop without the loop.
        self._n_categories = int(self._categories.max()) + 1
        self._by_category = np.argsort(self._categories, kind="stable")
        self._category_bounds = np.searchsorted(
            self._categories[self._by_category],
            np.arange(self._n_categories + 1),
        )
        sizes = np.diff(self._category_bounds)
        ranks = np.arange(1, self._n_apps + 1, dtype=np.float64) - np.repeat(
            self._category_bounds[:-1], sizes
        )
        cluster_weights = np.empty(self._n_apps, dtype=np.float64)
        cluster_weights[self._by_category] = ranks**-params.cluster_exponent
        self._cluster_weights = cluster_weights * multipliers * accept
        self._laws: Optional[_Laws] = None

    @property
    def n_apps(self) -> int:
        """Number of apps in the population."""
        return self._n_apps

    @property
    def n_categories(self) -> int:
        """Number of category indices (largest index plus one)."""
        return self._n_categories

    @property
    def params(self) -> BehaviorParams:
        """The behaviour parameters in force."""
        return self._params

    def same_draws(self, other: "DownloadBehavior") -> bool:
        """Whether ``other`` draws exactly like this behaviour: same ``p``,
        same categories, listing days and law weights."""
        return (
            self._params.cluster_probability
            == other._params.cluster_probability
            and np.array_equal(self._categories, other._categories)
            and np.array_equal(self._listing_days, other._listing_days)
            and np.array_equal(self._global_weights, other._global_weights)
            and np.array_equal(self._cluster_weights, other._cluster_weights)
        )

    def _laws_on(self, day: int) -> _Laws:
        """The laws over the apps listed on ``day``, rebuilt only when
        that set changed (listed sets only grow, so its size names it)."""
        n_listed = int(
            np.searchsorted(self._sorted_listing_days, day, side="right")
        )
        if self._laws is None or self._laws.n_listed != n_listed:
            listed = self._listing_days <= day
            global_apps = np.flatnonzero(listed & (self._global_weights > 0))
            clustered = listed & (self._cluster_weights > 0)
            category_apps = []
            for category in range(self._n_categories):
                members = self._by_category[
                    self._category_bounds[category] : self._category_bounds[
                        category + 1
                    ]
                ]
                category_apps.append(members[clustered[members]])
            self._laws = _Laws(
                n_listed=n_listed,
                global_apps=global_apps,
                global_law=HeadTailSampler(
                    [self._global_weights[global_apps]], [global_apps]
                ),
                category_apps=category_apps,
                category_laws=HeadTailSampler(
                    [self._cluster_weights[apps] for apps in category_apps],
                    category_apps,
                ),
            )
        return self._laws

    def next_downloads(
        self,
        users: np.ndarray,
        day: int,
        ledger: DownloadLedger,
        visited: VisitedClusters,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw and record one download for each of ``users`` on ``day``.

        ``users`` must be distinct: one round of the store's day.  Per
        user this is the decision process of Section 5.1: the first
        download comes from the global law; afterwards, with probability
        ``p``, from a category the user already downloaded from (chosen
        uniformly), falling back to the global law when that category
        has nothing left for the user, and otherwise from the global
        law.  Every draw is renormalized over the listed apps the user
        does not own (:func:`~repro.core.engine.masked_head_tail_draw`),
        so fetch-at-most-once holds exactly.  A round is at most two
        kernel calls: one for every clustered draw, whatever its
        category, and one for the global draws.

        Accepted downloads are recorded in ``ledger`` and ``visited``.
        Returns the app per user, ``-1`` for users with nothing left to
        download.
        """
        laws = self._laws_on(day)
        apps = np.full(users.size, -1, dtype=np.int64)
        if laws.global_apps.size == 0:
            return apps
        # Users only ever own listed apps, so owning as many as are
        # listed means owning them all.
        slots = np.flatnonzero(ledger.counts[users] < laws.n_listed)
        active = users[slots]
        picks = np.full(active.size, -1, dtype=np.int64)
        clustered = np.flatnonzero(
            (visited.counts[active] > 0)
            & (
                rng.random(active.size, dtype=np.float32)
                < np.float32(self._params.cluster_probability)
            )
        )
        if clustered.size:
            # A category with nothing left for the user (or no listed
            # app at all) yields -1: the global law takes over below.
            chosen = visited.choose(active[clustered], rng)
            picks[clustered] = masked_head_tail_draw(
                laws.category_laws, active[clustered], chosen, ledger, rng
            )
        fallback = np.flatnonzero(picks < 0)
        if fallback.size:
            picks[fallback] = masked_head_tail_draw(
                laws.global_law, active[fallback], None, ledger, rng
            )
        done = picks >= 0
        ledger.add_unique(active[done], picks[done])
        visited.record(active[done], self._categories[picks[done]])
        apps[slots] = picks
        return apps

    def draw_sequence(
        self,
        user: int,
        n: int,
        day: int,
        ledger: DownloadLedger,
        visited: VisitedClusters,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw and record ``n`` consecutive downloads of one user on ``day``.

        The chain of :meth:`next_downloads`, run ``n`` times for one
        user, for the few accounts with many downloads in a day: a round
        per download would cost a dispatch each.  Each law draws by an
        exponential race instead: every app of the law the user does not
        own gets a clock ``E / w`` (``E`` standard exponential, ``w`` the
        app's weight in the law), and the law's next download is the
        untaken app whose clock rings first.  By the memorylessness of
        the exponential, that is an exact draw from the law renormalized
        over the apps the user does not own, whatever the other laws
        took meanwhile, so one sort per law the user draws from replaces
        a kernel call per download.

        Returns the apps in order, ``-1`` for downloads the user had
        nothing left for.
        """
        laws = self._laws_on(day)
        apps = np.full(n, -1, dtype=np.int64)
        if laws.global_apps.size == 0:
            return apps
        owned = ledger.owned(user)
        clustered = (
            rng.random(n, dtype=np.float32)
            < np.float32(self._params.cluster_probability)
        ).tolist()
        uniforms = rng.random(n, dtype=np.float32).tolist()
        visits = visited.clusters(user).tolist()
        first_new = len(visits)
        races: dict = {}  # law (-1: global) -> [apps by clock, position]
        taken: set = set()

        def next_from(law: int) -> int:
            race = races.get(law)
            if race is None:
                if law < 0:
                    members, weights = laws.global_apps, self._global_weights
                else:
                    members = laws.category_apps[law]
                    weights = self._cluster_weights
                members = members[~owned[members]]
                clocks = rng.standard_exponential(members.size) / weights[members]
                race = races[law] = [members[np.argsort(clocks)].tolist(), 0]
            order, position = race
            while position < len(order) and order[position] in taken:
                position += 1
            race[1] = position + 1
            return order[position] if position < len(order) else -1

        picks: List[int] = []
        for coin, uniform in zip(clustered, uniforms):
            app = -1
            if visits and coin:
                count = len(visits)
                app = next_from(visits[min(int(uniform * count), count - 1)])
            if app < 0:
                app = next_from(-1)
            if app < 0:
                # Every category law is part of the global one: the
                # user owns all the laws offer and draws nothing more.
                break
            taken.add(app)
            picks.append(app)
            category = self._category_list[app]
            if category not in visits:
                visits.append(category)
        if picks:
            apps[: len(picks)] = picks
            ledger.add(np.full(len(picks), user, dtype=np.int64), apps[: len(picks)])
            visited.extend(user, visits[first_new:])
        return apps
