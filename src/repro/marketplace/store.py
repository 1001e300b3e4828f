"""The live appstore: catalog, download ledger, and simulation loop.

An :class:`AppStore` owns the app catalog, the user population, and the
behaviour engine, and advances one day at a time.  Each day it:

1. lists the apps scheduled to appear that day (developers publish new
   apps at the profile's Poisson rate);
2. releases app updates for the actively maintained minority of apps,
   which trigger a trickle of re-downloads from their owners;
3. simulates the day's downloads through the behaviour engine, enforcing
   fetch-at-most-once and the clustering effect, in per-user rounds:
   round ``k`` draws every user's ``k``-th download of the day at once;
4. posts rated comments for a fraction of downloads (plus spam-account
   noise), which is the signal the affinity study consumes.

All per-user download state lives in one bit-packed
:class:`~repro.core.engine.DownloadLedger` and one
:class:`~repro.core.engine.VisitedClusters`; counts, purchases, ratings
and comments are accumulated as arrays.

The crawler substrate (:mod:`repro.crawler`) observes a store only through
its public query methods, the same way the paper's crawler saw only the
stores' web pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DownloadLedger, VisitedClusters
from repro.marketplace.behavior import DownloadBehavior
from repro.marketplace.catalog import CategoryTaxonomy
from repro.marketplace.segments import SegmentedPopulation
from repro.marketplace.entities import (
    App,
    AppStatistics,
    AppVersion,
    Comment,
    DownloadRecord,
    User,
)


@dataclass
class DailyActivity:
    """What happened in one simulated day (returned by ``advance_day``)."""

    day: int
    downloads: int
    purchases: int
    comments: int
    new_apps: int
    updates: int


#: Rounds a store day runs at most: a user with more events that day (a
#: heavy or spam account) draws them in one sequence instead, so one
#: account's activity cannot add rounds, each of which costs a dispatch.
MAX_ROUNDS = 16


class AppStore:
    """A simulated appstore, advanced one day at a time.

    Instances are normally built by :func:`repro.marketplace.generator.build_store`;
    the constructor wires together pre-generated populations.
    """

    def __init__(
        self,
        name: str,
        taxonomy: CategoryTaxonomy,
        apps: Sequence[App],
        users: Sequence[User],
        behavior: DownloadBehavior,
        rng: np.random.Generator,
        daily_download_rate: float,
        update_rates: Optional[Sequence[float]] = None,
        keep_download_log: bool = False,
        segments: Optional[SegmentedPopulation] = None,
        segment_behaviors: Optional[Sequence[DownloadBehavior]] = None,
    ) -> None:
        if len(apps) != behavior.n_apps:
            raise ValueError("apps and behaviour engine disagree on app count")
        if (segments is None) != (segment_behaviors is None):
            raise ValueError(
                "segments and segment_behaviors must be given together"
            )
        if segments is not None:
            if segments.n_users != len(users):
                raise ValueError("segment partition disagrees on user count")
            if len(segment_behaviors) != segments.n_segments:
                raise ValueError("one behaviour engine per segment required")
        self.name = name
        self.taxonomy = taxonomy
        self._apps: List[App] = list(apps)
        self._users: List[User] = list(users)
        self._rng = rng
        self.daily_download_rate = float(daily_download_rate)
        if self.daily_download_rate < 0:
            raise ValueError("daily_download_rate must be non-negative")

        if update_rates is None:
            self._update_rates = np.zeros(len(apps), dtype=np.float64)
        else:
            self._update_rates = np.asarray(update_rates, dtype=np.float64)
            if self._update_rates.shape != (len(apps),):
                raise ValueError("update_rates must match app count")
            if np.any(self._update_rates < 0) or np.any(self._update_rates > 1):
                raise ValueError("update_rates must lie in [0, 1]")

        self.day = 0
        self._listing_days = np.array(
            [app.listing_day for app in apps], dtype=np.int64
        )
        self._is_paid = np.array([app.is_paid for app in apps], dtype=bool)
        self._downloads = np.zeros(len(apps), dtype=np.int64)
        self._rating_sums = np.zeros(len(apps), dtype=np.int64)
        # Every comment carries a rating, so this counts both.
        self._comment_counts = np.zeros(len(apps), dtype=np.int64)
        self._comments: List[Comment] = []
        self._comments_by_app: Dict[int, List[Comment]] = {}
        self._download_log: List[DownloadRecord] = []
        self._keep_download_log = keep_download_log
        self._daily_totals: List[DailyActivity] = []

        activity = np.array([user.activity for user in users], dtype=np.float64)
        if activity.sum() <= 0:
            raise ValueError("user population has no activity")
        self._user_pick_probabilities = activity / activity.sum()
        self._comment_probability = np.array(
            [user.comment_probability for user in users], dtype=np.float64
        )
        # Any user may come to own any app, so the ledger's capacity is
        # the catalog; at that width the bit-packed backend is the
        # smaller one (n_apps / 8 bytes per user).
        self._ledger = DownloadLedger(len(users), len(apps), len(apps))
        self._visited = VisitedClusters(
            len(users), behavior.n_categories, len(apps)
        )

        self._segments = segments
        if segments is not None:
            segment_behaviors = list(segment_behaviors)
            self._segment_of_user = np.repeat(
                np.arange(segments.n_segments, dtype=np.int64),
                segments.sizes,
            )
            self._downloads_by_segment = np.zeros(
                (segments.n_segments, len(apps)), dtype=np.int64
            )
            self._update_weights = np.array(
                [seg.update_affinity for seg in segments.segments],
                dtype=np.float64,
            )
        else:
            segment_behaviors = [behavior]
            self._segment_of_user = np.zeros(len(users), dtype=np.int64)
            self._downloads_by_segment = np.zeros(
                (1, len(apps)), dtype=np.int64
            )
            self._update_weights = np.ones(1, dtype=np.float64)
        # One draw dispatch per distinct behaviour: segments that draw
        # alike share one, so any equal-parameter partition consumes the
        # exact RNG stream of the global run.
        self._behaviors: List[DownloadBehavior] = []
        group_of_segment = []
        for candidate in segment_behaviors:
            for group, known in enumerate(self._behaviors):
                if known.same_draws(candidate):
                    break
            else:
                group = len(self._behaviors)
                self._behaviors.append(candidate)
            group_of_segment.append(group)
        self._group_of_user = np.asarray(group_of_segment, dtype=np.int64)[
            self._segment_of_user
        ]
        # Weighted update refreshes only when segments actually differ in
        # update affinity: the unweighted branch below must keep consuming
        # the exact same RNG stream as the pre-segment store, so any
        # equal-parameter partition stays byte-identical to the global run.
        self._weighted_updates = (
            segments is not None and not segments.uniform_update_affinity
        )

    # ------------------------------------------------------------------
    # Public read API (what the crawler sees)
    # ------------------------------------------------------------------

    @property
    def n_apps(self) -> int:
        """Total apps ever created (listed or scheduled)."""
        return len(self._apps)

    @property
    def n_users(self) -> int:
        """Size of the user population."""
        return len(self._users)

    def listed_app_ids(self, day: Optional[int] = None) -> List[int]:
        """IDs of apps listed (publicly visible) on ``day`` (default: today)."""
        day = self.day if day is None else day
        return np.flatnonzero(self._listing_days <= day).tolist()

    def app(self, app_id: int) -> App:
        """The app entity for an ID."""
        return self._apps[app_id]

    def apps(self) -> List[App]:
        """All app entities (including not-yet-listed ones)."""
        return list(self._apps)

    def statistics(self, app_id: int) -> AppStatistics:
        """The public statistics page of an app."""
        app = self._apps[app_id]
        version = app.current_version
        return AppStatistics(
            app_id=app_id,
            total_downloads=int(self._downloads[app_id]),
            rating_sum=int(self._rating_sums[app_id]),
            rating_count=int(self._comment_counts[app_id]),
            comment_count=int(self._comment_counts[app_id]),
            version_name=version.version_name if version else "1.0",
            price=app.price,
        )

    def download_counts(self) -> np.ndarray:
        """Per-app cumulative download counts (a copy)."""
        return self._downloads.copy()

    @property
    def segments(self) -> Optional[SegmentedPopulation]:
        """The persona partition this store runs under (``None`` = global)."""
        return self._segments

    def segment_download_counts(self) -> np.ndarray:
        """Per-(segment, app) cumulative download counts (a copy).

        Shape ``(n_segments, n_apps)``; a single all-users segment when the
        store runs the global profile.  Rows sum to :meth:`download_counts`.
        """
        return self._downloads_by_segment.copy()

    def segment_of_users(self) -> np.ndarray:
        """Segment index of every user (zeros when unsegmented; a copy)."""
        return self._segment_of_user.copy()

    def total_downloads(self) -> int:
        """Cumulative downloads across all apps."""
        return int(self._downloads.sum())

    def comments(self) -> List[Comment]:
        """All public comments in posting order."""
        return list(self._comments)

    def comments_for_app(self, app_id: int) -> List[Comment]:
        """Public comments on one app, in posting order."""
        return list(self._comments_by_app.get(app_id, []))

    def download_log(self) -> List[DownloadRecord]:
        """The raw download event log (empty unless ``keep_download_log``)."""
        return list(self._download_log)

    def daily_activity(self) -> List[DailyActivity]:
        """Per-day activity summaries since store creation."""
        return list(self._daily_totals)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def advance_day(self) -> DailyActivity:
        """Simulate one day of store activity and return its summary."""
        day = self.day
        new_apps = int(np.count_nonzero(self._listing_days == day))
        updates = self._release_updates(day)
        downloads, purchases, comments = self._simulate_downloads(day)
        activity = DailyActivity(
            day=day,
            downloads=downloads,
            purchases=purchases,
            comments=comments,
            new_apps=new_apps,
            updates=updates,
        )
        self._daily_totals.append(activity)
        self.day += 1
        return activity

    def advance_days(self, n_days: int) -> List[DailyActivity]:
        """Simulate ``n_days`` consecutive days."""
        if n_days < 0:
            raise ValueError("n_days must be non-negative")
        return [self.advance_day() for _ in range(n_days)]

    def _release_updates(self, day: int) -> int:
        """Release new versions for actively maintained listed apps."""
        rates = np.where(self._listing_days <= day, self._update_rates, 0.0)
        coins = self._rng.random(rates.size)
        to_update = np.flatnonzero(coins < rates)
        for app_id in to_update.tolist():
            app = self._apps[app_id]
            current = app.current_version
            if current is None:
                continue
            next_code = current.apk.version_code + 1
            new_apk = type(current.apk)(
                package_name=current.apk.package_name,
                version_code=next_code,
                size_mb=current.apk.size_mb,
                embedded_libraries=current.apk.embedded_libraries,
            )
            app.versions.append(
                AppVersion(
                    version_name=f"1.{next_code}",
                    release_day=day,
                    apk=new_apk,
                )
            )
            # An update allows a trickle of re-downloads from existing
            # owners; this is the only violation of fetch-at-most-once the
            # paper acknowledges, and it is small (Figure 4).
            owners = self._ledger.owners(app_id)
            if owners.size == 0:
                continue
            size = max(1, int(0.05 * owners.size))
            if self._weighted_updates:
                # Update-chasers refresh more eagerly: owners are drawn
                # with probability proportional to their segment's
                # update affinity.
                weights = self._update_weights[self._segment_of_user[owners]]
                refreshed = self._rng.choice(
                    owners.size,
                    size=size,
                    replace=False,
                    p=weights / weights.sum(),
                )
            else:
                refreshed = self._rng.choice(owners.size, size=size, replace=False)
            refreshed_users = owners[refreshed]
            self._downloads[app_id] += size
            np.add.at(
                self._downloads_by_segment,
                (self._segment_of_user[refreshed_users], app_id),
                1,
            )
            if self._keep_download_log:
                self._download_log.extend(
                    DownloadRecord(
                        user_id=user_id, app_id=app_id, day=day, is_update=True
                    )
                    for user_id in refreshed_users.tolist()
                )
        return int(to_update.size)

    def _simulate_downloads(self, day: int) -> Tuple[int, int, int]:
        """Run the day's download events; returns (downloads, purchases, comments).

        The day's events pick their users up front.  Round ``k`` then
        draws the ``k``-th event of every user who has one, users
        ascending: a user appears at most once per round, so each user
        runs the exact Section 5.1 chain over the day, while every round
        costs one dispatch per distinct segment behaviour.  A user with
        more than :data:`MAX_ROUNDS` events draws them all afterwards in
        one sequence (:meth:`DownloadBehavior.draw_sequence`), users
        ascending, so the day's cost follows its event count rather than
        its busiest account.  Results land back in event order, which
        orders the log and the comments.
        """
        n_events = int(self._rng.poisson(self.daily_download_rate))
        if n_events == 0:
            return 0, 0, 0
        picks = self._rng.choice(
            self.n_users, size=n_events, p=self._user_pick_probabilities
        )
        by_user = np.argsort(picks, kind="stable")
        sorted_users = picks[by_user]
        starts = np.flatnonzero(np.diff(sorted_users, prepend=-1))
        lengths = np.diff(starts, append=n_events)
        rank = np.arange(n_events) - np.repeat(starts, lengths)
        in_rounds = np.repeat(lengths <= MAX_ROUNDS, lengths)
        round_rank = rank[in_rounds]
        slots = by_user[in_rounds][np.argsort(round_rank, kind="stable")]
        round_bounds = np.concatenate(([0], np.cumsum(np.bincount(round_rank))))
        apps = np.empty(n_events, dtype=np.int64)
        for k in range(round_bounds.size - 1):
            events = slots[round_bounds[k] : round_bounds[k + 1]]
            apps[events] = self._draw_round(picks[events], day)
        heavy = np.flatnonzero(lengths > MAX_ROUNDS)
        for start, length in zip(starts[heavy].tolist(), lengths[heavy].tolist()):
            user = int(sorted_users[start])
            behavior = self._behaviors[self._group_of_user[user]]
            apps[by_user[start : start + length]] = behavior.draw_sequence(
                user, length, day, self._ledger, self._visited, self._rng
            )

        done = np.flatnonzero(apps >= 0)
        users, apps = picks[done], apps[done]
        n_apps = self.n_apps
        self._downloads += np.bincount(apps, minlength=n_apps)
        self._downloads_by_segment += np.bincount(
            self._segment_of_user[users] * n_apps + apps,
            minlength=self._downloads_by_segment.size,
        ).reshape(self._downloads_by_segment.shape)
        purchases = int(np.count_nonzero(self._is_paid[apps]))
        if self._keep_download_log:
            self._download_log.extend(
                DownloadRecord(user_id=user_id, app_id=app_id, day=day)
                for user_id, app_id in zip(users.tolist(), apps.tolist())
            )

        commented = np.flatnonzero(
            self._rng.random(done.size) < self._comment_probability[users]
        )
        ratings = self._rng.integers(1, 6, size=commented.size)
        commenters, commented_apps = users[commented], apps[commented]
        self._rating_sums += np.bincount(
            commented_apps, weights=ratings, minlength=n_apps
        ).astype(np.int64)
        self._comment_counts += np.bincount(commented_apps, minlength=n_apps)
        for user_id, app_id, rating in zip(
            commenters.tolist(), commented_apps.tolist(), ratings.tolist()
        ):
            comment = Comment(user_id=user_id, app_id=app_id, day=day, rating=rating)
            self._comments.append(comment)
            self._comments_by_app.setdefault(app_id, []).append(comment)
        return int(done.size), purchases, int(commented.size)

    def _draw_round(self, users: np.ndarray, day: int) -> np.ndarray:
        """One download per user (users distinct and ascending), one
        dispatch per distinct behaviour; ``-1`` where a user gets none."""
        apps = np.empty(users.size, dtype=np.int64)
        groups = self._group_of_user[users]
        for group, behavior in enumerate(self._behaviors):
            members = np.flatnonzero(groups == group)
            if members.size:
                apps[members] = behavior.next_downloads(
                    users[members], day, self._ledger, self._visited, self._rng
                )
        return apps
