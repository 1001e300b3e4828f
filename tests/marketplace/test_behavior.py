"""Tests for repro.marketplace.behavior (the download behaviour engine).

Every check drives the batched draw the store runs: rounds of
:meth:`DownloadBehavior.next_downloads`, one download per user per
round, against a shared ledger and visited-category lists.
"""

import numpy as np
import pytest

from repro.core.engine import DownloadLedger, VisitedClusters
from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
from repro.stats.zipf import zipf_weights


def make_behavior(n_apps=60, n_categories=6, **param_overrides):
    params = BehaviorParams(**param_overrides) if param_overrides else BehaviorParams()
    categories = np.arange(n_apps) % n_categories
    return DownloadBehavior(app_categories=categories, params=params)


class History:
    """The per-user state a store keeps: one ledger, one visited list."""

    def __init__(self, behavior, n_users):
        self.behavior = behavior
        self.users = np.arange(n_users, dtype=np.int64)
        self.ledger = DownloadLedger(n_users, behavior.n_apps, behavior.n_apps)
        self.visited = VisitedClusters(
            n_users, behavior.n_categories, behavior.n_apps
        )

    def rounds(self, n_rounds, rng, day=0):
        """``(n_users, n_rounds)`` matrix of each user's next downloads."""
        return np.stack(
            [
                self.behavior.next_downloads(
                    self.users, day, self.ledger, self.visited, rng
                )
                for _ in range(n_rounds)
            ],
            axis=1,
        )

    def own(self, user, apps, categories):
        """Give ``user`` prior downloads, as earlier rounds would have."""
        for app, category in zip(apps, categories):
            self.ledger.add_unique(np.array([user]), np.array([app]))
            self.visited.record(np.array([user]), np.array([category]))


class TestBehaviorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorParams(cluster_probability=1.5)
        with pytest.raises(ValueError):
            BehaviorParams(global_exponent=-1.0)


class TestDownloadBehavior:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            DownloadBehavior(app_categories=[], params=BehaviorParams())
        with pytest.raises(ValueError):
            DownloadBehavior(
                app_categories=[0, 1],
                params=BehaviorParams(),
                appeal_multipliers=[1.0],
            )
        with pytest.raises(ValueError):
            DownloadBehavior(
                app_categories=[0, 1],
                params=BehaviorParams(),
                listing_days=[0],
            )

    def test_fetch_at_most_once(self):
        """Twenty rounds over twenty apps: every user gets each app once."""
        behavior = make_behavior(n_apps=20)
        history = History(behavior, n_users=30)
        downloads = history.rounds(20, np.random.default_rng(0))
        for row in downloads:
            assert sorted(row.tolist()) == list(range(20))
        assert history.ledger.counts.tolist() == [20] * 30

    def test_round_records_downloads_and_categories(self):
        """Each round lands in the ledger and in the user's visited
        categories, which the clustered draws choose from."""
        behavior = make_behavior(n_apps=40, n_categories=4)
        history = History(behavior, n_users=12)
        rng = np.random.default_rng(9)
        downloads = history.rounds(5, rng)
        for user, row in enumerate(downloads):
            owned = history.ledger.contains(
                np.full(40, user), np.arange(40)
            )
            assert np.flatnonzero(owned).tolist() == sorted(row.tolist())
            visits = set((row % 4).tolist())
            chosen = history.visited.choose(np.full(200, user), rng)
            assert set(chosen.tolist()) == visits
            assert history.visited.counts[user] == len(visits)

    def test_saturated_user_gets_none(self):
        behavior = make_behavior(n_apps=5)
        history = History(behavior, n_users=3)
        rng = np.random.default_rng(1)
        assert (history.rounds(5, rng) >= 0).all()
        assert history.rounds(1, rng).ravel().tolist() == [-1, -1, -1]

    def test_unlisted_apps_not_downloaded(self):
        categories = np.zeros(10, dtype=int)
        listing_days = np.array([0] * 5 + [100] * 5)
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(),
            listing_days=listing_days,
        )
        history = History(behavior, n_users=20)
        downloads = history.rounds(7, np.random.default_rng(2), day=0)
        # Five listed apps: five downloads each, then nothing.
        assert (downloads[:, :5] < 5).all() and (downloads[:, :5] >= 0).all()
        assert (downloads[:, 5:] == -1).all()

    def test_unlisted_apps_become_available_later(self):
        categories = np.zeros(6, dtype=int)
        listing_days = np.array([0, 0, 0, 10, 10, 10])
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(),
            listing_days=listing_days,
        )
        history = History(behavior, n_users=1)
        history.own(0, [0, 1, 2], [0, 0, 0])
        rng = np.random.default_rng(3)
        assert history.rounds(1, rng, day=9).tolist() == [[-1]]
        late = history.rounds(3, rng, day=10)
        assert sorted(late.ravel().tolist()) == [3, 4, 5]

    def test_high_p_keeps_users_in_category(self):
        """With p=1, every download after the first stays in one category."""
        behavior = make_behavior(
            n_apps=120,
            n_categories=6,
            cluster_probability=1.0,
            global_exponent=1.0,
            cluster_exponent=1.0,
        )
        history = History(behavior, n_users=50)
        downloads = history.rounds(11, np.random.default_rng(4))
        categories = downloads % 6
        assert (categories == categories[:, :1]).all()

    def test_zero_appeal_never_downloaded(self):
        categories = np.zeros(10, dtype=int)
        multipliers = np.ones(10)
        multipliers[7] = 0.0
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(cluster_probability=0.5),
            appeal_multipliers=multipliers,
        )
        history = History(behavior, n_users=40)
        downloads = history.rounds(10, np.random.default_rng(5))
        assert 7 not in downloads
        # The nine apps with appeal are all taken, then the users stop.
        assert (downloads[:, :9] >= 0).all()
        assert (downloads[:, 9] == -1).all()

    def test_clustered_accept_probability_validated(self):
        with pytest.raises(ValueError):
            DownloadBehavior(
                app_categories=[0, 1],
                params=BehaviorParams(),
                clustered_accept_probability=[0.5],
            )
        with pytest.raises(ValueError):
            DownloadBehavior(
                app_categories=[0, 1],
                params=BehaviorParams(),
                clustered_accept_probability=[0.5, 1.5],
            )

    def test_clustered_accept_zero_blocks_casual_pickup(self):
        """Apps with zero clustered-accept only arrive via global draws.

        This is the mechanism that gives paid apps their clean Zipf curve
        (Section 6.1): casual same-category browsing skips them.
        """
        n_apps = 40
        categories = np.zeros(n_apps, dtype=int)  # one big category
        accept = np.ones(n_apps)
        accept[5] = 0.0  # the "paid" app
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(
                cluster_probability=1.0,  # all post-first draws clustered
                global_exponent=0.0,
                cluster_exponent=0.0,
            ),
            clustered_accept_probability=accept,
        )
        history = History(behavior, n_users=60)
        downloads = history.rounds(6, np.random.default_rng(8))
        # The first (global) draw may land on app 5; no clustered one does.
        assert (downloads[:, 0] == 5).any()
        assert 5 not in downloads[:, 1:]

    def test_p_zero_ignores_history(self):
        """With p=0, affinity is only whatever the global law induces."""
        behavior = make_behavior(
            n_apps=600,
            n_categories=6,
            cluster_probability=0.0,
            global_exponent=0.0,  # uniform, to isolate the clustering term
        )
        history = History(behavior, n_users=200)
        categories = history.rounds(5, np.random.default_rng(6)) % 6
        same = categories[:, 1:] == categories[:, :-1]
        # Uniform over 6 equal categories: same-category rate ~1/6.
        assert same.mean() == pytest.approx(1 / 6, abs=0.05)

    def test_equal_laws_draw_alike(self):
        """``same_draws`` compares the laws, not the object."""
        assert make_behavior().same_draws(make_behavior())
        assert not make_behavior().same_draws(
            make_behavior(cluster_probability=0.5)
        )
        assert not make_behavior().same_draws(make_behavior(global_exponent=1.2))


def _chain_law(behavior_inputs, n_steps):
    """Exact probability of every ordered run of ``n_steps`` downloads
    by a fresh user: the Section 5.1 chain enumerated branch by branch,
    each law renormalized over the apps the user does not own."""
    categories, global_weights, cluster_weights, p = behavior_inputs
    n_apps = len(categories)
    law = {}

    def renormalized(weights, members, owned):
        free = [a for a in members if a not in owned and weights[a] > 0]
        total = sum(weights[a] for a in free)
        return [(a, weights[a] / total) for a in free]

    def walk(owned, visits, probability, run):
        if len(run) == n_steps:
            law[tuple(run)] = law.get(tuple(run), 0.0) + probability
            return
        global_law = renormalized(global_weights, range(n_apps), owned)
        branches = []
        if visits:
            for category in visits:
                members = [a for a in range(n_apps) if categories[a] == category]
                local = renormalized(cluster_weights, members, owned) or global_law
                branches += [(a, q * p / len(visits)) for a, q in local]
            branches += [(a, q * (1 - p)) for a, q in global_law]
        else:
            branches = global_law
        for app, q in branches:
            seen = visits + [categories[app]] * (categories[app] not in visits)
            walk(owned | {app}, seen, probability * q, run + [app])

    walk(frozenset(), [], 1.0, [])
    return law


class TestDrawSequence:
    """:meth:`DownloadBehavior.draw_sequence`: a heavy account's day,
    drawn one download after the other by exponential races."""

    def test_fetch_at_most_once_then_nothing(self):
        behavior = make_behavior(n_apps=20, n_categories=3)
        history = History(behavior, n_users=2)
        rng = np.random.default_rng(0)
        picks = behavior.draw_sequence(
            1, 25, 0, history.ledger, history.visited, rng
        )
        assert sorted(picks[:20].tolist()) == list(range(20))
        assert picks[20:].tolist() == [-1] * 5
        assert history.ledger.counts.tolist() == [0, 20]
        assert history.ledger.owned(1).all()

    def test_records_visits_in_order(self):
        behavior = make_behavior(n_apps=60, n_categories=6, cluster_probability=0.5)
        history = History(behavior, n_users=1)
        history.own(0, [0], [0])
        picks = behavior.draw_sequence(
            0, 30, 0, history.ledger, history.visited, np.random.default_rng(1)
        ).tolist()
        assert 0 not in picks and len(set(picks)) == 30
        expected = [0]
        for app in picks:
            if app % 6 not in expected:
                expected.append(app % 6)
        assert history.visited.clusters(0).tolist() == expected
        assert np.flatnonzero(history.ledger.owned(0)).tolist() == sorted(
            [0] + picks
        )

    def test_listing_appeal_and_accept(self):
        """Unlisted and zero-appeal apps never come; an app browsing
        declines (zero clustered-accept) only comes from the global law."""
        categories = np.zeros(12, dtype=int)
        multipliers = np.ones(12)
        multipliers[3] = 0.0
        accept = np.ones(12)
        accept[5] = 0.0
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(
                cluster_probability=1.0, global_exponent=0.0, cluster_exponent=0.0
            ),
            appeal_multipliers=multipliers,
            listing_days=np.array([0] * 10 + [5] * 2),
            clustered_accept_probability=accept,
        )
        history = History(behavior, n_users=300)
        rng = np.random.default_rng(2)
        runs = np.stack(
            [
                behavior.draw_sequence(
                    user, 10, 0, history.ledger, history.visited, rng
                )
                for user in range(300)
            ]
        )
        assert not np.isin(runs, [3, 10, 11]).any()
        # The first download is global and may be app 5; then browsing
        # takes the eight apps it accepts, and only once they are gone
        # does the global law hand out app 5, and then nothing.
        assert (runs[:, 0] == 5).any()
        assert 5 not in runs[:, 1:8]
        assert np.array_equal(runs[:, 8] == 5, runs[:, 0] != 5)
        assert (runs[:, 9] == -1).all()
        later = [
            behavior.draw_sequence(user, 2, 5, history.ledger, history.visited, rng)
            for user in range(3)
        ]
        assert all(sorted(run.tolist()) == [10, 11] for run in later)

    @pytest.mark.parametrize("path", ["sequence", "rounds"])
    def test_matches_the_exact_chain_law(self, path):
        """Three downloads of a fresh user, over 30,000 users: the ordered
        runs follow the chain's exact law (total variation < 0.03, about
        twice the sampling noise) down either path."""
        categories = np.array([0, 0, 0, 1, 1, 2])
        multipliers = np.array([1.0, 0.6, 1.0, 1.0, 0.3, 1.0])
        accept = np.array([1.0, 1.0, 0.2, 1.0, 1.0, 1.0])
        params = BehaviorParams(
            cluster_probability=0.7, global_exponent=1.2, cluster_exponent=0.8
        )
        behavior = DownloadBehavior(
            categories,
            params,
            appeal_multipliers=multipliers,
            clustered_accept_probability=accept,
        )
        global_weights = zipf_weights(6, 1.2) * multipliers
        local_rank = np.array([1, 2, 3, 1, 2, 1], dtype=float)
        cluster_weights = local_rank**-0.8 * multipliers * accept
        exact = _chain_law(
            (categories.tolist(), global_weights, cluster_weights, 0.7), 3
        )
        n_users = 30_000
        history = History(behavior, n_users=n_users)
        rng = np.random.default_rng(3)
        if path == "rounds":
            runs = history.rounds(3, rng)
        else:
            runs = np.stack(
                [
                    behavior.draw_sequence(
                        user, 3, 0, history.ledger, history.visited, rng
                    )
                    for user in range(n_users)
                ]
            )
        observed = {}
        for run in map(tuple, runs.tolist()):
            observed[run] = observed.get(run, 0) + 1
        assert set(observed) <= set(exact)
        distance = 0.5 * sum(
            abs(observed.get(run, 0) / n_users - q) for run, q in exact.items()
        )
        assert distance < 0.03
