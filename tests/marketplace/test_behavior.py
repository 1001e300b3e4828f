"""Tests for repro.marketplace.behavior (the download behaviour engine)."""

import numpy as np
import pytest

from repro.marketplace.behavior import (
    BehaviorParams,
    DownloadBehavior,
    UserState,
)


def make_behavior(n_apps=60, n_categories=6, **param_overrides):
    params = BehaviorParams(**param_overrides) if param_overrides else BehaviorParams()
    categories = np.arange(n_apps) % n_categories
    return DownloadBehavior(app_categories=categories, params=params)


class TestBehaviorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorParams(cluster_probability=1.5)
        with pytest.raises(ValueError):
            BehaviorParams(global_exponent=-1.0)


class TestUserState:
    def test_record_tracks_downloads_and_categories(self):
        state = UserState()
        state.record(3, 1)
        state.record(7, 1)
        state.record(9, 2)
        assert state.downloaded == {3, 7, 9}
        assert state.visited_categories == [1, 2]


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
        behavior = make_behavior(n_apps=20)
        state = UserState()
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(20):
            app = behavior.next_download(state, day=0, rng=rng)
            if app is None:
                break
            assert app not in seen
            seen.add(app)
            state.record(app, behavior.category_of(app))

    def test_saturated_user_gets_none(self):
        behavior = make_behavior(n_apps=5)
        state = UserState()
        rng = np.random.default_rng(1)
        for _ in range(5):
            app = behavior.next_download(state, day=0, rng=rng)
            state.record(app, behavior.category_of(app))
        assert behavior.next_download(state, day=0, rng=rng) is None

    def test_unlisted_apps_not_downloaded(self):
        categories = np.zeros(10, dtype=int)
        listing_days = np.array([0] * 5 + [100] * 5)
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(),
            listing_days=listing_days,
        )
        state = UserState()
        rng = np.random.default_rng(2)
        for _ in range(5):
            app = behavior.next_download(state, day=0, rng=rng)
            assert app is None or app < 5
            if app is not None:
                state.record(app, 0)

    def test_unlisted_apps_become_available_later(self):
        categories = np.zeros(6, dtype=int)
        listing_days = np.array([0, 0, 0, 10, 10, 10])
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(),
            listing_days=listing_days,
        )
        state = UserState()
        state.downloaded = {0, 1, 2}
        state.visited_categories = [0]
        rng = np.random.default_rng(3)
        app = behavior.next_download(state, day=10, rng=rng)
        assert app in {3, 4, 5}

    def test_high_p_keeps_users_in_category(self):
        """With p=1, every download after the first stays in one category."""
        behavior = make_behavior(
            n_apps=120,
            n_categories=6,
            cluster_probability=1.0,
            global_exponent=1.0,
            cluster_exponent=1.0,
        )
        rng = np.random.default_rng(4)
        state = UserState()
        first = behavior.next_download(state, day=0, rng=rng)
        state.record(first, behavior.category_of(first))
        category = behavior.category_of(first)
        for _ in range(10):
            app = behavior.next_download(state, day=0, rng=rng)
            assert behavior.category_of(app) == category
            state.record(app, category)

    def test_zero_appeal_never_downloaded(self):
        categories = np.zeros(10, dtype=int)
        multipliers = np.ones(10)
        multipliers[7] = 0.0
        behavior = DownloadBehavior(
            app_categories=categories,
            params=BehaviorParams(cluster_probability=0.5),
            appeal_multipliers=multipliers,
        )
        rng = np.random.default_rng(5)
        state = UserState()
        downloaded = []
        for _ in range(9):
            app = behavior.next_download(state, day=0, rng=rng)
            if app is None:
                break
            downloaded.append(app)
            state.record(app, 0)
        assert 7 not in downloaded

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
        rng = np.random.default_rng(8)
        pickups = 0
        for _ in range(60):
            state = UserState()
            first = behavior.next_download(state, day=0, rng=rng)
            state.record(first, 0)
            if first == 5:
                continue  # arrived via the (global) first draw: allowed
            for _ in range(5):
                app = behavior.next_download(state, day=0, rng=rng)
                if app is None:
                    break
                if app == 5:
                    pickups += 1
                state.record(app, 0)
        assert pickups == 0

    def test_p_zero_ignores_history(self):
        """With p=0, affinity is only whatever the global law induces."""
        behavior = make_behavior(
            n_apps=600,
            n_categories=6,
            cluster_probability=0.0,
            global_exponent=0.0,  # uniform, to isolate the clustering term
        )
        rng = np.random.default_rng(6)
        transitions_same = 0
        total = 0
        for _ in range(200):
            state = UserState()
            previous_category = None
            for _ in range(5):
                app = behavior.next_download(state, day=0, rng=rng)
                category = behavior.category_of(app)
                state.record(app, category)
                if previous_category is not None:
                    transitions_same += int(category == previous_category)
                    total += 1
                previous_category = category
        # Uniform over 6 equal categories: same-category rate ~1/6.
        assert transitions_same / total == pytest.approx(1 / 6, abs=0.05)

