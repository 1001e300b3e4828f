"""Tests for repro.marketplace.store (the simulated appstore)."""

import numpy as np
import pytest

from repro.marketplace import build_store
from repro.marketplace.profiles import demo_profile


@pytest.fixture(scope="module")
def generated():
    profile = demo_profile(
        initial_apps=200,
        new_apps_per_day=3.0,
        crawl_days=8,
        warmup_days=0,
        daily_downloads=600.0,
        n_users=150,
        n_categories=8,
        comment_probability=0.2,
    )
    return build_store(profile, seed=17, keep_download_log=True)


@pytest.fixture(scope="module")
def advanced_store(generated):
    store = generated.store
    store.advance_days(8)
    return store


class TestStoreBasics:
    def test_app_count(self, generated):
        profile = generated.profile
        assert generated.store.n_apps >= profile.initial_apps

    def test_listed_apps_grow_over_time(self, advanced_store):
        early = len(advanced_store.listed_app_ids(day=0))
        late = len(advanced_store.listed_app_ids(day=7))
        assert late >= early

    def test_day_advances(self, advanced_store):
        assert advanced_store.day == 8

    def test_daily_activity_recorded(self, advanced_store):
        activity = advanced_store.daily_activity()
        assert len(activity) == 8
        assert sum(day.downloads for day in activity) > 0


class TestLedgerConservation:
    def test_download_counts_match_log(self, advanced_store):
        log = advanced_store.download_log()
        counts = advanced_store.download_counts()
        from_log = np.zeros_like(counts)
        for _, app_id, _, _ in log.tolist():
            from_log[app_id] += 1
        assert np.array_equal(counts, from_log)

    def test_log_rows(self, advanced_store):
        log = advanced_store.download_log()
        assert log.dtype == np.int64 and log.shape[1] == 4
        assert set(log[:, 3].tolist()) <= {0, 1}
        assert np.all(np.diff(log[:, 2]) >= 0)  # event order is day order

    def test_total_downloads_consistent(self, advanced_store):
        assert advanced_store.total_downloads() == int(
            advanced_store.download_counts().sum()
        )

    def test_fetch_at_most_once_in_log(self, advanced_store):
        """No user downloads the same app twice, except after updates."""
        seen = set()
        for user_id, app_id, _, is_update in advanced_store.download_log().tolist():
            key = (user_id, app_id)
            if is_update:
                assert key in seen  # updates only go to existing owners
            else:
                assert key not in seen
                seen.add(key)


class TestComments:
    def test_comments_reference_real_downloads(self, advanced_store):
        downloads = {
            (user_id, app_id)
            for user_id, app_id, _, _ in advanced_store.download_log().tolist()
        }
        for user_id, app_id, _, _ in advanced_store.comments().tolist():
            assert (user_id, app_id) in downloads

    def test_comment_counters_match(self, advanced_store):
        comments = advanced_store.comments()
        for app_id in advanced_store.listed_app_ids():
            stats = advanced_store.statistics(app_id)
            expected = int(np.count_nonzero(comments[:, 1] == app_id))
            assert stats.comment_count == expected

    def test_rating_sums_consistent(self, advanced_store):
        comments = advanced_store.comments()
        for app_id in advanced_store.listed_app_ids()[:50]:
            stats = advanced_store.statistics(app_id)
            expected = int(comments[comments[:, 1] == app_id, 3].sum())
            assert stats.rating_sum == expected

    def test_comment_rows(self, advanced_store):
        comments = advanced_store.comments()
        assert comments.dtype == np.int64 and comments.shape[1] == 4
        assert comments.shape[0] > 0
        assert np.all((comments[:, 3] >= 1) & (comments[:, 3] <= 5))
        assert np.all(np.diff(comments[:, 2]) >= 0)  # posting order


def _sparse_store():
    """Few downloads over many apps, so some apps get no comment."""
    profile = demo_profile(
        initial_apps=300, n_users=100, n_categories=6, daily_downloads=200.0,
        warmup_days=0, comment_probability=0.3,
    )
    return build_store(profile, seed=5).store


def _page_by_mask(store, app_id):
    comments = store.comments()
    return comments[comments[:, 1] == app_id]


class TestCommentPages:
    """``comments_for_app`` equals a mask over ``comments()``."""

    def test_every_app_after_several_days(self, advanced_store):
        pages = 0
        for app_id in range(advanced_store.n_apps):
            page = advanced_store.comments_for_app(app_id)
            assert page.dtype == np.int64 and page.shape[1] == 4
            assert np.array_equal(page, _page_by_mask(advanced_store, app_id))
            pages += page.shape[0] > 0
        assert pages > 10

    def test_app_without_comments(self):
        store = _sparse_store()
        store.advance_days(3)
        counts = np.bincount(store.comments()[:, 1], minlength=store.n_apps)
        assert counts.sum() > 0
        quiet = np.flatnonzero(counts == 0)
        assert quiet.size > 0
        for app_id in quiet.tolist():
            assert store.comments_for_app(app_id).shape == (0, 4)

    def test_pages_are_read_only(self, advanced_store):
        app_id = int(advanced_store.comments()[0, 1])
        page = advanced_store.comments_for_app(app_id)
        with pytest.raises(ValueError):
            page[0, 3] = 5

    def test_read_before_and_after_a_day(self):
        store = _sparse_store()
        assert store.comments().shape == (0, 4)
        assert store.comments_for_app(0).shape == (0, 4)
        store.advance_days(2)
        before = {app: store.comments_for_app(app).copy() for app in range(store.n_apps)}
        store.advance_day()
        grown = 0
        for app_id in range(store.n_apps):
            after = store.comments_for_app(app_id)
            assert np.array_equal(after, _page_by_mask(store, app_id))
            # A page only grows: the day's comments come after the old ones.
            assert np.array_equal(after[: before[app_id].shape[0]], before[app_id])
            grown += after.shape[0] > before[app_id].shape[0]
        assert grown > 0


class TestStatistics:
    def test_statistics_snapshot(self, advanced_store):
        app_id = advanced_store.listed_app_ids()[0]
        stats = advanced_store.statistics(app_id)
        assert stats.app_id == app_id
        assert stats.total_downloads >= 0
        assert stats.version_name

    def test_updates_produce_new_versions(self, generated, advanced_store):
        updated = [
            app for app in advanced_store.apps() if app.update_count > 0
        ]
        # With 200+ apps over 8 days and a 20% active fraction, at least
        # one update should have landed.
        assert updated
        for app in updated:
            codes = [v.apk.version_code for v in app.versions]
            assert codes == sorted(codes)


def make_store(generated, activity, comment_probability, rate=1.0):
    from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
    from repro.marketplace.store import AppStore

    return AppStore(
        name="bad",
        taxonomy=generated.taxonomy,
        apps=generated.store.apps(),
        activity=np.asarray(activity, dtype=float),
        comment_probability=np.asarray(comment_probability, dtype=float),
        behavior=DownloadBehavior(
            app_categories=np.zeros(generated.store.n_apps, dtype=int),
            params=BehaviorParams(),
        ),
        rng=np.random.default_rng(0),
        daily_download_rate=rate,
    )


class TestValidation:
    def test_negative_rate_rejected(self, generated):
        with pytest.raises(ValueError, match="daily_download_rate"):
            make_store(generated, [1.0, 2.0], [0.1, 0.1], rate=-1.0)


class TestUserArrays:
    """``AppStore`` checks its user arrays when built and names the first
    bad user, instead of failing at the first day's draws."""

    def test_validation(self, generated):
        with pytest.raises(ValueError, match="user 1: activity"):
            make_store(generated, [1.0, -1.0], [0.1, 0.1])
        with pytest.raises(ValueError, match="user 0: comment_probability"):
            make_store(generated, [1.0, 1.0], [1.5, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activity_rejected(self, generated, bad):
        with pytest.raises(ValueError, match="user 2: activity"):
            make_store(generated, [1.0, 1.0, bad], [0.1, 0.1, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_comment_probability_rejected(self, generated, bad):
        with pytest.raises(ValueError, match="user 1: comment_probability"):
            make_store(generated, [1.0, 1.0], [0.1, bad])

    def test_mismatched_lengths_rejected(self, generated):
        with pytest.raises(ValueError, match="equally long"):
            make_store(generated, [1.0, 1.0, 1.0], [0.1, 0.1])

    def test_empty_or_idle_population_rejected(self, generated):
        with pytest.raises(ValueError, match="no activity"):
            make_store(generated, [], [])
        with pytest.raises(ValueError, match="no activity"):
            make_store(generated, [0.0, 0.0], [0.1, 0.1])

    def test_arrays_are_copied(self, generated):
        """Later writes to the caller's arrays do not reach the store."""
        comments = np.zeros(3)
        store = make_store(generated, np.ones(3), comments, rate=50.0)
        comments[:] = 1.0
        assert sum(day.downloads for day in store.advance_days(2)) > 0
        assert store.comments().shape == (0, 4)


class TestHeavyAccounts:
    def test_busy_account_adds_no_rounds(self, monkeypatch):
        """One account with nine tenths of the activity: a day still runs
        at most ``MAX_ROUNDS`` rounds, and the account, drawn in one
        sequence, takes each app once until it owns the catalog."""
        from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
        from repro.marketplace.catalog import default_taxonomy
        from repro.marketplace.entities import App
        from repro.marketplace.store import MAX_ROUNDS, AppStore

        n_apps, n_users, busy = 200, 60, 7
        taxonomy = default_taxonomy(5, seed=0)
        apps = [
            App(
                app_id=i,
                name=f"app-{i}",
                category=taxonomy.names[i % 5],
                developer_id=0,
                global_rank=i + 1,
                cluster_rank=1,
            )
            for i in range(n_apps)
        ]
        activity = np.ones(n_users)
        activity[busy] = 9.0 * (n_users - 1)
        behavior = DownloadBehavior(np.arange(n_apps) % 5, BehaviorParams())
        store = AppStore(
            "busy", taxonomy, apps, activity, np.zeros(n_users), behavior,
            np.random.default_rng(4), 150.0, keep_download_log=True,
        )
        rounds = []
        draw_round = AppStore._draw_round

        def counted(self, round_users, day):
            rounds.append(day)
            return draw_round(self, round_users, day)

        monkeypatch.setattr(AppStore, "_draw_round", counted)
        store.advance_days(3)
        assert max(rounds.count(day) for day in range(3)) <= MAX_ROUNDS
        log = store.download_log()
        owned = log[log[:, 0] == busy, 1].tolist()
        assert len(owned) == len(set(owned)) == n_apps
