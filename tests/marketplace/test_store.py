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
        for record in log:
            from_log[record.app_id] += 1
        assert np.array_equal(counts, from_log)

    def test_total_downloads_consistent(self, advanced_store):
        assert advanced_store.total_downloads() == int(
            advanced_store.download_counts().sum()
        )

    def test_fetch_at_most_once_in_log(self, advanced_store):
        """No user downloads the same app twice, except after updates."""
        seen = set()
        for record in advanced_store.download_log():
            key = (record.user_id, record.app_id)
            if record.is_update:
                assert key in seen  # updates only go to existing owners
            else:
                assert key not in seen
                seen.add(key)


class TestComments:
    def test_comments_reference_real_downloads(self, advanced_store):
        downloads = {
            (record.user_id, record.app_id)
            for record in advanced_store.download_log()
        }
        for comment in advanced_store.comments():
            assert (comment.user_id, comment.app_id) in downloads

    def test_comment_counters_match(self, advanced_store):
        comments = advanced_store.comments()
        for app_id in advanced_store.listed_app_ids():
            stats = advanced_store.statistics(app_id)
            expected = sum(1 for c in comments if c.app_id == app_id)
            assert stats.comment_count == expected

    def test_rating_sums_consistent(self, advanced_store):
        comments = advanced_store.comments()
        for app_id in advanced_store.listed_app_ids()[:50]:
            stats = advanced_store.statistics(app_id)
            expected = sum(c.rating for c in comments if c.app_id == app_id)
            assert stats.rating_sum == expected


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


class TestValidation:
    def test_negative_rate_rejected(self, generated):
        from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
        from repro.marketplace.store import AppStore

        with pytest.raises(ValueError):
            AppStore(
                name="bad",
                taxonomy=generated.taxonomy,
                apps=generated.store.apps(),
                users=[],
                behavior=DownloadBehavior(
                    app_categories=np.zeros(generated.store.n_apps, dtype=int),
                    params=BehaviorParams(),
                ),
                rng=np.random.default_rng(0),
                daily_download_rate=1.0,
            )


class TestHeavyAccounts:
    def test_busy_account_adds_no_rounds(self, monkeypatch):
        """One account with nine tenths of the activity: a day still runs
        at most ``MAX_ROUNDS`` rounds, and the account, drawn in one
        sequence, takes each app once until it owns the catalog."""
        from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
        from repro.marketplace.catalog import default_taxonomy
        from repro.marketplace.entities import App, User
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
        users = [User(u, float(activity[u]), 0.0) for u in range(n_users)]
        behavior = DownloadBehavior(np.arange(n_apps) % 5, BehaviorParams())
        store = AppStore(
            "busy", taxonomy, apps, users, behavior, np.random.default_rng(4),
            150.0, keep_download_log=True,
        )
        rounds = []
        draw_round = AppStore._draw_round

        def counted(self, round_users, day):
            rounds.append(day)
            return draw_round(self, round_users, day)

        monkeypatch.setattr(AppStore, "_draw_round", counted)
        store.advance_days(3)
        assert max(rounds.count(day) for day in range(3)) <= MAX_ROUNDS
        owned = [r.app_id for r in store.download_log() if r.user_id == busy]
        assert len(owned) == len(set(owned)) == n_apps
