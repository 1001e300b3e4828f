"""Tests for repro.analysis.spam (spam-account detection)."""

import pytest

from repro.analysis.spam import (
    detect_spam_users,
    volume_outlier_threshold,
)
from repro.crawler.database import SnapshotDatabase
from repro.marketplace.entities import Comment
from tests.rows import add_comments


def build_database(streams):
    """streams: {user_id: [(app_id, day), ...]}"""
    database = SnapshotDatabase()
    comments = []
    for user_id, entries in streams.items():
        for index, (app_id, day) in enumerate(entries):
            rating = (index % 5) + 1
            comments.append(
                Comment(user_id=user_id, app_id=app_id, day=day, rating=rating)
            )
    add_comments(database, "s", comments)
    return database


class TestVolumeThreshold:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            volume_outlier_threshold([])

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            volume_outlier_threshold([1, 2], iqr_multiplier=0)

    def test_fence_above_normal_users(self):
        counts = [1, 2, 2, 3, 3, 3, 5, 8, 12, 30]
        assert volume_outlier_threshold(counts) > 30

    def test_fence_below_extreme_spam(self):
        counts = [2] * 100 + [5] * 50 + [30] * 5
        assert volume_outlier_threshold(counts) < 5000


class TestDetectSpamUsers:
    def test_flags_high_volume_account(self):
        streams = {
            user_id: [(user_id % 7, day) for day in range(3)]
            for user_id in range(40)
        }
        # One scripted account posting thousands of comments.
        streams[999] = [(app, app % 10) for app in range(3000)]
        report = detect_spam_users(build_database(streams), "s")
        assert report.is_spam(999)
        assert report.n_spam_users < 5

    def test_flags_high_cadence_account(self):
        streams = {
            user_id: [(user_id % 7, day) for day in range(4)]
            for user_id in range(40)
        }
        # Moderate volume but inhuman cadence: 40 comments/day for 2 days.
        streams[500] = [(app % 20, app // 40) for app in range(80)]
        report = detect_spam_users(
            build_database(streams), "s", max_daily_rate=12.0
        )
        assert report.is_spam(500)

    def test_single_burst_day_not_flagged_by_cadence(self):
        streams = {
            user_id: [(user_id % 7, day) for day in range(4)]
            for user_id in range(40)
        }
        # One enthusiastic day does not make a spammer.
        streams[500] = [(app, 0) for app in range(15)]
        report = detect_spam_users(
            build_database(streams), "s", min_active_days=2
        )
        assert not report.is_spam(500)

    def test_normal_population_mostly_clean(self):
        streams = {
            user_id: [(user_id % 9, day) for day in range(1 + user_id % 5)]
            for user_id in range(100)
        }
        report = detect_spam_users(build_database(streams), "s")
        assert report.spam_fraction < 0.05

    def test_validation(self):
        database = build_database({1: [(0, 0), (1, 1)]})
        with pytest.raises(ValueError):
            detect_spam_users(database, "s", max_daily_rate=0)
        with pytest.raises(ValueError):
            detect_spam_users(database, "s", min_active_days=0)
        with pytest.raises(ValueError):
            detect_spam_users(SnapshotDatabase(), "s")

    def test_describe(self):
        database = build_database({1: [(0, 0), (1, 1)], 2: [(0, 0)]})
        report = detect_spam_users(database, "s")
        assert "flagged" in report.describe()


class TestIntegrationWithCampaign:
    def test_detects_planted_spam_accounts(self, demo_campaign):
        """The demo profile plants spam accounts; the detector finds some."""
        report = detect_spam_users(demo_campaign.database, "demo")
        assert report.n_users > 0
        # The planted accounts (user ids 0..spam_users-1) are hyperactive;
        # at least one should be flagged without flagging the population.
        assert report.spam_fraction < 0.1

    def test_affinity_study_accepts_exclusions(self, demo_campaign):
        from repro.analysis.affinity_study import affinity_study

        report = detect_spam_users(demo_campaign.database, "demo")
        study = affinity_study(
            demo_campaign.database,
            "demo",
            min_group_size=5,
            exclude_users=report.spam_user_ids,
        )
        assert study.n_users_analyzed <= report.n_users
