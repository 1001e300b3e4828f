"""The columnar comment analyses against the per-object grouping they replaced.

The analyses once read comments as one object per comment, grouped into
per-user streams: each user's comments in log order, sorted by day with
a stable sort, users in the order of their first comment.  The
``reference_*`` functions below keep that grouping, as it was, so the
columnar ``user_category_strings``, ``comment_behavior_report`` and
``detect_spam_users`` can be held to it on a hand-built log and on the
demo campaign at two seeds: the same values, the same user order (the
order of the floating-point sums), the same report.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis.comments import (
    CommentBehaviorReport,
    _top_k_share,
    category_of_apps,
    comment_behavior_report,
    user_category_strings,
)
from repro.analysis.popularity import downloads_by_category
from repro.analysis.spam import SpamReport, detect_spam_users, volume_outlier_threshold
from repro.core.affinity import collapse_repeats
from repro.crawler.database import AppSnapshot, SnapshotDatabase
from repro.crawler.scheduler import run_crawl_campaign
from repro.stats.distributions import Ecdf
from repro.store.schema import COMMENT_COLUMNS
from tests.rows import add_comments, add_snapshots


@dataclass(frozen=True)
class Comment:
    user_id: int
    app_id: int
    day: int
    rating: int


def reference_streams(database, store) -> Dict[int, List[Comment]]:
    """Per-user comment streams in chronological order."""
    log = database.columnar.comment_log(store)
    streams: Dict[int, List[Comment]] = {}
    if log is None:
        return streams
    columns = log.arrays()
    for row in zip(*(columns[name].tolist() for name in COMMENT_COLUMNS)):
        comment = Comment(*row)
        streams.setdefault(comment.user_id, []).append(comment)
    for stream in streams.values():
        stream.sort(key=lambda c: c.day)
    return streams


def reference_user_category_strings(database, store, day=None):
    categories = category_of_apps(database, store, day)
    strings = {}
    for user_id, comments in reference_streams(database, store).items():
        app_string = collapse_repeats([c.app_id for c in comments])
        category_string = [
            categories[app_id] for app_id in app_string if app_id in categories
        ]
        if category_string:
            strings[user_id] = category_string
    return strings


def reference_comment_behavior_report(
    database, store, day=None, top_k_values=(1, 2, 3, 5, 10)
):
    """The report's fields, as a dict."""
    streams = reference_streams(database, store)
    comment_counts = np.array(
        [len(comments) for comments in streams.values()], dtype=np.float64
    )
    strings = reference_user_category_strings(database, store, day)
    unique_counts = np.array(
        [len(set(string)) for string in strings.values()], dtype=np.float64
    )
    multi = [string for string in strings.values() if len(string) > 1]
    top_k_share = {}
    for k in top_k_values:
        if multi:
            top_k_share[k] = float(
                np.mean([_top_k_share(string, k) for string in multi])
            )
        else:
            top_k_share[k] = float("nan")
    totals = downloads_by_category(database, store, day)
    grand_total = sum(totals.values())
    shares = sorted(
        (
            (category, downloads / grand_total if grand_total else 0.0)
            for category, downloads in totals.items()
        ),
        key=lambda pair: pair[1],
        reverse=True,
    )
    return dict(
        store=store,
        n_users=len(streams),
        n_comments=int(comment_counts.sum()),
        comments_per_user=Ecdf.from_samples(comment_counts),
        unique_categories_per_user=Ecdf.from_samples(unique_counts),
        top_k_comment_share=top_k_share,
        downloads_share_by_category=shares,
    )


def reference_detect_spam_users(
    database, store, iqr_multiplier=8.0, max_daily_rate=12.0, min_active_days=2
):
    streams = reference_streams(database, store)
    counts = {user_id: len(comments) for user_id, comments in streams.items()}
    threshold = volume_outlier_threshold(
        list(counts.values()), iqr_multiplier=iqr_multiplier
    )
    flagged = set()
    for user_id, comments in streams.items():
        if counts[user_id] > threshold:
            flagged.add(user_id)
            continue
        active_days = {comment.day for comment in comments}
        if len(active_days) >= min_active_days:
            rate = counts[user_id] / len(active_days)
            if rate > max_daily_rate:
                flagged.add(user_id)
    return SpamReport(
        store=store,
        n_users=len(streams),
        spam_user_ids=frozenset(flagged),
        volume_threshold=threshold,
        cadence_threshold=max_daily_rate,
    )


def assert_same_analyses(database, store, **spam_options):
    strings = user_category_strings(database, store)
    reference = reference_user_category_strings(database, store)
    assert strings == reference
    assert list(strings) == list(reference)  # users in first-comment order

    report = comment_behavior_report(database, store)
    expected = reference_comment_behavior_report(database, store)
    for field, value in expected.items():
        actual = getattr(report, field)
        if isinstance(value, Ecdf):
            assert np.array_equal(actual.sorted_values, value.sorted_values), field
        elif field == "top_k_comment_share":  # bit for bit; nan where empty
            assert actual.keys() == value.keys()
            for k in value:
                assert np.array_equal(actual[k], value[k], equal_nan=True), k
        else:
            assert actual == value, field
    assert report.describe() == CommentBehaviorReport(**expected).describe()

    spam = detect_spam_users(database, store, **spam_options)
    assert spam == reference_detect_spam_users(database, store, **spam_options)
    return strings, spam


#: The hand-built log's apps and their categories; app 9 is never snapshotted.
CATEGORIES = {1: "games", 2: "tools", 3: "games", 4: "music", 5: "tools", 6: "news"}


def hand_built_database():
    database = SnapshotDatabase()
    add_snapshots(
        database,
        [
            AppSnapshot(
                store="s", day=day, app_id=app_id, name=f"app-{app_id}",
                category=category, developer_id=1, price=0.0, declares_ads=False,
                total_downloads=10 * app_id + day, rating_count=0,
                average_rating=0.0, comment_count=0, version_name="1.0",
            )
            for day in (0, 6)
            for app_id, category in CATEGORIES.items()
        ],
    )
    add_comments(
        database,
        "s",
        [
            # User 7 comments before user 3, and twice on day 4: app 2,
            # then app 1, in that posting order.
            (7, 2, 4, 5), (3, 1, 1, 4), (7, 1, 4, 3),
            # User 3 repeats app 5 across days 2 and 3; a later log row
            # carries an earlier day.
            (3, 5, 3, 2), (3, 5, 2, 1), (3, 4, 0, 5),
            # User 5: A X A with X (app 9) never snapshotted.
            (5, 1, 1, 5), (5, 9, 2, 4), (5, 1, 3, 3),
            # User 2 comments only on apps the crawl never saw.
            (2, 9, 1, 1), (2, 9, 2, 2),
            # User 8 moves between two categories; user 4 posts in
            # bursts of 20 a day, which flags it as spam.
            (8, 3, 1, 2), (8, 1, 2, 2), (8, 6, 5, 1),
        ]
        + [(4, 1 + n % 6, 1 + n // 20, 1 + n // 6 % 5) for n in range(40)],
    )
    return database


class TestHandBuiltLog:
    def test_matches_the_per_object_grouping(self):
        strings, spam = assert_same_analyses(hand_built_database(), "s")
        assert list(strings) == [7, 3, 5, 8, 4]
        assert spam.spam_user_ids == {4}

    def test_stream_sorted_by_day_in_posting_order(self):
        strings = user_category_strings(hand_built_database(), "s")
        assert strings[7] == ["tools", "games"]  # app 2, then app 1 on day 4
        assert strings[3] == ["music", "games", "tools"]  # days 0, 1, 2=3

    def test_repeats_collapse_before_unknown_apps_drop(self):
        strings = user_category_strings(hand_built_database(), "s")
        assert strings[5] == ["games", "games"]
        assert 2 not in strings

    def test_report_counts_every_commenter(self):
        report = comment_behavior_report(hand_built_database(), "s")
        assert report.n_users == 6  # user 2 counts, though unmapped
        assert report.n_comments == 54

    def test_no_comments(self):
        empty = SnapshotDatabase()
        add_snapshots(empty, [AppSnapshot(
            store="s", day=0, app_id=1, name="a", category="games",
            developer_id=1, price=0.0, declares_ads=False, total_downloads=1,
            rating_count=0, average_rating=0.0, comment_count=0,
            version_name="1.0",
        )])
        assert user_category_strings(empty, "s") == {}
        with pytest.raises(ValueError, match="has no comments"):
            comment_behavior_report(empty, "s")
        with pytest.raises(ValueError, match="has no comments"):
            detect_spam_users(empty, "s")


@pytest.fixture(scope="module")
def second_demo_campaign(demo_campaign):
    return run_crawl_campaign(demo_campaign.generated.profile, seed=7)


class TestDemoCampaign:
    def test_first_seed(self, demo_campaign):
        strings, spam = assert_same_analyses(demo_campaign.database, "demo")
        assert len(strings) > 100 and spam.n_spam_users > 0

    def test_second_seed(self, second_demo_campaign):
        strings, spam = assert_same_analyses(second_demo_campaign.database, "demo")
        assert len(strings) > 100 and spam.n_spam_users > 0

    def test_strict_spam_options(self, demo_campaign):
        assert_same_analyses(
            demo_campaign.database, "demo",
            iqr_multiplier=1.0, max_daily_rate=2.0, min_active_days=1,
        )
