"""Tests for repro.analysis.comments (Figure 5)."""

import pytest

from repro.analysis.comments import (
    category_of_apps,
    comment_behavior_report,
    user_category_strings,
)


class TestCategoryStrings:
    def test_category_map_built(self, demo_campaign):
        categories = category_of_apps(demo_campaign.database, "demo")
        assert categories
        assert all(isinstance(c, str) for c in categories.values())

    def test_strings_nonempty(self, demo_campaign):
        strings = user_category_strings(demo_campaign.database, "demo")
        assert strings
        for string in strings.values():
            assert len(string) >= 1

    def test_strings_use_known_categories(self, demo_campaign):
        categories = set(
            category_of_apps(demo_campaign.database, "demo").values()
        )
        strings = user_category_strings(demo_campaign.database, "demo")
        for string in strings.values():
            assert set(string) <= categories


class TestCommentBehaviorReport:
    @pytest.fixture(scope="class")
    def report(self, demo_campaign):
        return comment_behavior_report(demo_campaign.database, "demo")

    def test_counts(self, report, demo_campaign):
        assert report.n_comments == demo_campaign.database.n_comments("demo")
        assert report.n_users > 0

    def test_most_users_comment_little(self, report):
        """Figure 5(a): the bulk of users makes few comments."""
        assert report.comments_per_user(10) > 0.5

    def test_users_focus_on_few_categories(self, report):
        """Figure 5(b): most users comment in at most five categories."""
        assert report.unique_categories_per_user(5) > 0.7

    def test_top_k_share_increasing(self, report):
        shares = [report.top_k_comment_share[k] for k in (1, 2, 3, 5)]
        assert all(b >= a for a, b in zip(shares, shares[1:]))
        assert shares[-1] <= 1.0 + 1e-9

    def test_top_one_category_dominates(self, report):
        """Figure 5(c): an average user's main category holds most comments."""
        assert report.top_k_comment_share[1] > 0.4

    def test_category_shares_sum_to_one(self, report):
        total = sum(share for _, share in report.downloads_share_by_category)
        assert total == pytest.approx(1.0)

    def test_describe(self, report):
        text = report.describe()
        assert "single" in text

    def test_empty_store_rejected(self, demo_campaign):
        from repro.crawler.database import SnapshotDatabase

        with pytest.raises((ValueError, KeyError)):
            comment_behavior_report(SnapshotDatabase(), "demo")
