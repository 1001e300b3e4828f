"""Tests for repro.analysis.income (Figures 13-15)."""

import numpy as np
import pytest

from repro.analysis.income import income_report, paid_app_records


class TestPaidAppRecords:
    def test_records_extracted(self, slideme_campaign):
        records = paid_app_records(slideme_campaign.database, "slideme-test")
        assert records
        assert all(record.price > 0 for record in records)

    def test_free_store_rejected(self, demo_campaign):
        with pytest.raises(ValueError):
            paid_app_records(demo_campaign.database, "demo")


class TestIncomeReport:
    @pytest.fixture(scope="class")
    def report(self, slideme_campaign):
        return income_report(slideme_campaign.database, "slideme-test")

    def test_income_distribution_skewed(self, report):
        """Figures 13: most developers earn little, a few earn a lot."""
        incomes = np.array(list(report.incomes.values()))
        median = float(np.median(incomes))
        top = float(incomes.max())
        assert top > 10 * max(median, 1.0)

    def test_some_developers_earn_nothing(self, report):
        """Figure 13: 27% of SlideMe's developers with paid apps earned
        nothing."""
        assert 0.1 < report.fraction_below(0.0) < 0.5

    def test_fraction_below_monotone(self, report):
        assert report.fraction_below(10) <= report.fraction_below(100)
        assert report.fraction_below(100) <= report.fraction_below(10_000)

    def test_quality_over_quantity(self, report):
        """Figure 14: portfolio size does not buy income.

        At the paper's scale the Pearson coefficient is ~0.008; at our
        fixture scale it stays moderate, and -- the operative finding --
        the top-earning developer is a focused account with a small
        portfolio, not a prolific publisher.
        """
        assert abs(report.apps_income_correlation.coefficient) < 0.7
        counts, totals = report.apps_vs_income
        top_earner_apps = counts[totals.argmax()]
        assert top_earner_apps <= 3

    def test_revenue_concentrated_in_few_categories(self, report):
        """Figure 15: the top categories dominate total revenue."""
        rows = report.category_rows
        top4_share = sum(row[1] for row in rows[:4])
        assert top4_share > 60.0

    def test_music_blockbusters_visible(self, report):
        """The planted music blockbusters should put music near the top."""
        top_categories = [row[0] for row in report.category_rows[:3]]
        assert "music" in top_categories

    def test_category_percentages_valid(self, report):
        for category, revenue_pct, apps_pct, developers_pct in report.category_rows:
            assert 0 <= revenue_pct <= 100
            assert 0 <= apps_pct <= 100
            assert 0 <= developers_pct <= 100

    def test_commission_scales_incomes(self, slideme_campaign):
        full = income_report(slideme_campaign.database, "slideme-test")
        cut = income_report(
            slideme_campaign.database, "slideme-test", commission=0.05
        )
        for developer_id, income in full.incomes.items():
            assert cut.incomes[developer_id] == pytest.approx(income * 0.95)

    def test_average_paid_revenue_positive(self, report):
        assert report.average_paid_revenue > 0

    def test_describe(self, report):
        text = report.describe()
        assert "developers" in text and "Pearson" in text
