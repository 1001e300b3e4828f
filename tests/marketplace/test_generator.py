"""Tests for repro.marketplace.generator."""

import numpy as np
import pytest

from repro.marketplace import build_store
from repro.marketplace.ads import contains_ad_network
from repro.marketplace.profiles import demo_profile


@pytest.fixture(scope="module")
def paid_store():
    profile = demo_profile(
        name="paidtest",
        initial_apps=600,
        new_apps_per_day=2.0,
        crawl_days=10,
        warmup_days=0,
        daily_downloads=100.0,
        n_users=100,
        n_categories=14,
        paid_fraction=0.25,
    )
    return build_store(profile, seed=5)


class TestCatalogGeneration:
    def test_app_count_includes_late_arrivals(self, paid_store):
        profile = paid_store.profile
        expected = profile.initial_apps + round(
            profile.new_apps_per_day * profile.crawl_days
        )
        assert paid_store.store.n_apps == expected

    def test_every_app_has_initial_version(self, paid_store):
        for app in paid_store.store.apps():
            assert app.versions
            assert app.versions[0].version_name == "1.0"

    def test_listing_days_in_range(self, paid_store):
        profile = paid_store.profile
        for app in paid_store.store.apps():
            assert 0 <= app.listing_day <= profile.warmup_days + profile.crawl_days

    def test_initial_apps_listed_at_day_zero(self, paid_store):
        listed = paid_store.store.listed_app_ids(day=0)
        assert len(listed) >= paid_store.profile.initial_apps * 0.95

    def test_cluster_ranks_consistent(self, paid_store):
        """Within a category, cluster ranks are 1..size without gaps."""
        by_category = {}
        for app in paid_store.store.apps():
            by_category.setdefault(app.category, []).append(app.cluster_rank)
        for ranks in by_category.values():
            assert sorted(ranks) == list(range(1, len(ranks) + 1))

    def test_global_ranks_are_permutation(self, paid_store):
        ranks = sorted(app.global_rank for app in paid_store.store.apps())
        assert ranks == list(range(1, paid_store.store.n_apps + 1))


class TestPaidApps:
    def test_paid_fraction_close(self, paid_store):
        apps = paid_store.store.apps()
        paid = sum(1 for app in apps if app.is_paid)
        assert abs(paid / len(apps) - 0.25) < 0.05

    def test_paid_apps_have_positive_prices(self, paid_store):
        for app in paid_store.store.apps():
            if app.is_paid:
                assert app.price > 0

    def test_blockbusters_planted_at_head(self, paid_store):
        """The top of the appeal ranking contains planted paid music apps."""
        head = [a for a in paid_store.store.apps() if a.global_rank <= 12]
        paid_music = [a for a in head if a.is_paid and a.category == "music"]
        assert len(paid_music) >= 2

    def test_free_store_has_no_paid(self):
        generated = build_store(
            demo_profile(initial_apps=100, paid_fraction=0.0, n_categories=5),
            seed=1,
        )
        assert all(app.is_free for app in generated.store.apps())


class TestUnsoldPaidApps:
    """A share of the paid apps never sells (Figure 13's zero incomes)."""

    @pytest.fixture(scope="class")
    def run(self):
        # Two spam accounts draw hundreds of downloads a day, so by the
        # end they own every app that any law offers: the apps nobody
        # bought are exactly the unsold ones.
        profile = demo_profile(
            name="unsold",
            initial_apps=600,
            new_apps_per_day=0.0,
            crawl_days=4,
            warmup_days=0,
            daily_downloads=3000.0,
            n_users=40,
            n_categories=10,
            paid_fraction=0.4,
            spam_users=2,
        )
        generated = build_store(profile, seed=3)
        generated.store.advance_days(4)
        apps = generated.store.apps()
        paid = np.array([app.is_paid for app in apps])
        blockbuster = paid & np.isin([app.global_rank for app in apps], [1, 4, 7, 10])
        return generated.store.download_counts(), paid, blockbuster

    def test_free_apps_and_blockbusters_all_sell(self, run):
        downloads, paid, blockbuster = run
        assert blockbuster.sum() == 4
        assert (downloads[~paid] > 0).all()
        assert (downloads[blockbuster] > 0).all()

    def test_share_of_other_paid_apps_never_sells(self, run):
        downloads, paid, blockbuster = run
        others = paid & ~blockbuster
        share = float(np.mean(downloads[others] == 0))
        # 0.35 within 4.5 binomial standard deviations.
        bound = 4.5 * np.sqrt(0.35 * 0.65 / others.sum())
        assert abs(share - 0.35) < bound


class TestDevelopers:
    def test_every_app_has_developer(self, paid_store):
        developer_ids = {d.developer_id for d in paid_store.developers}
        for app in paid_store.store.apps():
            assert app.developer_id in developer_ids

    def test_most_developers_small(self, paid_store):
        """Figure 16(a): ~95% of developers offer fewer than 10 apps."""
        portfolio = {}
        for app in paid_store.store.apps():
            portfolio[app.developer_id] = portfolio.get(app.developer_id, 0) + 1
        sizes = np.array(list(portfolio.values()))
        assert np.mean(sizes < 10) > 0.85

    def test_developers_focus_on_few_categories(self, paid_store):
        """Figure 16(b): developers work in a handful of categories."""
        categories = {}
        for app in paid_store.store.apps():
            categories.setdefault(app.developer_id, set()).add(app.category)
        focus = np.array([len(cats) for cats in categories.values()])
        assert np.mean(focus <= 5) > 0.9


class TestApks:
    def test_ad_inclusion_rate_for_free_apps(self, paid_store):
        free_apps = [a for a in paid_store.store.apps() if a.is_free]
        with_ads = sum(
            1
            for app in free_apps
            if contains_ad_network(app.versions[0].apk.embedded_libraries)
        )
        assert 0.55 < with_ads / len(free_apps) < 0.8

    def test_package_names_unique(self, paid_store):
        names = [a.versions[0].apk.package_name for a in paid_store.store.apps()]
        assert len(set(names)) == len(names)

    def test_declares_ads_mostly_matches_scan(self, paid_store):
        apps = paid_store.store.apps()
        matches = sum(
            1
            for app in apps
            if app.declares_ads
            == contains_ad_network(app.versions[0].apk.embedded_libraries)
        )
        assert matches / len(apps) > 0.9


class TestDeterminism:
    def test_same_seed_same_store(self):
        profile = demo_profile(initial_apps=80, n_categories=5)
        a = build_store(profile, seed=9)
        b = build_store(profile, seed=9)
        prices_a = [app.price for app in a.store.apps()]
        prices_b = [app.price for app in b.store.apps()]
        assert prices_a == prices_b
        categories_a = [app.category for app in a.store.apps()]
        categories_b = [app.category for app in b.store.apps()]
        assert categories_a == categories_b
