"""Synthetic ecosystem generation: profile -> ready-to-run store.

The generator creates the app catalog (with latent appeal ranks, category
assignments, prices, developers, and APK packages), the user population,
the behaviour engine, and per-app update rates, then wires everything into
an :class:`repro.marketplace.store.AppStore`.

Design notes (mapping to the paper's observations):

- **Appeal ranks.**  Each app is assigned a latent global appeal rank; the
  behaviour engine's global Zipf law ``ZG`` draws over these ranks, which
  produces the Zipf trunk of Figure 3.
- **Developers.**  The number of apps per developer follows a discrete
  power law (60-70% of developers make a single app; a couple of prolific
  accounts make hundreds -- Figure 16a), and every developer works in a
  small set of categories (Figure 16b).
- **Paid apps (SlideMe only).**  Prices come from the pricing model and
  depress appeal through the demand factor, producing Figure 12's negative
  price-downloads correlation.  A handful of "blockbuster" paid apps are
  planted in the music category so that category revenue concentrates the
  way Figure 15 reports.
- **Updates.**  Only a minority of apps is actively maintained, so >80%
  of apps see zero updates in a two-month window (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.marketplace.ads import AdEcosystem, contains_ad_network
from repro.marketplace.behavior import DownloadBehavior
from repro.marketplace.catalog import CategoryTaxonomy, default_taxonomy
from repro.marketplace.entities import ApkPackage, App, AppVersion, Developer, User
from repro.marketplace.pricing import PricingModel
from repro.marketplace.profiles import StoreProfile
from repro.marketplace.segments import SegmentedPopulation
from repro.marketplace.store import AppStore
from repro.stats.rng import SeedLike, make_rng
from repro.stats.zipf import zipf_weights

# Paid-app category weights for SlideMe-like stores, shaped after the
# apps-per-category pattern of Figure 15: e-books and games hold most paid
# apps, music very few.
_PAID_CATEGORY_WEIGHT_OVERRIDES: Dict[str, float] = {
    "e-books": 10.0,
    "fun/games": 6.0,
    "utilities": 3.0,
    "music": 0.5,
    "productivity": 2.0,
}

# Blockbuster paid apps planted at the very top of the paid appeal ranking,
# (category, price): a couple of expensive music hits dominate revenue the
# way Figure 15's music category does.
_PAID_BLOCKBUSTERS: Tuple[Tuple[str, float], ...] = (
    ("music", 9.99),
    ("music", 7.99),
    ("fun/games", 4.99),
    ("music", 12.99),
)


@dataclass
class GeneratedStore:
    """A store plus the generation artifacts analyses may need."""

    store: AppStore
    developers: List[Developer]
    taxonomy: CategoryTaxonomy
    profile: StoreProfile


def _sample_apps_per_developer(
    n_apps: int, rng: np.random.Generator, alpha: float = 2.2
) -> List[int]:
    """Partition ``n_apps`` among developers with a power-law size law.

    Draws developer portfolio sizes from a discrete Zipf-like law capped at
    ``n_apps`` until all apps are assigned.  With ``alpha`` around 2.2 the
    result matches Figure 16(a): most developers make one app, ~95% make
    fewer than 10, and rare accounts make hundreds.
    """
    sizes: List[int] = []
    remaining = n_apps
    max_size = max(1, n_apps // 2)
    weights = zipf_weights(max_size, alpha)
    probabilities = weights / weights.sum()
    while remaining > 0:
        size = int(rng.choice(max_size, p=probabilities)) + 1
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def _assign_developer_categories(
    n_categories: int, portfolio_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick the small category set a developer works in (Figure 16b)."""
    # 75-85% of developers focus on one category; nearly all on <= 5.
    n_focus = 1 + int(rng.binomial(4, 0.08))
    n_focus = min(n_focus, n_categories)
    return rng.choice(n_categories, size=n_focus, replace=False)


def _make_apk(
    package_name: str,
    ads: AdEcosystem,
    is_free: bool,
    rng: np.random.Generator,
) -> ApkPackage:
    size_mb = float(np.clip(rng.lognormal(mean=np.log(3.5), sigma=0.8), 0.1, 500.0))
    libraries = ads.sample_libraries(is_free=is_free, seed=rng)
    return ApkPackage(
        package_name=package_name,
        version_code=1,
        size_mb=size_mb,
        embedded_libraries=libraries,
    )


def build_store(
    profile: StoreProfile,
    seed: SeedLike = None,
    taxonomy: Optional[CategoryTaxonomy] = None,
    pricing: Optional[PricingModel] = None,
    ads: Optional[AdEcosystem] = None,
    keep_download_log: bool = False,
) -> GeneratedStore:
    """Build a ready-to-run :class:`AppStore` from a profile.

    The store starts at day 0 with no download history; call
    ``store.advance_days(profile.warmup_days)`` to accumulate the
    pre-crawl history before pointing the crawler at it (or use
    :func:`repro.crawler.scheduler.run_crawl_campaign`, which does both).
    """
    rng = make_rng(seed)
    if taxonomy is None:
        taxonomy = default_taxonomy(profile.n_categories, seed=rng)
    pricing = pricing or PricingModel()
    ads = ads or AdEcosystem()

    total_apps = profile.initial_apps + int(
        round(profile.new_apps_per_day * profile.crawl_days)
    )
    total_apps = max(total_apps, profile.initial_apps)

    # --- category assignment -------------------------------------------
    category_counts = taxonomy.app_counts(total_apps)
    category_of_app = np.repeat(
        np.arange(taxonomy.n_categories), category_counts
    )
    rng.shuffle(category_of_app)

    # --- paid/free split -----------------------------------------------
    is_paid = np.zeros(total_apps, dtype=bool)
    if profile.paid_fraction > 0:
        n_paid = int(round(profile.paid_fraction * total_apps))
        n_paid = min(max(n_paid, 0), total_apps)
        # Paid apps concentrate in specific categories (Figure 15): weight
        # the candidate pool per category before sampling.
        weights = np.ones(total_apps, dtype=np.float64)
        for name, weight in _PAID_CATEGORY_WEIGHT_OVERRIDES.items():
            try:
                index = taxonomy.index_of(name)
            except KeyError:
                continue
            weights[category_of_app == index] = weight
        weights /= weights.sum()
        paid_indices = rng.choice(total_apps, size=n_paid, replace=False, p=weights)
        is_paid[paid_indices] = True

    prices = np.zeros(total_apps, dtype=np.float64)
    if is_paid.any():
        prices[is_paid] = pricing.sample_prices(int(is_paid.sum()), seed=rng)

    # Plant blockbuster paid apps at the head of the global appeal ranking
    # (appeal index 0 is rank 1).  Only meaningful when the store has paid
    # apps at all.
    if is_paid.any():
        blockbuster_rank = 0
        for category_name, price in _PAID_BLOCKBUSTERS:
            try:
                category_index = taxonomy.index_of(category_name)
            except KeyError:
                continue
            # Find the next head slot and claim it for the blockbuster.
            slot = blockbuster_rank
            blockbuster_rank += 3  # leave free hits between blockbusters
            if slot >= total_apps:
                break
            category_of_app[slot] = category_index
            is_paid[slot] = True
            prices[slot] = price

    # Blockbuster apps belong to dedicated single-app developers: the
    # paper finds developer income essentially uncorrelated with portfolio
    # size (Figure 14, r=0.008) because the top earners are focused
    # one-hit accounts, not prolific publishers.
    blockbuster_slots = [
        slot
        for slot in range(0, 3 * len(_PAID_BLOCKBUSTERS), 3)
        if slot < total_apps and is_paid[slot]
    ]

    # --- developers ------------------------------------------------------
    portfolio_sizes = _sample_apps_per_developer(
        total_apps - len(blockbuster_slots), rng
    )
    portfolio_sizes.extend([1] * len(blockbuster_slots))
    developers = [
        Developer(developer_id=index, name=f"dev-{profile.name}-{index:05d}")
        for index in range(len(portfolio_sizes))
    ]
    developer_of_app = np.zeros(total_apps, dtype=np.int64)
    # The dedicated single-app developers (appended last) own exactly the
    # blockbuster slots; everyone else draws from the per-category pools.
    dedicated = developers[len(developers) - len(blockbuster_slots) :]
    for developer, slot in zip(dedicated, blockbuster_slots):
        developer_of_app[slot] = developer.developer_id
    blockbuster_set = set(blockbuster_slots)
    # Developers pick apps inside their focus categories where possible.
    # Each category's pool lists its apps least appealing first, so a
    # pop takes the most appealing app left.
    apps_by_category: Dict[int, List[int]] = {}
    for app_index in range(total_apps - 1, -1, -1):
        if app_index not in blockbuster_set:
            apps_by_category.setdefault(
                int(category_of_app[app_index]), []
            ).append(app_index)
    general = developers[: len(developers) - len(blockbuster_slots)]
    general_sizes = portfolio_sizes[: len(general)]
    focus_of = [
        _assign_developer_categories(taxonomy.n_categories, size, rng)
        for size in general_sizes
    ]
    # Smallest portfolios pick first: a focused account takes the best
    # apps of its categories, and prolific publishers fill theirs with
    # what is left, so income does not grow with portfolio size (Figure
    # 14, r=0.008).
    by_size = sorted(range(len(general)), key=general_sizes.__getitem__)
    for index in by_size:
        developer, size = general[index], general_sizes[index]
        assigned = 0
        for category_index in focus_of[index]:
            pool = apps_by_category.get(int(category_index), [])
            while pool and assigned < size:
                app_index = pool.pop()
                developer_of_app[app_index] = developer.developer_id
                assigned += 1
            if assigned >= size:
                break
        if assigned < size:
            # Focus categories exhausted: take whatever is left anywhere.
            for pool in apps_by_category.values():
                while pool and assigned < size:
                    app_index = pool.pop()
                    developer_of_app[app_index] = developer.developer_id
                    assigned += 1
                if assigned >= size:
                    break

    # --- listing days ------------------------------------------------------
    listing_days = np.zeros(total_apps, dtype=np.int64)
    n_late = total_apps - profile.initial_apps
    if n_late > 0:
        # Late arrivals are spread over the crawl; which apps arrive late is
        # independent of appeal, so new apps join everywhere in the ranking.
        late_indices = rng.choice(total_apps, size=n_late, replace=False)
        late_days = rng.integers(
            profile.warmup_days,
            profile.warmup_days + profile.crawl_days,
            size=n_late,
        )
        listing_days[late_indices] = late_days

    # --- cluster (within-category) ranks -----------------------------------
    cluster_ranks = np.zeros(total_apps, dtype=np.int64)
    for category_index in range(taxonomy.n_categories):
        members = np.flatnonzero(category_of_app == category_index)
        # Global appeal order within the category defines the cluster rank.
        cluster_ranks[members] = np.arange(1, members.size + 1)

    # --- entities ------------------------------------------------------------
    apps: List[App] = []
    for app_index in range(total_apps):
        package = f"com.{profile.name}.app{app_index:06d}"
        free = not bool(is_paid[app_index])
        apk = _make_apk(package, ads, is_free=free, rng=rng)
        # The store page's "contains ads" flag generally matches the APK
        # scan, with rare labelling mistakes (the paper: "generally true
        # ... with just a few exceptions").
        has_ad_library = contains_ad_network(apk.embedded_libraries)
        declares_ads = has_ad_library ^ (rng.random() < 0.02)
        app = App(
            app_id=app_index,
            name=f"{profile.name}-app-{app_index:06d}",
            category=taxonomy.names[int(category_of_app[app_index])],
            developer_id=int(developer_of_app[app_index]),
            global_rank=app_index + 1,
            cluster_rank=int(cluster_ranks[app_index]),
            price=float(prices[app_index]),
            listing_day=int(listing_days[app_index]),
            declares_ads=bool(declares_ads),
            versions=[
                AppVersion(version_name="1.0", release_day=0, apk=apk)
            ],
        )
        apps.append(app)

    # --- users -----------------------------------------------------------
    # Activity follows a heavy-tailed law so a minority of users does most
    # downloading, matching the comments-per-user CDF of Figure 5(a).
    activity = rng.pareto(1.8, size=profile.n_users) + 1.0
    population: Optional[SegmentedPopulation] = None
    if profile.segments is not None:
        # Contiguous weight-proportional user blocks; the partition itself
        # consumes no RNG, so segmenting never perturbs the draws above.
        population = SegmentedPopulation(
            segments=profile.segments, n_users=profile.n_users
        )
        comment_of_user = np.repeat(
            np.array(
                [seg.comment_probability for seg in profile.segments],
                dtype=np.float64,
            ),
            population.sizes,
        )
    else:
        comment_of_user = np.full(
            profile.n_users, profile.comment_probability, dtype=np.float64
        )
    users = [
        User(
            user_id=user_id,
            activity=float(activity[user_id]),
            comment_probability=float(comment_of_user[user_id]),
        )
        for user_id in range(profile.n_users)
    ]
    # Spam accounts: hyperactive commenters (the paper found and filtered
    # users posting thousands of comments via scripts).
    for spam_index in range(min(profile.spam_users, profile.n_users)):
        users[spam_index] = User(
            user_id=spam_index,
            activity=float(activity[spam_index]) * 50.0,
            comment_probability=min(1.0, profile.comment_probability * 10),
        )

    # --- behaviour engine -----------------------------------------------
    demand = pricing.demand_factor(prices)
    # Paid apps are almost never picked up through casual same-category
    # browsing (users are selective when paying -- Section 6.1), so their
    # downloads come from deliberate global-law selections and follow a
    # clean Zipf law (Figure 11b).
    clustered_accept = np.where(is_paid, 0.1, 1.0)
    behavior = DownloadBehavior(
        app_categories=category_of_app,
        params=profile.behavior,
        appeal_multipliers=demand,
        listing_days=listing_days,
        clustered_accept_probability=clustered_accept,
    )
    segment_behaviors: Optional[List[DownloadBehavior]] = None
    if population is not None:
        # One engine per segment: paid tolerance scales the paid-app accept
        # probability, the drawn BehaviorParams carry p/zr/zc.  Engine
        # construction consumes no RNG, so a single global-parameter
        # segment leaves the download stream byte-identical.
        segment_behaviors = [
            DownloadBehavior(
                app_categories=category_of_app,
                params=seg.behavior,
                appeal_multipliers=demand,
                listing_days=listing_days,
                clustered_accept_probability=np.where(
                    is_paid, np.clip(0.1 * seg.paid_tolerance, 0.0, 1.0), 1.0
                ),
            )
            for seg in population.segments
        ]

    # --- update process ----------------------------------------------------
    update_rates = np.zeros(total_apps, dtype=np.float64)
    n_active = int(profile.active_app_fraction * total_apps)
    if n_active > 0:
        active = rng.choice(total_apps, size=n_active, replace=False)
        update_rates[active] = rng.uniform(
            profile.update_rate_active * 0.25,
            profile.update_rate_active * 1.75,
            size=n_active,
        )

    store = AppStore(
        name=profile.name,
        taxonomy=taxonomy,
        apps=apps,
        users=users,
        behavior=behavior,
        rng=rng,
        daily_download_rate=profile.daily_downloads,
        update_rates=update_rates,
        keep_download_log=keep_download_log,
        segments=population,
        segment_behaviors=segment_behaviors,
    )
    return GeneratedStore(
        store=store,
        developers=developers,
        taxonomy=taxonomy,
        profile=profile,
    )
