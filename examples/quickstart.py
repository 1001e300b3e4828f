#!/usr/bin/env python
"""Quickstart: generate a store, crawl it, and reproduce the core findings.

Runs in a few seconds.  Demonstrates the minimal end-to-end pipeline:

1. build a small synthetic appstore whose users exhibit the paper's two
   behavioural mechanisms (fetch-at-most-once + clustering effect);
2. crawl it daily through the simulated collection architecture;
3. characterize popularity (Pareto effect, truncated Zipf curve);
4. fit the three workload models and show APP-CLUSTERING wins.
"""

from repro import demo_profile, pareto_summary, run_crawl_campaign
from repro.analysis.model_validation import fit_store_day
from repro.analysis.popularity import popularity_report


def main() -> None:
    profile = demo_profile(
        name="quickstart",
        initial_apps=600,
        new_apps_per_day=3.0,
        crawl_days=15,
        warmup_days=10,
        daily_downloads=2500.0,
        warmup_daily_downloads=2500.0,
        n_users=1200,
        n_categories=12,
    )
    print(f"Crawling a synthetic '{profile.name}' store "
          f"({profile.initial_apps} apps, {profile.n_users} users, "
          f"{profile.crawl_days} days)...")
    campaign = run_crawl_campaign(profile, seed=42)
    database = campaign.database

    downloads = database.download_vector(
        campaign.store_name, campaign.last_crawl_day
    )
    print(f"\nCrawl finished: {downloads.size} apps, "
          f"{int(downloads.sum()):,} total downloads, "
          f"{database.n_comments(campaign.store_name):,} comments.\n")

    # --- Section 3: popularity characterization -----------------------
    summary = pareto_summary(downloads[downloads > 0])
    print("Pareto effect:", summary.describe())

    report = popularity_report(database, campaign.store_name)
    print("Rank curve:   ", report.truncation.describe())

    # --- Section 5: model fitting --------------------------------------
    print("\nFitting the three workload models (Equation 6 distance):")
    fits = fit_store_day(database, campaign.store_name)
    for fit in fits.fits.values():
        marker = "  <-- best" if fit is fits.best else ""
        print(f"  {fit.describe()}{marker}")
    from repro import ModelKind

    print(
        f"\nAPP-CLUSTERING fits "
        f"{fits.improvement_over(ModelKind.ZIPF):.1f}x closer than pure "
        f"ZIPF, as in the paper's Figure 9."
    )


if __name__ == "__main__":
    main()
