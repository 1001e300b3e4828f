#!/usr/bin/env python
"""Beyond the paper: forecasting, spam filtering, and Eq. 7 validated.

Three extensions the paper's implications section proposes but could not
evaluate (no usage data, no public spam labels):

1. **Spam detection** -- explicit flagging of scripted comment accounts
   (the paper removed them implicitly via group-size filtering).
2. **Download forecasting** -- fit the APP-CLUSTERING model on the first
   crawled day, extrapolate to the last, and compare against reality;
   flag "problematic apps" growing far below their rank's expectation.
3. **Ad-revenue validation** -- simulate post-install usage and an ad
   funnel to test, per category, whether the income a free app *earns*
   clears the break-even threshold of Equation 7.
"""

import argparse

from repro import demo_profile, run_crawl_campaign
from repro.analysis.affinity_study import affinity_study
from repro.analysis.spam import detect_spam_users
from repro.core.prediction import find_problematic_apps, forecast_downloads
from repro.reporting.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args()

    profile = demo_profile(
        name="forecastdemo",
        initial_apps=700,
        new_apps_per_day=3.0,
        crawl_days=16,
        warmup_days=8,
        daily_downloads=2500.0,
        warmup_daily_downloads=2500.0,
        n_users=1500,
        n_categories=14,
        paid_fraction=0.25,
        comment_probability=0.15,
        spam_users=4,
    )
    print(f"Crawling {profile.name!r}...")
    campaign = run_crawl_campaign(profile, seed=args.seed)
    database, store = campaign.database, campaign.store_name

    # --- 1. spam detection -------------------------------------------------
    print("\n1. Spam detection:")
    spam = detect_spam_users(database, store)
    print(spam.describe())
    clean_study = affinity_study(
        database, store, min_group_size=5, exclude_users=spam.spam_user_ids
    )
    print(
        f"   affinity study over the clean population: "
        f"{clean_study.by_depth[1].describe()}"
    )

    # --- 2. forecasting ----------------------------------------------------
    print("\n2. Download forecasting:")
    forecast = forecast_downloads(database, store)
    observed = database.download_vector(store, forecast.target_day)
    distance = forecast.evaluate(observed[observed > 0].astype(float))
    print(
        f"   day {forecast.reference_day} fit extrapolated "
        f"{forecast.horizon_days} days: predicted total "
        f"{forecast.predicted_total():,.0f} vs realized "
        f"{int(observed.sum()):,} (Eq. 6 distance {distance:.3f})"
    )
    problematic = find_problematic_apps(database, forecast)
    print(f"   {len(problematic)} apps flagged as growing far below "
          f"their rank's expectation (candidates for recommendation help):")
    for app in problematic[:5]:
        print(
            f"     app {app.app_id} (rank {app.rank}): "
            f"+{app.observed_growth} observed vs "
            f"+{app.expected_growth:,.0f} expected"
        )

    # --- 3. revenue validation ----------------------------------------------
    print("\n3. Equation 7 validated with a simulated ad funnel:")
    from repro.analysis.income import paid_app_records
    from repro.analysis.strategies import free_app_records
    from repro.revenue_sim import AdMonetization, UsageModel, compare_strategies

    comparison = compare_strategies(
        paid_app_records(database, store),
        free_app_records(database, store),
        usage=UsageModel(),
        monetization=AdMonetization(
            impressions_per_session=5.0,
            click_through_rate=0.05,
            revenue_per_click=0.5,
            ecpm=5.0,
        ),
        seed=args.seed,
    )
    print("   " + comparison.describe())
    rows = [
        [o.category, round(o.break_even_income, 3),
         round(o.simulated_income, 3), o.free_strategy_wins]
        for o in sorted(comparison.outcomes, key=lambda o: o.break_even_income)
    ]
    print(
        render_table(
            ["category", "needed ($)", "earned ($)", "free wins"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
