"""Composite study report: the whole measurement study as one document.

Renders every analysis the database supports into a single text report
with section headers, in the paper's section order.  Used by the CLI's
``report`` command and handy as a one-artifact summary of a campaign.
Sections that the data cannot support (no comments, no paid apps) are
skipped with a note rather than failing.
"""

from __future__ import annotations

from typing import List

from repro.crawler.database import SnapshotDatabase


def _heading(title: str) -> str:
    return f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}\n"


def full_report(
    database: SnapshotDatabase,
    store: str,
    min_group_size: int = 10,
) -> str:
    """Render the full study for one store as a text document."""
    if store not in database.stores():
        known = ", ".join(database.stores())
        raise KeyError(f"unknown store {store!r}; database has: {known}")
    sections: List[str] = [f"Appstore study report: {store!r}"]

    # --- crawl quality ------------------------------------------------------
    from repro.crawler.quality import assess_crawl_quality

    sections.append(_heading("Crawl quality"))
    try:
        sections.append(assess_crawl_quality(database, store).describe())
    except ValueError as error:
        sections.append(f"(skipped: {error})")

    # --- dataset (Table 1) ------------------------------------------------
    from repro.analysis.dataset import dataset_summary
    from repro.analysis.growth import growth_series, new_vs_catalog_share

    sections.append(_heading("Dataset (Table 1)"))
    try:
        rows = [row for row in dataset_summary(database) if store in row.store]
        for row in rows:
            sections.append(
                f"{row.store}: {row.crawl_days} crawled days, "
                f"{row.apps_first_day} -> {row.apps_last_day} apps, "
                f"{row.downloads_first_day:,} -> {row.downloads_last_day:,} "
                f"downloads ({row.daily_downloads:,.0f}/day)"
            )
        sections.append(growth_series(database, store).describe())
        catalog, fresh = new_vs_catalog_share(database, store)
        sections.append(
            f"growth split: {catalog * 100:.1f}% existing catalog, "
            f"{fresh * 100:.1f}% crawl-era arrivals"
        )
    except (ValueError, KeyError) as error:
        sections.append(f"(skipped: {error})")

    # --- popularity (Sections 3.1-3.2) ------------------------------------
    from repro.analysis.popularity import popularity_report
    from repro.analysis.updates import update_distribution

    sections.append(_heading("Popularity (Figures 2-3)"))
    try:
        sections.append(popularity_report(database, store).describe())
    except (ValueError, KeyError) as error:
        sections.append(f"(skipped: {error})")

    sections.append(_heading("Updates (Figure 4)"))
    try:
        sections.append(update_distribution(database, store).describe())
    except (ValueError, KeyError) as error:
        sections.append(f"(skipped: {error})")

    # --- clustering effect (Section 4) -------------------------------------
    sections.append(_heading("Clustering effect (Figures 5-7)"))
    if database.n_comments(store):
        from repro.analysis.affinity_study import affinity_study
        from repro.analysis.comments import comment_behavior_report
        from repro.analysis.spam import detect_spam_users

        try:
            spam = detect_spam_users(database, store)
            sections.append(spam.describe())
            sections.append(
                comment_behavior_report(database, store).describe()
            )
            study = affinity_study(
                database,
                store,
                min_group_size=min_group_size,
                exclude_users=spam.spam_user_ids,
            )
            sections.append(study.describe())
        except (ValueError, KeyError) as error:
            sections.append(f"(skipped: {error})")
    else:
        sections.append("(skipped: no comments were crawled)")

    # --- model validation (Section 5) --------------------------------------
    from repro.analysis.model_validation import fit_store_day

    sections.append(_heading("Model validation (Figures 8-9)"))
    try:
        sections.append(fit_store_day(database, store).describe())
    except (ValueError, KeyError) as error:
        sections.append(f"(skipped: {error})")

    # --- pricing and revenue (Section 6) ------------------------------------
    sections.append(_heading("Pricing and revenue (Figures 11-18)"))
    last_day = database.days(store)[-1]
    columns = database.snapshot_columns(store, last_day)
    has_paid = columns is not None and bool((columns.column("price") > 0).any())
    if has_paid:
        from repro.analysis.adlib import scan_store_for_ads
        from repro.analysis.income import income_report
        from repro.analysis.pricing_study import (
            free_paid_split,
            price_correlations,
        )
        from repro.analysis.strategies import (
            break_even_report,
            developer_strategy_report,
        )

        try:
            sections.append(free_paid_split(database, store).describe())
            sections.append(price_correlations(database, store).describe())
            sections.append(income_report(database, store).describe())
            sections.append(
                developer_strategy_report(database, store).describe()
            )
            sections.append(
                scan_store_for_ads(database, store, free_only=True).describe()
            )
            sections.append(break_even_report(database, store).describe())
        except (ValueError, KeyError) as error:
            sections.append(f"(skipped: {error})")
    else:
        sections.append("(skipped: the store has no paid apps)")

    # --- forecast (Section 7 implication) -----------------------------------
    from repro.core.prediction import find_problematic_apps, forecast_downloads

    sections.append(_heading("Forecast (Section 7 implication)"))
    try:
        forecast = forecast_downloads(database, store)
        observed = database.download_vector(store, forecast.target_day)
        distance = forecast.evaluate(observed[observed > 0].astype(float))
        sections.append(
            f"day {forecast.reference_day} fit extrapolated to day "
            f"{forecast.target_day}: predicted {forecast.predicted_total():,.0f} "
            f"vs realized {int(observed.sum()):,} (Eq. 6 distance "
            f"{distance:.3f})"
        )
        problematic = find_problematic_apps(database, forecast)
        sections.append(
            f"{len(problematic)} apps growing far below their rank's "
            f"expectation"
        )
    except (ValueError, KeyError) as error:
        sections.append(f"(skipped: {error})")

    return "\n".join(sections) + "\n"
