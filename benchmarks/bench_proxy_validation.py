"""Methodology check: do comments really proxy download patterns?

Section 4 of the paper measures temporal affinity on *comment* streams
because stores do not reveal per-user downloads, assuming "publicly
available comments provide us with access to a subset of the download
patterns of individual users".  The paper cannot test that assumption;
our simulator can, because it has the ground-truth download log.

This bench builds a store with the raw event log enabled, computes the
affinity study twice -- once from the true download streams, once from
the comment streams the crawler sees -- and compares.

Finding: the proxy is faithful but *attenuated*.  Comments sample the
download stream sparsely (each download comments with probability ~0.15
here), and subsampling a sequence dilutes its sequential structure, so
comment-based affinity sits a little below download-based affinity at
every depth while both remain far above the random-walk baseline.  The
implication for the paper is reassuring: its comment-measured affinity
(Figures 6-7) *underestimates* the true download affinity -- the
clustering effect is, if anything, stronger than reported.
"""

import numpy as np
from conftest import emit

from repro.core.affinity import random_walk_affinity, temporal_affinity
from repro.crawler.scheduler import run_crawl_campaign
from repro.marketplace.profiles import demo_profile
from repro.reporting.tables import render_table

DEPTHS = (1, 2, 3)


def _affinities(streams, depth):
    values = [
        value
        for stream in streams.values()
        if (value := temporal_affinity(stream, depth=depth)) is not None
    ]
    return float(np.mean(values)) if values else float("nan")


def run_proxy_validation():
    profile = demo_profile(
        name="proxycheck",
        initial_apps=600,
        new_apps_per_day=2.0,
        crawl_days=14,
        warmup_days=6,
        daily_downloads=2500.0,
        warmup_daily_downloads=2500.0,
        n_users=1200,
        n_categories=12,
        comment_probability=0.15,
        spam_users=0,
    )
    campaign = run_crawl_campaign(profile, seed=31, keep_download_log=True)
    store = campaign.generated.store

    category_of = {
        app.app_id: app.category for app in store.apps()
    }

    # Ground truth: per-user download category streams.
    download_streams = {}
    for user_id, app_id, _, is_update in store.download_log().tolist():
        if is_update:
            continue
        download_streams.setdefault(user_id, []).append(category_of[app_id])

    # The proxy: per-user comment category streams, as the crawler saw.
    from repro.analysis.comments import user_category_strings

    comment_streams = user_category_strings(
        campaign.database, campaign.store_name
    )

    counts = [len(s) for s in category_of.values()]
    sizes = {}
    for category in category_of.values():
        sizes[category] = sizes.get(category, 0) + 1

    rows = []
    for depth in DEPTHS:
        rows.append(
            (
                depth,
                _affinities(download_streams, depth),
                _affinities(comment_streams, depth),
                random_walk_affinity(list(sizes.values()), depth=depth),
            )
        )
    return rows


def render_validation(rows) -> str:
    return render_table(
        [
            "depth",
            "affinity from true downloads",
            "affinity from comments (the paper's proxy)",
            "random walk",
        ],
        [
            [depth, round(downloads, 3), round(comments, 3), round(walk, 3)]
            for depth, downloads, comments, walk in rows
        ],
        title="Proxy validation: comment streams vs ground-truth downloads",
    )


def test_comments_proxy_downloads(benchmark, results_dir):
    rows = benchmark.pedantic(run_proxy_validation, rounds=1, iterations=1)
    emit(results_dir, "proxy_validation", render_validation(rows))

    for depth, from_downloads, from_comments, walk in rows:
        # The proxy is attenuated, not inflated: subsampling can only
        # dilute sequential structure, so comments bound the truth from
        # below (within noise)...
        assert from_comments <= from_downloads + 0.03, depth
        # ...and the attenuation is modest.
        assert from_downloads - from_comments < 0.20, depth
        # Both carry the clustering signal far above random wandering.
        assert from_downloads > 1.5 * walk, depth
        assert from_comments > 1.5 * walk, depth