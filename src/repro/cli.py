"""Command-line interface: the study as a set of composable commands.

Usage (also via ``python -m repro``):

    repro campaign --store slideme --out crawl.jsonl    # simulate + crawl
    repro analyze  --db crawl.jsonl --store slideme     # the measurement study
    repro fit      --db crawl.jsonl --store slideme     # Figures 8-9
    repro forecast --db crawl.jsonl --store slideme     # future downloads
    repro workload --kind APP-CLUSTERING --out trace.jsonl
    repro cache    --scale 0.02                          # Figure 19
    repro chaos    --plan aggressive --seed 7            # fault injection
    repro serve    --days 10 --clients 4                 # always-on service
    repro loadgen  --clients 8 --requests 200            # admission load test
    repro store    pack --db crawl.jsonl --out crawl.cstore  # columnar pack
    repro store    stat crawl.cstore                     # dataset summary
    repro store    diff crawl.jsonl crawl.cstore         # first difference
    repro metrics  run.metrics.jsonl                     # inspect a metrics file
    repro lint     src/                                  # RPL static analysis

(``repro run`` is an alias for ``repro campaign``.)  Every command prints
the same textual tables the benchmarks produce, so the pipeline can be
driven without writing Python.  Each invocation runs under a fresh
metrics registry; ``--emit-metrics PATH`` on the long-running commands
(``campaign``/``run``, ``chaos``, ``cache``) writes the registry plus a
run manifest as metrics JSONL.  The deterministic records of that file
are byte-identical across same-seed runs (``repro metrics --check``
verifies the format; see docs/architecture.md, "Observability").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.crawler.database import SnapshotDatabase
from repro.crawler.scheduler import run_crawl_campaign
from repro.marketplace.entities import is_free_price
from repro.marketplace.profiles import demo_profile, paper_profile, scaled_profile
from repro.obs.metrics import MetricsRegistry, use_registry

_METRICS_HELP = "write run metrics + manifest to this file (JSONL)"

_DEFAULT_SCALES = dict(
    app_scale=0.05, download_scale=5e-4, user_scale=2e-3, day_scale=0.2
)


def _add_campaign_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "campaign",
        aliases=["run"],
        help="simulate a store, crawl it daily, and save the database",
    )
    parser.add_argument(
        "--store",
        default="demo",
        choices=["demo", "anzhi", "appchina", "1mobile", "slideme"],
        help="store profile (paper stores are scaled to laptop size)",
    )
    parser.add_argument("--out", required=True, help="output database (JSONL)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--app-scale", type=float, default=_DEFAULT_SCALES["app_scale"]
    )
    parser.add_argument(
        "--download-scale", type=float, default=_DEFAULT_SCALES["download_scale"]
    )
    parser.add_argument(
        "--user-scale", type=float, default=_DEFAULT_SCALES["user_scale"]
    )
    parser.add_argument(
        "--day-scale", type=float, default=_DEFAULT_SCALES["day_scale"]
    )
    parser.add_argument(
        "--no-comments",
        action="store_true",
        help="skip comment collection (faster; disables the affinity study)",
    )
    sharded = parser.add_argument_group(
        "sharded workload campaign",
        "with --shards, run a download-model campaign partitioned over "
        "worker processes instead of a store crawl; --out receives a "
        "JSON summary with the counts fingerprint (byte-identical "
        "across shard counts for the same seed)",
    )
    sharded.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of worker shards (1 = serial in-process)",
    )
    sharded.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="users per block (the shard-independent unit of work)",
    )
    sharded.add_argument(
        "--kind",
        default="APP-CLUSTERING",
        choices=["ZIPF", "ZIPF-at-most-once", "APP-CLUSTERING"],
        help="workload model for the sharded campaign",
    )
    sharded.add_argument("--apps", type=int, default=60_000)
    sharded.add_argument("--users", type=int, default=100_000)
    sharded.add_argument("--downloads", type=int, default=1_000_000)
    sharded.add_argument("--zr", type=float, default=1.7)
    sharded.add_argument("--zc", type=float, default=1.4)
    sharded.add_argument("--p", type=float, default=0.9)
    sharded.add_argument("--clusters", type=int, default=30)
    sharded.add_argument(
        "--personas",
        type=int,
        default=None,
        help="split the population into N persona segments drawn from "
        "the conjoint utility model (sharded campaigns only)",
    )
    sharded.add_argument(
        "--persona-seed",
        type=int,
        default=0,
        help="seed for the persona utility draws (independent of --seed)",
    )
    parser.add_argument("--emit-metrics", default=None, help=_METRICS_HELP)
    parser.set_defaults(handler=_run_campaign)


def _run_sharded_campaign(args) -> int:
    import json

    from repro.core.models import ModelKind
    from repro.marketplace.segments import default_personas
    from repro.workload.generators import WorkloadSpec, segmented_spec
    from repro.workload.sharding import (
        DEFAULT_BLOCK_SIZE,
        run_sharded_campaign,
    )

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    spec = WorkloadSpec(
        kind=ModelKind(args.kind),
        n_apps=args.apps,
        n_users=args.users,
        total_downloads=args.downloads,
        zr=args.zr,
        zc=args.zc,
        p=args.p,
        n_clusters=args.clusters,
        seed=args.seed,
    )
    personas = getattr(args, "personas", None)
    if personas is not None:
        if personas < 1:
            print("error: --personas must be >= 1", file=sys.stderr)
            return 2
        spec = segmented_spec(
            spec,
            personas=default_personas(personas),
            persona_seed=args.persona_seed,
        )
    block_size = args.block_size or DEFAULT_BLOCK_SIZE
    result = run_sharded_campaign(
        spec, n_shards=args.shards, block_size=block_size
    )
    print(result.describe())
    summary = {
        "kind": spec.kind.value,
        "n_apps": spec.n_apps,
        "n_users": spec.n_users,
        "total_downloads": spec.total_downloads,
        "seed": spec.seed,
        "n_shards": result.n_shards,
        "n_blocks": result.n_blocks,
        "block_size": result.block_size,
        "n_events": result.n_events,
        "events_unfilled": result.events_unfilled,
        "counts_fingerprint": f"sha256:{result.fingerprint}",
    }
    if result.segment_counts is not None:
        summary["segments"] = {
            name: int(row.sum())
            for name, row in zip(result.segment_names, result.segment_counts)
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"saved {args.out}")
    return 0


def _run_campaign(args) -> int:
    if args.shards is not None:
        return _run_sharded_campaign(args)
    if args.store == "demo":
        profile = demo_profile()
    else:
        profile = scaled_profile(
            paper_profile(args.store),
            app_scale=args.app_scale,
            download_scale=args.download_scale,
            user_scale=args.user_scale,
            day_scale=args.day_scale,
        )
    print(
        f"simulating and crawling {profile.name!r}: {profile.initial_apps} "
        f"initial apps, {profile.n_users} users, {profile.crawl_days} crawl "
        f"days..."
    )
    campaign = run_crawl_campaign(
        profile, seed=args.seed, fetch_comments=not args.no_comments
    )
    campaign.database.save(args.out)
    downloads = campaign.database.download_vector(
        campaign.store_name, campaign.last_crawl_day
    )
    print(
        f"saved {args.out}: {downloads.size} apps, "
        f"{int(downloads.sum()):,} downloads, "
        f"{campaign.database.n_comments(campaign.store_name):,} comments"
    )
    return 0


def _add_analyze_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "analyze", help="run the measurement study on a crawled database"
    )
    parser.add_argument("--db", required=True, help="database file (JSONL)")
    parser.add_argument("--store", required=True)
    parser.add_argument(
        "--section",
        default="all",
        choices=["popularity", "updates", "affinity", "spam", "pricing",
                 "income", "strategies", "growth", "all"],
    )
    parser.set_defaults(handler=_run_analyze)


def _run_analyze(args) -> int:
    database = SnapshotDatabase.load(args.db)
    store = args.store
    if store not in database.stores():
        print(f"error: store {store!r} not in database "
              f"(has: {', '.join(database.stores())})", file=sys.stderr)
        return 2
    section = args.section

    if section in ("popularity", "all"):
        from repro.analysis.popularity import popularity_report

        print(popularity_report(database, store).describe())
    if section in ("updates", "all"):
        from repro.analysis.updates import update_distribution

        print(update_distribution(database, store).describe())
    if section in ("affinity", "all"):
        from repro.analysis.affinity_study import affinity_study

        if database.n_comments(store):
            print(affinity_study(database, store).describe())
        elif section == "affinity":
            print("error: no comments in the database "
                  "(crawl without --no-comments)", file=sys.stderr)
            return 2
    if section in ("spam", "all"):
        from repro.analysis.spam import detect_spam_users

        if database.n_comments(store):
            print(detect_spam_users(database, store).describe())
        elif section == "spam":
            print("error: no comments in the database", file=sys.stderr)
            return 2
    if section in ("growth", "all"):
        from repro.analysis.growth import growth_series, new_vs_catalog_share

        print(growth_series(database, store).describe())
        catalog, fresh = new_vs_catalog_share(database, store)
        print(
            f"[{store}] crawl-window growth split: "
            f"{catalog * 100:.1f}% existing catalog, "
            f"{fresh * 100:.1f}% crawl-era arrivals"
        )
    if section in ("pricing", "income", "strategies", "all"):
        columns = database.snapshot_columns(store, database.days(store)[-1])
        has_paid = columns is not None and bool(
            (~is_free_price(columns.column("price"))).any()
        )
        if not has_paid:
            if section in ("pricing", "income", "strategies"):
                print("error: store has no paid apps", file=sys.stderr)
                return 2
        else:
            if section in ("pricing", "all"):
                from repro.analysis.pricing_study import (
                    free_paid_split,
                    price_correlations,
                )

                print(free_paid_split(database, store).describe())
                print(price_correlations(database, store).describe())
            if section in ("income", "all"):
                from repro.analysis.income import income_report

                print(income_report(database, store).describe())
            if section in ("strategies", "all"):
                from repro.analysis.strategies import (
                    break_even_report,
                    developer_strategy_report,
                )

                print(developer_strategy_report(database, store).describe())
                print(break_even_report(database, store).describe())
    return 0


def _add_fit_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fit", help="fit the three workload models to a store's downloads"
    )
    parser.add_argument("--db", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--day", type=int, default=None)
    parser.set_defaults(handler=_run_fit)


def _run_fit(args) -> int:
    from repro.analysis.model_validation import fit_store_day

    database = SnapshotDatabase.load(args.db)
    fits = fit_store_day(database, args.store, day=args.day)
    print(fits.describe())
    return 0


def _add_forecast_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "forecast",
        help="forecast future downloads and flag under-performing apps",
    )
    parser.add_argument("--db", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--top", type=int, default=10,
                        help="problematic apps to list")
    parser.set_defaults(handler=_run_forecast)


def _run_forecast(args) -> int:
    from repro.core.prediction import find_problematic_apps, forecast_downloads

    database = SnapshotDatabase.load(args.db)
    forecast = forecast_downloads(database, args.store)
    observed = database.download_vector(args.store, forecast.target_day)
    distance = forecast.evaluate(observed[observed > 0])
    print(
        f"forecast day {forecast.reference_day} -> {forecast.target_day}: "
        f"predicted total {forecast.predicted_total():,.0f}, realized "
        f"{int(observed.sum()):,} (Eq. 6 distance {distance:.3f}; fit "
        f"{forecast.fit.describe()})"
    )
    problematic = find_problematic_apps(database, forecast)
    print(f"{len(problematic)} apps growing far below their rank's expectation")
    for app in problematic[: args.top]:
        print(
            f"  app {app.app_id} (rank {app.rank}): observed +"
            f"{app.observed_growth}, expected +{app.expected_growth:,.0f}"
        )
    return 0


def _add_workload_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "workload", help="generate a download workload trace"
    )
    parser.add_argument(
        "--kind",
        default="APP-CLUSTERING",
        choices=["ZIPF", "ZIPF-at-most-once", "APP-CLUSTERING"],
    )
    parser.add_argument("--apps", type=int, default=1000)
    parser.add_argument("--users", type=int, default=5000)
    parser.add_argument("--downloads", type=int, default=20000)
    parser.add_argument("--zr", type=float, default=1.7)
    parser.add_argument("--zc", type=float, default=1.4)
    parser.add_argument("--p", type=float, default=0.9)
    parser.add_argument("--clusters", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="trace file (JSONL)")
    parser.set_defaults(handler=_run_workload)


def _run_workload(args) -> int:
    from repro.core.models import ModelKind
    from repro.workload.generators import WorkloadSpec
    from repro.workload.trace import write_trace

    spec = WorkloadSpec(
        kind=ModelKind(args.kind),
        n_apps=args.apps,
        n_users=args.users,
        total_downloads=args.downloads,
        zr=args.zr,
        zc=args.zc,
        p=args.p,
        n_clusters=args.clusters,
        seed=args.seed,
    )
    count = write_trace(args.out, spec.events(), spec=spec)
    print(f"wrote {count:,} events to {args.out}")
    return 0


def _add_cache_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "cache", help="run the Figure 19 cache experiment"
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument(
        "--sizes", default="0.01,0.05,0.10,0.20",
        help="comma-separated cache sizes as fractions of the catalog",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit-metrics", default=None, help=_METRICS_HELP)
    parser.set_defaults(handler=_run_cache)


def _run_cache(args) -> int:
    import numpy as np

    from repro.cache.policies import LruCache
    from repro.cache.simulator import simulate_cache_batches
    from repro.core.models import ModelKind
    from repro.reporting.tables import render_table
    from repro.workload.generators import figure19_spec

    fractions = [float(part) for part in args.sizes.split(",")]
    rows = []
    specs = {
        kind: figure19_spec(kind=kind, scale=args.scale, seed=args.seed)
        for kind in ModelKind
    }
    warm = {
        kind: list(np.argsort(spec.download_counts())[::-1])
        for kind, spec in specs.items()
    }
    for fraction in fractions:
        row = [f"{fraction * 100:g}%"]
        for kind in ModelKind:
            spec = specs[kind]
            capacity = max(1, int(fraction * spec.n_apps))
            result = simulate_cache_batches(
                spec.event_batches(),
                LruCache(capacity),
                warm_keys=warm[kind][:capacity],
            )
            row.append(round(result.hit_ratio * 100, 1))
        rows.append(row)
    print(
        render_table(
            ["cache size"] + [kind.value + " (%)" for kind in ModelKind],
            rows,
            title="LRU hit ratio under the three workload models",
        )
    )
    return 0


def _add_chaos_parser(subparsers) -> None:
    from repro.resilience.faults import PLAN_DENSITIES

    parser = subparsers.add_parser(
        "chaos",
        help="run a crawl or replication under a deterministic fault plan",
    )
    parser.add_argument(
        "--plan",
        default="aggressive",
        choices=sorted(PLAN_DENSITIES),
        help="named fault schedule (seeded, exactly replayable)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode",
        default="crawl",
        choices=["crawl", "replication"],
        help="what to run under faults: a store crawl or a multi-seed "
        "replication sweep",
    )
    parser.add_argument(
        "--store",
        default="demo",
        choices=["demo", "anzhi", "appchina", "1mobile", "slideme"],
        help="store profile for crawl mode",
    )
    parser.add_argument(
        "--no-comments",
        action="store_true",
        help="skip comment collection in crawl mode",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="omit the per-fault failure trace from the report",
    )
    parser.add_argument("--out", default=None, help="also write the report to a file")
    parser.add_argument("--emit-metrics", default=None, help=_METRICS_HELP)
    parser.set_defaults(handler=_run_chaos)


def _run_chaos(args) -> int:
    from repro.marketplace.profiles import demo_profile, paper_profile, scaled_profile
    from repro.resilience.chaos import run_chaos_crawl, run_chaos_replication

    if args.mode == "replication":
        text = run_chaos_replication(plan_name=args.plan, seed=args.seed).render()
    else:
        if args.store == "demo":
            profile = demo_profile()
        else:
            profile = scaled_profile(paper_profile(args.store), **_DEFAULT_SCALES)
        report = run_chaos_crawl(
            profile,
            plan_name=args.plan,
            seed=args.seed,
            fetch_comments=not args.no_comments,
        )
        text = report.render(include_trace=not args.no_trace)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"(written to {args.out})", file=sys.stderr)
    return 0


def _add_serve_parser(subparsers) -> None:
    from repro.resilience.faults import PLAN_DENSITIES

    parser = subparsers.add_parser(
        "serve",
        help="run the always-on ecosystem service: a live store under "
        "concurrent crawler clients on a virtual clock",
    )
    parser.add_argument(
        "--store",
        default="demo",
        choices=["demo", "anzhi", "appchina", "1mobile", "slideme"],
        help="store profile (paper stores are scaled to laptop size)",
    )
    parser.add_argument(
        "--days",
        type=int,
        default=None,
        help="daily ticks to serve (default: the profile's crawl_days); "
        "this also sizes the store's listing-arrival schedule, so the "
        "bounded run stays fingerprint-comparable to the batch campaign",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent crawler clients (the dataset fingerprint does "
        "not depend on this)",
    )
    parser.add_argument(
        "--faults",
        default="none",
        choices=sorted(PLAN_DENSITIES),
        help="named fault plan injected into the store and every client",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rps",
        type=float,
        default=8.0,
        help="per-client self-pacing in requests per simulated second",
    )
    parser.add_argument(
        "--no-comments",
        action="store_true",
        help="skip comment collection",
    )
    parser.add_argument(
        "--out", default=None, help="save the crawled database (JSONL)"
    )
    parser.add_argument(
        "--verify-batch",
        action="store_true",
        help="also run the batch campaign on the same seed and fail "
        "unless the dataset fingerprints are byte-identical",
    )
    parser.add_argument(
        "--emit-metrics",
        default=None,
        help="write the K-invariant data-plane metrics (commit counters, "
        "streaming analytics) + manifest to this JSONL file",
    )
    parser.add_argument(
        "--emit-traffic",
        default=None,
        help="write the traffic-plane metrics (retries, faults, latency "
        "histograms; deterministic per seed and client count) to this "
        "JSONL file",
    )
    parser.set_defaults(handler=_run_serve)


def _run_serve(args) -> int:
    from dataclasses import replace

    from repro.obs.manifest import RunManifest, write_metrics_jsonl
    from repro.obs.metrics import get_registry
    from repro.resilience.chaos import estimate_crawl_horizon
    from repro.resilience.faults import named_plan
    from repro.service import EcosystemService

    if args.clients < 1:
        print("error: --clients must be >= 1", file=sys.stderr)
        return 2
    if args.store == "demo":
        profile = demo_profile()
    else:
        profile = scaled_profile(paper_profile(args.store), **_DEFAULT_SCALES)
    if args.days is not None:
        if args.days < 1:
            print("error: --days must be >= 1", file=sys.stderr)
            return 2
        profile = replace(profile, crawl_days=args.days)

    plan = None
    if args.faults != "none":
        horizon = estimate_crawl_horizon(
            profile, requests_per_second=args.rps * args.clients
        )
        plan = named_plan(args.faults, seed=args.seed, horizon=horizon)

    print(
        f"serving {profile.name!r} for {profile.crawl_days} daily ticks to "
        f"{args.clients} client(s) (faults: {args.faults})..."
    )
    service = EcosystemService(
        profile,
        seed=args.seed,
        n_clients=args.clients,
        fault_plan=plan,
        fetch_comments=not args.no_comments,
        requests_per_second=args.rps,
    )
    report = service.run()
    print(report.describe())

    gauges = service.data_metrics.snapshot()["gauges"]
    slope = gauges.get("streaming.zipf_slope")
    if slope is not None:
        top_1pct = gauges["streaming.pareto_top_1pct"]
        top_10pct = gauges["streaming.pareto_top_10pct"]
        print(
            f"streaming analytics: zipf slope {slope:.3f}, top 1% -> "
            f"{top_1pct * 100:.1f}% of downloads, top 10% -> "
            f"{top_10pct * 100:.1f}% (gini {gauges['streaming.gini']:.3f})"
        )
    print(f"dataset fingerprint sha256:{report.fingerprint}")

    if args.out:
        service.database.save(args.out)
        print(f"saved {args.out}")

    # The data plane must not vary with --clients, so its manifest omits
    # that parameter; the traffic manifest records the full invocation.
    shared_params = {
        "store": profile.name,
        "days": profile.crawl_days,
        "faults": args.faults,
        "rps": args.rps,
        "no_comments": bool(args.no_comments),
    }
    if args.emit_metrics:
        manifest = RunManifest(
            command="serve", seed=int(args.seed), params=shared_params
        )
        write_metrics_jsonl(args.emit_metrics, service.data_metrics, manifest)
        print(f"(data-plane metrics written to {args.emit_metrics})", file=sys.stderr)
    if args.emit_traffic:
        manifest = RunManifest(
            command="serve",
            seed=int(args.seed),
            params={**shared_params, "clients": args.clients},
        )
        write_metrics_jsonl(args.emit_traffic, get_registry(), manifest)
        print(f"(traffic-plane metrics written to {args.emit_traffic})", file=sys.stderr)
    # The generic writer would dump the ambient (traffic) registry over
    # the data-plane sidecar; both files are already written above.
    args.emit_metrics = None

    if args.verify_batch:
        from repro.obs.metrics import use_registry as _use_registry

        print("verifying against the batch campaign on the same seed...")
        with _use_registry(MetricsRegistry()):
            batch = run_crawl_campaign(
                profile, seed=args.seed, fetch_comments=not args.no_comments
            )
        batch_fingerprint = batch.database.fingerprint()
        if batch_fingerprint != report.fingerprint:
            from repro.store import first_difference

            difference = first_difference(
                service.database.columnar, batch.database.columnar
            )
            print(
                f"error: fingerprint mismatch\n  serve: {report.fingerprint}"
                f"\n  batch: {batch_fingerprint}"
                f"\n  first difference: {difference.describe(('serve', 'batch'))}",
                file=sys.stderr,
            )
            return 1
        print(f"batch fingerprint matches: sha256:{batch_fingerprint}")
    return 0


def _add_loadgen_parser(subparsers) -> None:
    from repro.resilience.faults import PLAN_DENSITIES

    parser = subparsers.add_parser(
        "loadgen",
        help="hammer a simulated store's web API with concurrent clients "
        "and report admission/latency behaviour",
    )
    parser.add_argument(
        "--store",
        default="demo",
        choices=["demo", "anzhi", "appchina", "1mobile", "slideme"],
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--requests", type=int, default=100, help="requests per client"
    )
    parser.add_argument(
        "--rps",
        type=float,
        default=8.0,
        help="per-client self-pacing in requests per simulated second",
    )
    parser.add_argument(
        "--faults",
        default="none",
        choices=sorted(PLAN_DENSITIES),
        help="named fault plan injected into the store and every client",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit-metrics", default=None, help=_METRICS_HELP)
    parser.set_defaults(handler=_run_loadgen)


def _run_loadgen(args) -> int:
    from repro.obs.metrics import get_registry
    from repro.resilience.faults import named_plan
    from repro.service import LoadGenerator

    if args.clients < 1:
        print("error: --clients must be >= 1", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.store == "demo":
        profile = demo_profile()
    else:
        profile = scaled_profile(paper_profile(args.store), **_DEFAULT_SCALES)

    plan = None
    if args.faults != "none":
        # The fleet completes its budget in about requests/rps simulated
        # seconds per client; schedule faults across that window.
        horizon = max(1.0, args.requests / args.rps)
        plan = named_plan(args.faults, seed=args.seed, horizon=horizon)

    generator = LoadGenerator(
        profile,
        seed=args.seed,
        n_clients=args.clients,
        requests_per_client=args.requests,
        requests_per_second=args.rps,
        fault_plan=plan,
    )
    report = generator.run()
    print(report.describe())
    counters = get_registry().snapshot()["counters"]
    for name in (
        "crawler.requests",
        "crawler.retries",
        "crawler.rate_limit_hits",
        "crawler.transient_faults",
        "crawler.proxy_failures",
        "crawler.breaker_skips",
    ):
        if name in counters:
            print(f"  {name} = {counters[name]}")
    return 0


def _add_report_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "report", help="render the full study for one store as a document"
    )
    parser.add_argument("--db", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", default=None, help="also write to a file")
    parser.set_defaults(handler=_run_report)


def _run_report(args) -> int:
    from repro.analysis.report import full_report

    database = SnapshotDatabase.load(args.db)
    try:
        text = full_report(database, args.store)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"(written to {args.out})", file=sys.stderr)
    return 0


def _add_store_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "store",
        help="pack, inspect, fingerprint and compare columnar snapshot "
        "datasets",
    )
    verbs = parser.add_subparsers(dest="store_verb", required=True)

    pack = verbs.add_parser(
        "pack",
        help="pack a database into the columnar .npy-per-column layout",
    )
    pack.add_argument(
        "--db", required=True, help="input database (JSONL or packed dataset)"
    )
    pack.add_argument("--out", required=True, help="output dataset directory")
    pack.set_defaults(handler=_run_store_pack)

    stat = verbs.add_parser(
        "stat", help="summarize a database or packed dataset"
    )
    stat.add_argument("path", help="JSONL database or packed dataset")
    stat.set_defaults(handler=_run_store_stat)

    fingerprint = verbs.add_parser(
        "fingerprint",
        help="print the order-independent dataset fingerprint",
    )
    fingerprint.add_argument("path", help="JSONL database or packed dataset")
    fingerprint.set_defaults(handler=_run_store_fingerprint)

    diff = verbs.add_parser(
        "diff",
        help="name the first (store, day, column, app) where two datasets "
        "differ; exits 1 when they differ",
    )
    diff.add_argument("left", help="JSONL database or packed dataset")
    diff.add_argument("right", help="JSONL database or packed dataset")
    diff.set_defaults(handler=_run_store_diff)


def _run_store_pack(args) -> int:
    database = SnapshotDatabase.load(args.db)
    total = database.pack(args.out)
    columnar = database.columnar
    n_chunks = sum(1 for _ in columnar.chunks())
    print(
        f"packed {args.out}: {n_chunks} chunks, "
        f"{columnar.n_snapshot_rows():,} snapshot rows, "
        f"{total:,} bytes on disk"
    )
    return 0


def _run_store_stat(args) -> int:
    from repro.reporting.tables import render_table
    from repro.store import bytes_on_disk, is_packed_dataset

    database = SnapshotDatabase.load(args.path)
    columnar = database.columnar
    rows = []
    for store in columnar.stores():
        comment_log = columnar.comment_log(store)
        apk_log = columnar.apk_log(store)
        rows.append(
            [
                store,
                len(columnar.days(store)),
                columnar.n_snapshot_rows(store),
                len(comment_log) if comment_log is not None else 0,
                len(apk_log) if apk_log is not None else 0,
            ]
        )
    print(
        render_table(
            ["store", "days", "snapshots", "comments", "apks"],
            rows,
            title=f"contents of {args.path}",
        )
    )
    print(
        f"dictionaries: {len(columnar.names)} names, "
        f"{len(columnar.categories)} categories, "
        f"{len(columnar.versions)} versions, "
        f"{len(columnar.packages)} packages, "
        f"{len(columnar.libsets)} library sets"
    )
    if is_packed_dataset(args.path):
        print(f"packed dataset: {bytes_on_disk(args.path):,} bytes on disk")
    return 0


def _run_store_fingerprint(args) -> int:
    database = SnapshotDatabase.load(args.path)
    print(f"sha256:{database.fingerprint()}")
    return 0


def _run_store_diff(args) -> int:
    from repro.store import first_difference

    left = SnapshotDatabase.load(args.left)
    right = SnapshotDatabase.load(args.right)
    difference = first_difference(left.columnar, right.columnar)
    if difference is None:
        print(f"identical: sha256:{left.fingerprint()}")
        return 0
    print(f"first difference: {difference.describe((args.left, args.right))}")
    return 1


def _add_metrics_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "metrics",
        help="inspect a metrics JSONL file written by --emit-metrics",
    )
    parser.add_argument("path", help="metrics JSONL file")
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the format (JSON lines, record tags, stable key "
        "order); exits nonzero on problems",
    )
    parser.add_argument(
        "--strip-wall-clock",
        action="store_true",
        help="print the file with the wall-clock record removed (what "
        "remains is seed-deterministic, safe to diff across runs)",
    )
    parser.set_defaults(handler=_run_metrics)


def _run_metrics(args) -> int:
    from repro.obs.manifest import (
        check_metrics_file,
        read_metrics_records,
        render_metrics_summary,
        strip_wall_clock,
    )

    if args.check:
        problems = check_metrics_file(args.path)
        if problems:
            for problem in problems:
                print(f"error: {args.path}: {problem}", file=sys.stderr)
            return 1
        print(f"{args.path}: ok")
        return 0
    if args.strip_wall_clock:
        with open(args.path, encoding="utf-8") as handle:
            sys.stdout.write(strip_wall_clock(handle.read()))
        return 0
    try:
        records = read_metrics_records(args.path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_metrics_summary(records))
    return 0


def _add_lint_parser(subparsers) -> None:
    from repro.devtools.lint import add_lint_parser

    add_lint_parser(subparsers)


def _add_export_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "export", help="export a crawled database to CSV files"
    )
    parser.add_argument("--db", required=True)
    parser.add_argument("--store", default=None, help="restrict to one store")
    parser.add_argument(
        "--prefix", required=True,
        help="output prefix; writes <prefix>_snapshots.csv, _comments.csv, _apks.csv",
    )
    parser.set_defaults(handler=_run_export)


def _run_export(args) -> int:
    from repro.crawler.exporters import (
        export_apks_csv,
        export_comments_csv,
        export_snapshots_csv,
    )

    database = SnapshotDatabase.load(args.db)
    for suffix, exporter in (
        ("snapshots", export_snapshots_csv),
        ("comments", export_comments_csv),
        ("apks", export_apks_csv),
    ):
        path = f"{args.prefix}_{suffix}.csv"
        rows = exporter(database, path, store=args.store)
        print(f"wrote {rows:,} rows to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Rise of the Planet of the Apps' "
            "(IMC 2013)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_campaign_parser(subparsers)
    _add_analyze_parser(subparsers)
    _add_fit_parser(subparsers)
    _add_forecast_parser(subparsers)
    _add_workload_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_chaos_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_loadgen_parser(subparsers)
    _add_export_parser(subparsers)
    _add_store_parser(subparsers)
    _add_report_parser(subparsers)
    _add_metrics_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def _emit_metrics(args, registry: MetricsRegistry) -> None:
    """Write the invocation's registry + manifest when requested."""
    path = getattr(args, "emit_metrics", None)
    if not path:
        return
    from repro.obs.manifest import RunManifest, write_metrics_jsonl

    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler", "command", "emit_metrics", "seed")
        and isinstance(value, (bool, int, float, str, type(None)))
    }
    seed = getattr(args, "seed", None)
    manifest = RunManifest(
        command=args.command,
        seed=int(seed) if seed is not None else None,
        params=params,
    )
    write_metrics_jsonl(path, registry, manifest)
    print(f"(metrics written to {path})", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every invocation runs under its own :class:`MetricsRegistry`, so
    counters never leak between commands in one process (tests drive
    :func:`main` repeatedly) and ``--emit-metrics`` captures exactly one
    run.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    with use_registry(registry):
        code = args.handler(args)
        _emit_metrics(args, registry)
    return code


if __name__ == "__main__":
    sys.exit(main())
