"""Property-based exactness tests for the column-reading analyses.

The crawl-quality audit, Table 1, the paid- and free-app records, the
developer-strategy, ad-scan and break-even analyses, the category map
and the problematic-app finder read snapshot columns.  They replaced
loops over one ``AppSnapshot`` per row, and their contract is the same
answer to the last bit.  Copies of
those row loops live in this test as the reference, built on
:meth:`SnapshotDatabase.snapshots_on`; hypothesis drives both with
crawls that have gaps and non-daily cadences, counters that fall, apps
that vanish and return, overwritten observations, apps that change
between free and paid, undeclared ads, negative download counts and
empty crawled days.  Results compare as values with their Python types,
floats by ``float.hex``.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.adlib import declaration_accuracy, scan_apks, scan_store_for_ads
from repro.analysis.comments import category_of_apps
from repro.analysis.dataset import DatasetSummaryRow, dataset_summary
from repro.analysis.income import paid_app_records
from repro.analysis.report import full_report
from repro.analysis.strategies import (
    BreakEvenReport,
    break_even_report,
    developer_strategy_report,
    free_app_records,
)
from repro.core.prediction import (
    DownloadForecast,
    ProblematicApp,
    find_problematic_apps,
)
from repro.core.revenue import (
    FreeAppRecord,
    PaidAppRecord,
    break_even_ad_income,
    break_even_by_category,
    break_even_by_popularity_tier,
)
from repro.crawler.database import ApkRecord, AppSnapshot, SnapshotDatabase
from repro.crawler.quality import (
    CrawlQualityReport,
    _infer_cadence,
    assess_crawl_quality,
)
from repro.stats.distributions import Ecdf
from repro.store.chunks import SnapshotChunk
from repro.store.schema import SNAPSHOT_COLUMNS
from tests.rows import add_apks, add_snapshots

STORE = "s"
# Gaps and two cadences: daily at the start, every second and third day
# after it.
DAYS = (0, 1, 2, 4, 6, 9, 12)
# Free (0.0 and -0.0), paid, and the prices where "not free" and
# "price > 0" part: a negative price and NaN.
PRICES = (0.0, -0.0, 0.99, 2.5, -1.0, math.nan)
LIBRARIES = (
    (),
    ("org.util",),
    ("com.adrift.sdk",),
    ("org.util", "com.mobipop.ads.banner"),
)


# ---------------------------------------------------------------------------
# The row loops the analyses replaced
# ---------------------------------------------------------------------------


def reference_crawl_quality(database, store):
    days = database.days(store)
    if not days:
        raise ValueError(f"store {store!r} has no crawled days")
    cadence = _infer_cadence(days)
    missing = []
    for previous, current in zip(days, days[1:]):
        if current - previous > cadence:
            missing.extend(range(previous + cadence, current, cadence))
    all_apps = database.app_ids(store)
    last_seen, first_seen = {}, {}
    for day in days:
        for snapshot in database.snapshots_on(store, day):
            first_seen.setdefault(snapshot.app_id, day)
            last_seen[snapshot.app_id] = day
    coverages = []
    for day in days:
        active = [
            app_id
            for app_id in all_apps
            if first_seen[app_id] <= day <= last_seen[app_id]
        ]
        if not active:
            continue
        observed = len(database.snapshots_on(store, day))
        coverages.append(min(1.0, observed / len(active)))
    mean_coverage = sum(coverages) / len(coverages) if coverages else 0.0
    violations = []
    previous_counters = {}
    for day in days:
        for snapshot in database.snapshots_on(store, day):
            counters = (snapshot.total_downloads, snapshot.comment_count)
            before = previous_counters.get(snapshot.app_id)
            if before is not None:
                if counters[0] < before[0]:
                    violations.append((day, snapshot.app_id, "downloads"))
                if counters[1] < before[1]:
                    violations.append((day, snapshot.app_id, "comments"))
            previous_counters[snapshot.app_id] = counters
    stale = tuple(app_id for app_id in all_apps if last_seen[app_id] < days[-1])
    return CrawlQualityReport(
        store=store,
        n_days=len(days),
        expected_cadence=cadence,
        missing_days=tuple(missing),
        apps_observed=len(all_apps),
        mean_daily_coverage=mean_coverage,
        monotonicity_violations=tuple(violations),
        stale_apps=stale,
    )


def reference_summarize(database, store, price_filter=None):
    days = database.days(store)
    if len(days) < 2:
        raise ValueError(f"store {store!r} needs at least two crawled days")
    first_day, last_day = days[0], days[-1]

    def select(day):
        snapshots = database.snapshots_on(store, day)
        if price_filter == "free":
            snapshots = [s for s in snapshots if s.is_free]
        elif price_filter == "paid":
            snapshots = [s for s in snapshots if s.is_paid]
        return snapshots

    first, last = select(first_day), select(last_day)
    span = max(1, last_day - first_day)
    downloads_first = sum(s.total_downloads for s in first)
    downloads_last = sum(s.total_downloads for s in last)
    return DatasetSummaryRow(
        store=store if price_filter is None else f"{store} ({price_filter})",
        first_day=first_day,
        last_day=last_day,
        apps_first_day=len(first),
        apps_last_day=len(last),
        new_apps_per_day=(len(last) - len(first)) / span,
        downloads_first_day=downloads_first,
        downloads_last_day=downloads_last,
        daily_downloads=(downloads_last - downloads_first) / span,
    )


def reference_dataset_summary(database, split_free_paid=()):
    rows = []
    for store in database.stores():
        if store in split_free_paid:
            rows.append(reference_summarize(database, store, "free"))
            rows.append(reference_summarize(database, store, "paid"))
        else:
            rows.append(reference_summarize(database, store))
    return rows


def reference_category_of_apps(database, store):
    day = database.days(store)[-1]
    return {s.app_id: s.category for s in database.snapshots_on(store, day)}


def reference_paid_app_records(database, store, day=None):
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    sums, counts = {}, {}
    for crawl_day in days:
        for snapshot in database.snapshots_on(store, crawl_day):
            sums[snapshot.app_id] = sums.get(snapshot.app_id, 0.0) + snapshot.price
            counts[snapshot.app_id] = counts.get(snapshot.app_id, 0) + 1
    records = []
    for snapshot in database.snapshots_on(store, day):
        price = sums[snapshot.app_id] / counts[snapshot.app_id]
        if price > 0:
            records.append(
                PaidAppRecord(
                    app_id=snapshot.app_id,
                    developer_id=snapshot.developer_id,
                    category=snapshot.category,
                    price=price,
                    downloads=snapshot.total_downloads,
                )
            )
    if not records:
        raise ValueError(f"store {store!r} has no paid apps")
    return records


def reference_free_app_records(database, store, day=None, ad_flags=None):
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    if ad_flags is None:
        ad_flags = scan_store_for_ads(database, store).per_app
    records = []
    for snapshot in database.snapshots_on(store, day):
        if snapshot.is_free:
            records.append(
                FreeAppRecord(
                    app_id=snapshot.app_id,
                    developer_id=snapshot.developer_id,
                    category=snapshot.category,
                    downloads=snapshot.total_downloads,
                    has_ads=ad_flags.get(snapshot.app_id, snapshot.declares_ads),
                )
            )
    if not records:
        raise ValueError(f"store {store!r} has no free apps")
    return records


def reference_developer_strategy(database, store, day=None):
    day = database.days(store)[-1] if day is None else day
    free_apps, paid_apps = {}, {}
    for snapshot in database.snapshots_on(store, day):
        target = paid_apps if snapshot.price > 0 else free_apps
        target.setdefault(snapshot.developer_id, []).append(snapshot.category)

    def portfolio_ecdf(portfolios):
        if not portfolios:
            raise ValueError(f"store {store!r} lacks one app population")
        return Ecdf.from_samples(
            np.array([len(apps) for apps in portfolios.values()], dtype=np.float64)
        )

    def categories_ecdf(portfolios):
        return Ecdf.from_samples(
            np.array(
                [len(set(categories)) for categories in portfolios.values()],
                dtype=np.float64,
            )
        )

    free_developers, paid_developers = set(free_apps), set(paid_apps)
    n = max(1, len(free_developers | paid_developers))
    mix = {
        "free_only": len(free_developers - paid_developers) / n,
        "paid_only": len(paid_developers - free_developers) / n,
        "both": len(free_developers & paid_developers) / n,
    }
    return (
        portfolio_ecdf(free_apps),
        portfolio_ecdf(paid_apps),
        categories_ecdf(free_apps),
        categories_ecdf(paid_apps),
        mix,
    )


def reference_free_scan(database, store, day):
    apks = database.apks(store)
    free_ids = {
        snapshot.app_id
        for snapshot in database.snapshots_on(store, day)
        if snapshot.is_free
    }
    return scan_apks(store, [apk for apk in apks if apk.app_id in free_ids])


def reference_declaration_accuracy(database, store):
    day = database.days(store)[-1]
    scan = scan_store_for_ads(database, store)
    declared = {
        snapshot.app_id: snapshot.declares_ads
        for snapshot in database.snapshots_on(store, day)
    }
    checked = [app_id for app_id in scan.per_app if app_id in declared]
    if not checked:
        raise ValueError("no apps with both a scan and a declaration")
    matches = sum(1 for app_id in checked if scan.per_app[app_id] == declared[app_id])
    return matches / len(checked)


def reference_break_even_report(database, store, time_points):
    days = database.days(store)
    day = days[-1]
    ad_flags = scan_store_for_ads(database, store).per_app
    paid = reference_paid_app_records(database, store, day)
    free = reference_free_app_records(database, store, day, ad_flags=ad_flags)
    over_time = []
    step = max(1, len(days) // time_points)
    for sample_day in days[::step]:
        try:
            paid_at = reference_paid_app_records(database, store, sample_day)
            free_at = reference_free_app_records(
                database, store, sample_day, ad_flags=ad_flags
            )
            over_time.append((sample_day, break_even_ad_income(paid_at, free_at)))
        except (ValueError, ZeroDivisionError):
            continue
    return BreakEvenReport(
        store=store,
        day=day,
        overall=break_even_ad_income(paid, free),
        by_tier=break_even_by_popularity_tier(paid, free),
        by_category=break_even_by_category(paid, free),
        over_time=over_time,
    )


def reference_problematic_apps(
    database, forecast, shortfall_factor, min_expected_growth
):
    start = {
        s.app_id: s.total_downloads
        for s in database.snapshots_on(forecast.store, forecast.reference_day)
    }
    end = {
        s.app_id: s.total_downloads
        for s in database.snapshots_on(forecast.store, forecast.target_day)
    }
    ranked_apps = sorted(start, key=lambda app_id: start[app_id], reverse=True)
    problematic = []
    for rank_index, app_id in enumerate(ranked_apps):
        if rank_index >= forecast.predicted_curve.size:
            break
        expected_growth = float(
            forecast.predicted_curve[rank_index]
            - forecast.observed_reference[rank_index]
        )
        if expected_growth < min_expected_growth:
            continue
        observed_growth = end.get(app_id, start[app_id]) - start[app_id]
        if observed_growth * shortfall_factor < expected_growth:
            problematic.append(
                ProblematicApp(
                    app_id=app_id,
                    rank=rank_index + 1,
                    observed_growth=int(observed_growth),
                    expected_growth=expected_growth,
                )
            )
    problematic.sort(key=lambda app: app.shortfall, reverse=True)
    return problematic


# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------


def canonical(value):
    """A value with its Python types spelled out and floats as hex."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return (type(value).__name__, value)
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canonical(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(canonical(k), canonical(v)) for k, v in value.items()])
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, canonical(value.tolist()))
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [
                (field.name, canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ],
        )
    raise TypeError(f"unexpected {type(value).__name__} in an analysis result")


def outcome(function, *args, **kwargs):
    """The canonical result, or the exception's type and message."""
    try:
        return ("ok", canonical(function(*args, **kwargs)))
    except (ValueError, KeyError, ZeroDivisionError) as error:
        return ("raised", type(error).__name__, str(error))


def assert_same(ported, reference, *args, **kwargs):
    assert outcome(ported, *args, **kwargs) == outcome(reference, *args, **kwargs)


# ---------------------------------------------------------------------------
# Crawls
# ---------------------------------------------------------------------------

snapshot_ops = st.tuples(
    st.just("snapshot"),
    st.sampled_from(DAYS),
    st.integers(min_value=0, max_value=11),  # app_id
    st.integers(min_value=-2, max_value=40),  # total_downloads
    st.integers(min_value=0, max_value=6),  # comment_count
    st.sampled_from(PRICES),
    st.booleans(),  # declares_ads
    st.integers(min_value=0, max_value=4),  # developer_id
    st.integers(min_value=0, max_value=3),  # category
)
apk_ops = st.tuples(
    st.just("apk"),
    st.integers(min_value=0, max_value=11),  # app_id
    st.sampled_from(("1.0", "1.1")),
    st.sampled_from(LIBRARIES),
)
crawls = st.tuples(
    st.lists(st.one_of(snapshot_ops, snapshot_ops, apk_ops), min_size=1, max_size=70),
    st.sets(st.sampled_from(DAYS), max_size=2),  # empty crawled days
)


def build(ops, empty_days=()):
    """One store's crawl; ``empty_days`` that got no row become zero-row
    chunks, which a packed dataset can hold."""
    database = SnapshotDatabase()
    for op in ops:
        if op[0] == "snapshot":
            _, day, app_id, downloads, comments, price, ads, developer, category = op
            add_snapshots(
                database,
                [
                    AppSnapshot(
                        store=STORE,
                        day=day,
                        app_id=app_id,
                        name=f"app-{app_id}",
                        category=f"cat-{category}",
                        developer_id=developer,
                        price=price,
                        declares_ads=ads,
                        total_downloads=downloads,
                        rating_count=downloads % 5,
                        average_rating=3.5,
                        comment_count=comments,
                        version_name="1.0",
                    )
                ],
            )
        else:
            _, app_id, version, libraries = op
            add_apks(
                database,
                [
                    ApkRecord(
                        store=STORE,
                        app_id=app_id,
                        version_name=version,
                        package_name=f"com.s.app{app_id}",
                        size_mb=1.5,
                        embedded_libraries=libraries,
                    )
                ],
            )
    crawled = set(database.days(STORE))
    for day in sorted(set(empty_days) - crawled):
        empty = {column: [] for column in SNAPSHOT_COLUMNS}
        database.columnar._register_chunk(SnapshotChunk.seal(STORE, day, empty))
    return database


def anchored(database):
    """The crawl plus a last day on which Equation 7 is defined (one paid
    app, one free app that declares ads), so ``break_even_report`` gets
    past its reference day and reaches every ``over_time`` day."""
    rows = []
    for app_id, price in ((100, 2.5), (101, 0.0)):
        rows.append(
            AppSnapshot(
                store=STORE,
                day=20,
                app_id=app_id,
                name=f"app-{app_id}",
                category="cat-0",
                developer_id=app_id,
                price=price,
                declares_ads=True,
                total_downloads=7,
                rating_count=0,
                average_rating=0.0,
                comment_count=0,
                version_name="1.0",
            )
        )
    add_snapshots(database, rows)
    return database


def round_trips(database, directory):
    """The database, its JSONL copy and its packed copy."""
    jsonl, packed = Path(directory) / "crawl.jsonl", Path(directory) / "crawl.cstore"
    database.save(jsonl)
    database.pack(packed)
    return [database, SnapshotDatabase.load(jsonl), SnapshotDatabase.load(packed)]


def has_store(database):
    return bool(database.days(STORE))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestCrawlQuality:
    @settings(max_examples=150, deadline=None)
    @given(crawls)
    @example(  # both counters fall, then recover part of the way
        crawl=(
            [
                ("snapshot", day, 0, downloads, comments, 0.0, False, 0, 0)
                for day, downloads, comments in ((0, 5, 4), (1, 3, 1), (2, 4, 2))
            ],
            set(),
        )
    )
    def test_matches_the_row_loop(self, crawl):
        database = build(*crawl)
        assert_same(assess_crawl_quality, reference_crawl_quality, database, STORE)


class TestDatasetAndCategories:
    @settings(max_examples=100, deadline=None)
    @given(crawls)
    def test_table1_rows_match(self, crawl):
        database = build(*crawl)
        assert_same(dataset_summary, reference_dataset_summary, database)
        assert_same(
            dataset_summary,
            reference_dataset_summary,
            database,
            split_free_paid=[STORE],
        )

    @settings(max_examples=100, deadline=None)
    @given(crawls)
    def test_category_map_matches(self, crawl):
        database = build(*crawl)
        if has_store(database):
            assert_same(
                category_of_apps, reference_category_of_apps, database, STORE
            )


class TestPricingAnalyses:
    @settings(max_examples=150, deadline=None)
    @given(crawls, st.sampled_from(DAYS))
    @example(  # apps priced -1.0 and NaN, neither free nor paid, embed ads
        crawl=(
            [
                ("snapshot", 0, app_id, 5, 0, price, False, 0, 0)
                for app_id, price in ((0, -1.0), (1, math.nan), (2, 0.0))
            ]
            + [("apk", app_id, "1.0", ("com.adrift.sdk",)) for app_id in (0, 1, 2)],
            set(),
        ),
        day=0,
    )
    def test_records_and_scans_match(self, crawl, day):
        database = build(*crawl)
        if not has_store(database):
            return
        assert_same(paid_app_records, reference_paid_app_records, database, STORE, day)
        assert_same(free_app_records, reference_free_app_records, database, STORE, day)
        assert_same(
            lambda db, store, d: scan_store_for_ads(db, store, free_only=True, day=d),
            reference_free_scan,
            database,
            STORE,
            day,
        )
        assert_same(
            declaration_accuracy, reference_declaration_accuracy, database, STORE
        )

    @settings(max_examples=150, deadline=None)
    @given(crawls, st.sampled_from(DAYS + (None,)))
    def test_developer_strategies_match(self, crawl, day):
        database = build(*crawl)
        if not has_store(database):
            return

        def ported(db, store, day):
            report = developer_strategy_report(db, store, day)
            return (
                report.apps_per_developer_free,
                report.apps_per_developer_paid,
                report.categories_per_developer_free,
                report.categories_per_developer_paid,
                report.strategy_mix,
            )

        assert_same(ported, reference_developer_strategy, database, STORE, day)

    @settings(max_examples=200, deadline=None)
    @given(crawls, st.integers(min_value=1, max_value=8))
    def test_break_even_matches(self, crawl, time_points):
        for database in (build(*crawl), anchored(build(*crawl))):
            if not has_store(database):
                continue
            assert_same(
                lambda db, store: break_even_report(db, store, time_points=time_points),
                lambda db, store: reference_break_even_report(db, store, time_points),
                database,
                STORE,
            )

    def test_break_even_over_time_sums_like_python(self):
        """Forty paid apps a day: enough rows that a pairwise sum (numpy's)
        would round differently from Python's left-to-right ``sum``."""
        rng = np.random.default_rng(20130817)
        database = SnapshotDatabase()
        rows = []
        for day in range(6):
            for app_id in range(60):
                paid = app_id < 40
                rows.append(
                    AppSnapshot(
                        store=STORE,
                        day=day,
                        app_id=app_id,
                        name=f"app-{app_id}",
                        category=f"cat-{app_id % 4}",
                        developer_id=app_id % 9,
                        price=float(rng.choice([0.99, 1.49, 2.99, 0.1]) if paid else 0.0),
                        declares_ads=bool(app_id % 3),
                        total_downloads=int(rng.integers(1, 10**6)),
                        rating_count=0,
                        average_rating=0.0,
                        comment_count=0,
                        version_name="1.0",
                    )
                )
        add_snapshots(database, rows)
        report = break_even_report(database, STORE, time_points=6)
        reference = reference_break_even_report(database, STORE, 6)
        assert len(report.over_time) == 6
        assert canonical(report) == canonical(reference)


class TestProblematicApps:
    @settings(max_examples=200, deadline=None)
    @given(
        crawls,
        st.sampled_from(DAYS),
        st.sampled_from(DAYS),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=14,
        ),
        st.sampled_from((1.5, 2, 4.0)),
        st.sampled_from((0.0, 5.0)),
    )
    def test_matches_the_row_loop(
        self, crawl, reference_day, target_day, curves, shortfall, floor
    ):
        database = build(*crawl)
        forecast = DownloadForecast(
            store=STORE,
            reference_day=reference_day,
            target_day=target_day,
            fit=None,
            predicted_curve=np.array([p for p, _ in curves], dtype=np.float64),
            observed_reference=np.array([o for _, o in curves], dtype=np.float64),
        )
        assert_same(
            lambda db, fc: find_problematic_apps(db, fc, shortfall, floor),
            lambda db, fc: reference_problematic_apps(db, fc, shortfall, floor),
            database,
            forecast,
        )


    def test_tied_downloads_rank_in_app_id_order(self):
        database = SnapshotDatabase()
        rows = []
        for day, downloads in ((0, (5, 9, 5, 5)), (3, (6, 9, 8, 5))):
            for app_id, count in enumerate(downloads):
                rows.append(
                    AppSnapshot(
                        store=STORE,
                        day=day,
                        app_id=app_id,
                        name=f"app-{app_id}",
                        category="games",
                        developer_id=1,
                        price=0.0,
                        declares_ads=False,
                        total_downloads=count,
                        rating_count=0,
                        average_rating=0.0,
                        comment_count=0,
                        version_name="1.0",
                    )
                )
        add_snapshots(database, rows)
        forecast = DownloadForecast(
            store=STORE,
            reference_day=0,
            target_day=3,
            fit=None,
            predicted_curve=np.array([30.0, 20.0, 20.0, 20.0]),
            observed_reference=np.array([9.0, 5.0, 5.0, 5.0]),
        )
        apps = find_problematic_apps(database, forecast, 4.0, 5.0)
        # App 1 ranks first; apps 0, 2 and 3 tie at 5 and rank in app-id
        # order.  The list runs by shortfall.
        assert [(app.app_id, app.rank) for app in apps] == [(1, 1), (3, 4), (0, 2), (2, 3)]
        assert canonical(apps) == canonical(
            reference_problematic_apps(database, forecast, 4.0, 5.0)
        )


class TestCopiesAgree:
    @settings(max_examples=30, deadline=None)
    @given(crawls)
    def test_every_copy_answers_alike(self, crawl):
        database = build(crawl[0])
        if not has_store(database):
            return
        with tempfile.TemporaryDirectory() as directory:
            answers = [
                [
                    outcome(assess_crawl_quality, copy, STORE),
                    outcome(dataset_summary, copy, split_free_paid=[STORE]),
                    outcome(developer_strategy_report, copy, STORE),
                    outcome(break_even_report, copy, STORE),
                    outcome(category_of_apps, copy, STORE),
                ]
                for copy in round_trips(database, directory)
            ]
        assert answers[1] == answers[0]
        assert answers[2] == answers[0]

    def test_full_report_text_is_the_same_from_every_copy(
        self, slideme_campaign, tmp_path
    ):
        texts = [
            full_report(copy, "slideme-test", min_group_size=5)
            for copy in round_trips(slideme_campaign.database, tmp_path)
        ]
        assert "per download" in texts[0]  # the pricing section ran
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]


class TestPaidGates:
    """The report gates its pricing section on ``price > 0``, ``repro
    analyze`` on "not free"; a store whose only non-free app has a
    negative price tells the two apart."""

    @pytest.fixture
    def negative_price_store(self, tmp_path):
        database = SnapshotDatabase()
        rows = []
        for day in (0, 1):
            for app_id, price in ((1, 0.0), (2, -1.0)):
                rows.append(
                    AppSnapshot(
                        store=STORE,
                        day=day,
                        app_id=app_id,
                        name=f"app-{app_id}",
                        category="games",
                        developer_id=app_id,
                        price=price,
                        declares_ads=False,
                        total_downloads=10 * (day + 1) * app_id,
                        rating_count=0,
                        average_rating=0.0,
                        comment_count=0,
                        version_name="1.0",
                    )
                )
        add_snapshots(database, rows)
        path = tmp_path / "crawl.jsonl"
        database.save(path)
        return database, path

    def test_report_sees_no_paid_apps(self, negative_price_store):
        database, _ = negative_price_store
        text = full_report(database, STORE)
        assert "(skipped: the store has no paid apps)" in text

    def test_analyze_sees_a_paid_app(self, negative_price_store):
        from repro.cli import main

        _, path = negative_price_store
        # Past the gate, the split finds no positive-price downloads.
        with pytest.raises(ValueError, match="both free and paid"):
            main(["analyze", "--db", str(path), "--store", STORE, "--section", "pricing"])
