"""Property: a crawled day's one commit equals the per-row writes.

The crawler once wrote a day app by app: each page as a snapshot row,
then the app's APK, then its comments, each de-duplicated as it arrived.
:func:`repro.crawler.crawler.commit_day` lands the same day as one
snapshot append and one bulk append per log.  ``PerRowModel`` is a flat,
in-test model of the per-row writes (it shares no code with
``repro.store``): snapshot rows in call order with the last write of a
(store, day, app) winning, intern tables filled in first-use order, a
comment kept on the first sight of its (user, app, day, rating), and an
APK kept on the first sight of its (app, version) with ``seq`` counting
kept rows.  Hypothesis draws several stores and days, comments offered
again on later days and twice in one day, repeated APK versions, apps
without an APK or comments, days without pages and days committed twice,
and the two must agree on the fingerprint, the crawled days, every row
of every chunk and log, every intern table, the commit's counts and the
store's ingest and seal counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.crawler import AppObservation, commit_day
from repro.crawler.database import SnapshotDatabase
from repro.crawler.webapi import ApkDownload, AppPage
from repro.marketplace.entities import AppStatistics, Comment
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.store.schema import APK_COLUMNS, COMMENT_COLUMNS, SNAPSHOT_COLUMNS
from tests.properties.test_store_exactness import LegacyReference

STORES = ("alpha", "beta")
NAMES = ("kite", "atlas", "bolt", "echo")
CATEGORIES = ("games", "tools", "music")
VERSIONS = ("1.0", "1.1", "2.0")
LIBSETS = ((), ("com.adrift.sdk",), ("com.ads", "com.util"))
TABLES = ("names", "categories", "versions", "packages", "libsets")

comments = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # user_id
        st.integers(min_value=0, max_value=2),  # day
        st.integers(min_value=1, max_value=5),  # rating
    ),
    min_size=1,
    max_size=4,
)

visits = st.tuples(
    st.integers(min_value=0, max_value=5),  # app_id
    st.sampled_from(NAMES),
    st.sampled_from(CATEGORIES),
    st.sampled_from(VERSIONS),
    st.integers(min_value=0, max_value=10**6),  # downloads
    st.booleans(),  # an APK was fetched
    st.sampled_from(LIBSETS),
    st.none() | comments,
)

days = st.lists(
    st.tuples(
        st.sampled_from(STORES),
        st.integers(min_value=0, max_value=3),  # day
        st.lists(visits, max_size=6),
    ),
    min_size=1,
    max_size=6,
)


def observation(visit):
    app_id, name, category, version, downloads, fetched, libraries, posted = visit
    statistics = AppStatistics(
        app_id=app_id,
        total_downloads=downloads,
        rating_sum=downloads % 17,
        rating_count=downloads % 5,
        comment_count=0 if posted is None else len(posted),
        version_name=version,
        price=0.5 * (app_id % 3),
    )
    page = AppPage(
        app_id=app_id,
        name=name,
        category=category,
        developer_id=app_id % 4,
        price=statistics.price,
        declares_ads=bool(downloads % 2),
        statistics=statistics,
        version_names=(version,),
    )
    apk = None
    if fetched:  # the store holds still: the APK is the page's version
        apk = ApkDownload(
            app_id=app_id,
            version_name=version,
            package_name=f"pkg.{name}",
            size_mb=1.0 + app_id,
            embedded_libraries=libraries,
        )
    listed = None
    if posted is not None:
        listed = [
            Comment(user_id=user, app_id=app_id, day=day, rating=rating)
            for user, day, rating in posted
        ]
    return AppObservation(page=page, apk=apk, comments=listed)


class PerRowModel:
    """The store a per-row writer leaves, as flat Python state."""

    def __init__(self):
        self.tables = {table: [] for table in TABLES}
        self.snapshots = {}  # (store, day, app_id) -> row, ids resolved here
        self.comments = {}  # store -> kept rows, first-sight order
        self.apks = {}  # store -> kept rows with seq
        self.ingested = {"snapshots": 0, "comments": 0, "apks": 0}
        self.seals = 0
        self._unsealed_apks = set()  # stores with APK rows since a seal
        self.legacy = LegacyReference()  # the flat-dict fingerprint

    def intern(self, table, value):
        values = self.tables[table]
        if value not in values:
            values.append(value)
        return values.index(value)

    def start_day(self, store):
        """A crawl day opens by reading the APK archive, which seals it."""
        if store in self._unsealed_apks:
            self._unsealed_apks.discard(store)
            self.seals += 1

    def commit(self, store, day, observations):
        stored = offered = 0
        for seen in observations:
            page = seen.page
            stats = page.statistics
            self.snapshots[(store, day, page.app_id)] = (
                page.app_id,
                self.intern("names", page.name),
                self.intern("categories", page.category),
                page.developer_id,
                page.price,
                page.declares_ads,
                stats.total_downloads,
                stats.rating_count,
                stats.average_rating,
                stats.comment_count,
                self.intern("versions", stats.version_name),
            )
            self.ingested["snapshots"] += 1
            self.legacy.add_snapshot(
                {
                    "store": store,
                    "day": day,
                    "app_id": page.app_id,
                    "name": page.name,
                    "category": page.category,
                    "developer_id": page.developer_id,
                    "price": page.price,
                    "declares_ads": page.declares_ads,
                    "total_downloads": stats.total_downloads,
                    "rating_count": stats.rating_count,
                    "average_rating": stats.average_rating,
                    "comment_count": stats.comment_count,
                    "version_name": stats.version_name,
                }
            )
            apk = seen.apk
            if apk is not None:
                row = (
                    apk.app_id,
                    self.intern("versions", apk.version_name),
                    self.intern("packages", apk.package_name),
                    apk.size_mb,
                    self.intern("libsets", apk.embedded_libraries),
                )
                log = self.apks.setdefault(store, [])
                if all(kept[:2] != row[:2] for kept in log):
                    log.append(row + (len(log),))
                    self._unsealed_apks.add(store)
                    self.ingested["apks"] += 1
                    stored += 1
                self.legacy.add_apk(
                    {
                        "store": store,
                        "app_id": apk.app_id,
                        "version_name": apk.version_name,
                        "package_name": apk.package_name,
                        "size_mb": apk.size_mb,
                        "embedded_libraries": list(apk.embedded_libraries),
                    }
                )
            for comment in seen.comments or ():
                offered += 1
                row = (comment.user_id, comment.app_id, comment.day, comment.rating)
                log = self.comments.setdefault(store, [])
                if row not in log:
                    log.append(row)
                    self.ingested["comments"] += 1
                self.legacy.add_comment(
                    {
                        "store": store,
                        "user_id": comment.user_id,
                        "app_id": comment.app_id,
                        "day": comment.day,
                        "rating": comment.rating,
                    }
                )
        return len(observations), stored, offered

    def days(self, store):
        return sorted({day for (s, day, _) in self.snapshots if s == store})

    def chunk_rows(self, store, day):
        return [
            row for (s, d, _), row in sorted(self.snapshots.items()) if (s, d) == (store, day)
        ]

    def finish(self):
        """Reading every log and chunk seals what is still buffered."""
        self.seals += len(self._unsealed_apks) + len(self.comments)
        self.seals += len({(store, day) for store, day, _ in self.snapshots})


def rows(columns, names):
    return list(zip(*(columns[name].tolist() for name in names)))


@given(plan=days, recommit=st.booleans())
@settings(max_examples=150, deadline=None)
def test_day_commit_equals_per_row_writes(plan, recommit):
    if recommit:  # the first day again, as a re-run crawl day lands it
        plan = plan + plan[:1]
    model = PerRowModel()
    registry = MetricsRegistry()
    with use_registry(registry):
        database = SnapshotDatabase()
        for store, day, listed in plan:
            observations = [observation(visit) for visit in listed]
            database.latest_apk_per_app(store)
            model.start_day(store)
            committed = commit_day(database, store, day, observations)
            expected = model.commit(store, day, observations)
            assert (
                committed.pages,
                committed.apks_stored,
                committed.comments_offered,
            ) == expected
        columnar = database.columnar
        assert columnar.apk_stores() == sorted(model.apks)
        assert columnar.comment_stores() == sorted(model.comments)
        for store in STORES:
            log = columnar.apk_log(store)
            assert (rows(log.arrays(), APK_COLUMNS) if log else []) == model.apks.get(
                store, []
            )
            log = columnar.comment_log(store)
            assert (
                rows(log.arrays(), COMMENT_COLUMNS) if log else []
            ) == model.comments.get(store, [])
            assert database.days(store) == model.days(store)
        assert database.fingerprint() == model.legacy.fingerprint()
        for store in STORES:
            for day in model.days(store):
                chunk = columnar.chunk(store, day)
                columns = {name: chunk.column(name) for name in SNAPSHOT_COLUMNS}
                assert rows(columns, SNAPSHOT_COLUMNS) == model.chunk_rows(store, day)
    for table in TABLES:
        assert list(getattr(columnar, table).values()) == model.tables[table]
    model.finish()
    for kind, count in model.ingested.items():
        assert registry.counter(f"store.rows_ingested.{kind}").value == count
    assert registry.counter("store.chunks_sealed").value == model.seals
