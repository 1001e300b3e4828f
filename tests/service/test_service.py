"""Tests for the always-on ecosystem service.

The headline contract: a bounded service run is *the batch campaign,
re-plumbed* -- same seed, same fault plan, byte-identical dataset
fingerprint, for any client count.  The suites here pin that down,
plus the two-plane metrics split (data plane invariant in ``K``,
traffic plane deterministic at fixed ``K``) and the supervision
behaviour under fault plans.
"""

import json

import pytest

from repro.analysis.streaming import StreamingAnalytics
from repro.crawler.database import SnapshotDatabase
from repro.crawler.scheduler import run_crawl_campaign
from repro.marketplace.profiles import demo_profile
from repro.obs.manifest import RunManifest, strip_wall_clock, write_metrics_jsonl
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.chaos import estimate_crawl_horizon
from repro.resilience.faults import FaultKind, named_plan
from repro.resilience.retry import RetryPolicy
from repro.service import EcosystemService
from tests.properties.test_streaming_properties import batch_gauges

SEED = 20260808
DAYS = 3


def small_profile(crawl_days=DAYS):
    return demo_profile(
        initial_apps=60,
        new_apps_per_day=1.0,
        crawl_days=crawl_days,
        warmup_days=2,
        daily_downloads=400.0,
        n_users=60,
        n_categories=5,
        comment_probability=0.2,
    )


def service_plan(name, profile, n_clients, seed=SEED):
    horizon = estimate_crawl_horizon(
        profile, requests_per_second=8.0 * n_clients
    )
    return named_plan(name, seed=seed, horizon=horizon)


def run_service(n_clients, plan=None, seed=SEED, **kwargs):
    """One bounded run under a fresh traffic registry.

    Returns ``(service, report, traffic_registry)`` -- everything the
    assertions need to cross-check the two metric planes.
    """
    with use_registry(MetricsRegistry()) as traffic:
        service = EcosystemService(
            small_profile(),
            seed=seed,
            n_clients=n_clients,
            fault_plan=plan,
            **kwargs,
        )
        report = service.run()
    return service, report, traffic


@pytest.fixture(scope="module")
def batch():
    """The batch campaign the service must reproduce byte for byte."""
    with use_registry(MetricsRegistry()):
        return run_crawl_campaign(small_profile(), seed=SEED)


class TestBatchParity:
    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_fingerprint_matches_batch(self, batch, n_clients):
        _, report, _ = run_service(n_clients)
        assert report.fingerprint == batch.database.fingerprint()
        assert report.first_crawl_day == batch.first_crawl_day
        assert report.last_crawl_day == batch.last_crawl_day
        assert report.days_crawled == DAYS

    def test_database_contents_match_batch(self, batch):
        service, _, _ = run_service(2)
        store = service.store.name
        assert service.database.days(store) == batch.database.days(store)
        last = batch.last_crawl_day
        batch_vector = batch.database.download_vector(store, last)
        live_vector = service.database.download_vector(store, last)
        assert (batch_vector == live_vector).all()

    def test_report_counts_the_rows_the_logs_kept(self):
        """Comments re-fetched on later days are not counted again."""
        service, report, traffic = run_service(2)
        store = service.store.name
        assert report.comments_ingested == service.database.n_comments(store) > 0
        assert report.comments_ingested == int(
            traffic.counter("store.rows_ingested.comments").value
        )
        assert report.apks_archived == len(service.database.columnar.apk_log(store))

    def test_clients_count_the_apks_and_comments_their_visits_kept(self):
        _, report, _ = run_service(3)
        stats = list(report.client_stats.values())
        assert sum(s.apks_fetched for s in stats) == report.apks_archived > 0
        assert (
            sum(s.comments_fetched for s in stats) == report.comments_ingested > 0
        )
        # Every client's visits kept some rows, not one client all of them.
        assert all(s.apks_fetched > 0 and s.comments_fetched > 0 for s in stats)

    def test_one_client_counts_as_the_batch_crawler(self, batch):
        _, report, _ = run_service(1)
        (stats,) = report.client_stats.values()
        assert stats.apks_fetched == batch.crawler.stats.apks_fetched > 0
        assert stats.comments_fetched == batch.crawler.stats.comments_fetched > 0

    def test_data_plane_is_invariant_in_client_count(self):
        snapshots = []
        for n_clients in (1, 2, 4):
            service, _, _ = run_service(n_clients)
            snapshots.append(
                json.dumps(service.data_metrics.snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]


class TestDeterminism:
    def test_repeat_runs_are_identical_end_to_end(self):
        first = run_service(3)
        second = run_service(3)
        assert first[1].fingerprint == second[1].fingerprint
        # Both metric planes, byte for byte (the traffic plane may vary
        # with the client count, never with the run).
        assert json.dumps(
            first[0].data_metrics.snapshot(), sort_keys=True
        ) == json.dumps(second[0].data_metrics.snapshot(), sort_keys=True)
        assert json.dumps(
            first[2].snapshot(), sort_keys=True
        ) == json.dumps(second[2].snapshot(), sort_keys=True)

    def test_metrics_jsonl_bytes_stable_across_runs_and_clients(self, tmp_path):
        """The exported data-plane sidecar is byte-identical across
        repeat runs *and* across client counts once the wall-clock
        record is stripped (the manifest deliberately omits ``clients``)."""
        texts = []
        for label, n_clients in (("a", 2), ("b", 2), ("c", 5)):
            service, _, _ = run_service(n_clients)
            path = tmp_path / f"data-{label}.jsonl"
            manifest = RunManifest(
                command="serve",
                seed=SEED,
                params={"store": service.store.name, "days": DAYS},
            )
            write_metrics_jsonl(path, service.data_metrics, manifest)
            texts.append(strip_wall_clock(path.read_text(encoding="utf-8")))
        assert texts[0] == texts[1] == texts[2]

    def test_incremental_serving_accumulates_to_the_same_dataset(self, batch):
        """Serving 2 days and then 1 more equals serving 3: the second
        ``run()`` continues the first one's clock."""
        with use_registry(MetricsRegistry()):
            service = EcosystemService(small_profile(), seed=SEED, n_clients=2)
            first = service.run(days=2)
            report = service.run(days=1)
        assert first.days_crawled == 2
        assert report.days_crawled == DAYS
        assert report.fingerprint == batch.database.fingerprint()


class TestUnderFaults:
    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_faults_are_absorbed_without_touching_the_data(
        self, batch, n_clients
    ):
        profile = small_profile()
        plan = service_plan("aggressive", profile, n_clients)
        service, report, traffic = run_service(
            n_clients, plan=plan, max_worker_restarts=10
        )
        assert report.fingerprint == batch.database.fingerprint()
        # The chaos left marks on the traffic plane...
        counters = traffic.snapshot()["counters"]
        fired = service.fault_injector.fired_counts()
        assert sum(fired.values()) > 0
        for kind, count in sorted(fired.items(), key=lambda kv: kv[0].value):
            if count:
                assert counters[f"faults.injected.{kind.value}"] == count
        # ...and every worker crash is visible in both accountings.
        crashes = fired[FaultKind.WORKER_CRASH]
        assert service.worker_restarts == crashes
        assert report.worker_restarts == crashes
        assert counters.get("service.worker_restarts", 0) == crashes

    def test_fault_runs_repeat_identically(self):
        profile = small_profile()
        plan = service_plan("mild", profile, 2)
        first = run_service(2, plan=plan)
        second = run_service(2, plan=plan)
        assert first[1].fingerprint == second[1].fingerprint
        assert json.dumps(first[2].snapshot(), sort_keys=True) == json.dumps(
            second[2].snapshot(), sort_keys=True
        )


def streaming_gauges(service):
    """The ``streaming.*`` gauges of a service's data plane."""
    gauges = service.data_metrics.snapshot()["gauges"]
    return {key: value for key, value in gauges.items() if key.startswith("streaming.")}


class TestStreamingAnalytics:
    def test_final_tick_matches_batch_analysis_exactly(self):
        """On the last day the served gauges ARE the batch analyses of
        the committed download column."""
        service, report, _ = run_service(2)
        store = service.store.name
        gauges = streaming_gauges(service)
        assert gauges == batch_gauges(service.database, store, report.last_crawl_day)
        assert "streaming.zipf_slope" in gauges
        assert gauges["streaming.apps_tracked"] == float(len(service.database.app_ids(store)))
        assert gauges["streaming.snapshots_seen"] == float(report.snapshots_committed)

    def test_gauges_from_a_saved_or_packed_copy_equal_the_live_ones(self, tmp_path):
        """A JSONL round trip and a packed copy of a served database give
        back the live gauges: the gauges need no state beyond the data."""
        service, report, _ = run_service(2)
        live = streaming_gauges(service)
        service.database.save(tmp_path / "served.jsonl")
        service.database.pack(tmp_path / "served.cstore")
        for path in (tmp_path / "served.jsonl", tmp_path / "served.cstore"):
            copy = SnapshotDatabase.load(path)
            metrics = MetricsRegistry()
            StreamingAnalytics(service.store.name).export(
                copy, report.last_crawl_day, metrics
            )
            assert metrics.snapshot()["gauges"] == live

    def test_quantile_gauges_are_exported_and_ordered(self):
        service, _, _ = run_service(1)
        gauges = service.data_metrics.snapshot()["gauges"]
        p50 = gauges["streaming.downloads_p50"]
        p90 = gauges["streaming.downloads_p90"]
        p99 = gauges["streaming.downloads_p99"]
        assert p50 <= p90 <= p99


class TestSupervision:
    def test_report_before_any_day_is_an_error(self):
        with use_registry(MetricsRegistry()):
            service = EcosystemService(small_profile(), seed=SEED, n_clients=1)
            with pytest.raises(RuntimeError):
                service.report()

    def test_client_count_is_validated(self):
        with pytest.raises(ValueError):
            EcosystemService(small_profile(), seed=SEED, n_clients=0)

    def test_zero_days_is_rejected(self):
        with use_registry(MetricsRegistry()):
            service = EcosystemService(small_profile(), seed=SEED, n_clients=1)
            with pytest.raises(ValueError):
                service.run(days=0)

    def test_queue_is_bounded_by_the_listing(self):
        service, _, _ = run_service(3)
        assert 0 < service.peak_queue_depth
        assert service.peak_queue_depth <= len(service.store.listed_app_ids())

    def test_every_client_pulls_its_weight(self):
        """With several clients and a real listing, no client idles: the
        shared work queue spreads apps across the whole fleet."""
        _, report, _ = run_service(3)
        for stats in report.client_stats.values():
            assert stats.apps_crawled > 0


@pytest.mark.slow
class TestSoak:
    def test_hundreds_of_ticks_under_aggressive_faults(self):
        """The long-haul invariants: no unbounded queues, restart
        accounting consistent with the plan, and the analytics still
        exactly batch-equal at the end.
        """
        profile = demo_profile(
            initial_apps=40,
            new_apps_per_day=0.5,
            crawl_days=200,
            warmup_days=2,
            daily_downloads=250.0,
            n_users=50,
            n_categories=5,
            comment_probability=0.1,
        )
        plan = named_plan(
            "aggressive",
            seed=77,
            horizon=estimate_crawl_horizon(profile, requests_per_second=24.0),
        )
        with use_registry(MetricsRegistry()) as traffic:
            service = EcosystemService(
                profile,
                seed=5,
                n_clients=3,
                fault_plan=plan,
                # Dense plans punish the default policy's 30s backoff cap:
                # a day's last straggler request then consumes pending
                # transients slower than the plan schedules them and can
                # never escape.  A short cap keeps the consumption rate
                # above the arrival rate; more attempts absorb clusters.
                # Neither knob can affect the data plane.
                retry_policy=RetryPolicy(max_attempts=12, cap_delay=2.0),
                max_worker_restarts=20,
            )
            report = service.run()

        assert report.days_crawled == 200
        assert report.snapshots_committed > 0
        assert service.peak_queue_depth <= len(service.store.listed_app_ids())

        fired = service.fault_injector.fired_counts()
        assert sum(fired.values()) > 0
        counters = traffic.snapshot()["counters"]
        for kind, count in sorted(fired.items(), key=lambda kv: kv[0].value):
            if count:
                assert counters[f"faults.injected.{kind.value}"] == count
        assert report.worker_restarts == fired[FaultKind.WORKER_CRASH]

        gauges = streaming_gauges(service)
        assert gauges == batch_gauges(
            service.database, service.store.name, report.last_crawl_day
        )
        assert "streaming.zipf_slope" in gauges


class TestSegmentAnalytics:
    """Per-persona-segment gauges ride the deterministic data plane."""

    def _run_segmented(self, n_clients, seed=SEED):
        from repro.marketplace.segments import segmented_profile

        profile = segmented_profile(small_profile(), seed=7)
        with use_registry(MetricsRegistry()):
            service = EcosystemService(
                profile, seed=seed, n_clients=n_clients
            )
            report = service.run()
        return service, report

    def test_segment_gauges_match_store_matrix(self):
        service, _ = self._run_segmented(2)
        assert service.store.segments is not None
        matrix = service.store.segment_download_counts()
        gauges = service.data_metrics.snapshot()["gauges"]
        names = service.store.segments.names
        total = float(matrix.sum())
        for index, name in enumerate(names):
            downloads = gauges[f"streaming.segment.{name}.downloads"]
            assert downloads == float(matrix[index].sum())
            assert gauges[f"streaming.segment.{name}.share"] == (
                downloads / total
            )
        shares = [gauges[f"streaming.segment.{n}.share"] for n in names]
        assert sum(shares) == pytest.approx(1.0)

    def test_segment_gauges_are_client_count_invariant(self):
        a, _ = self._run_segmented(1)
        b, _ = self._run_segmented(3)
        ga = a.data_metrics.snapshot()["gauges"]
        gb = b.data_metrics.snapshot()["gauges"]
        segment_keys = {k for k in ga if k.startswith("streaming.segment.")}
        assert segment_keys
        assert segment_keys == {
            k for k in gb if k.startswith("streaming.segment.")
        }
        for key in sorted(segment_keys):
            assert ga[key] == gb[key]

    def test_unsegmented_profile_exports_no_segment_gauges(self):
        service, _, _ = run_service(1)
        assert service.store.segments is None
        gauges = service.data_metrics.snapshot()["gauges"]
        assert not any(k.startswith("streaming.segment.") for k in gauges)
