"""Tests for the standalone load generator."""

import json

import pytest

from repro.marketplace.profiles import demo_profile
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.faults import FaultKind, named_plan
from repro.service import LoadGenerator


def tiny_profile():
    return demo_profile(
        initial_apps=50,
        new_apps_per_day=0.0,
        crawl_days=2,
        warmup_days=3,
        daily_downloads=200.0,
        n_users=40,
        n_categories=5,
        comment_probability=0.1,
    )


def run_loadgen(**kwargs):
    with use_registry(MetricsRegistry()) as traffic:
        generator = LoadGenerator(tiny_profile(), **kwargs)
        report = generator.run()
    return generator, report, traffic


class TestLoadGenerator:
    def test_budget_is_fully_spent(self):
        _, report, traffic = run_loadgen(
            seed=11, n_clients=3, requests_per_client=20
        )
        assert report.requests_attempted == 60
        assert report.requests_failed == 0
        assert report.requests_ok == 60
        counters = traffic.snapshot()["counters"]
        assert counters["crawler.requests"] == 60

    def test_virtual_pacing_shows_up_in_the_clock(self):
        _, report, _ = run_loadgen(
            seed=11, n_clients=2, requests_per_client=40, requests_per_second=4.0
        )
        # 40 requests at 4/s per client run concurrently: the fleet
        # needs roughly 10 simulated seconds, not roughly zero and not
        # the serial 20.
        assert 5.0 < report.virtual_seconds < 15.0
        assert report.throughput_rps > 0.0

    def test_same_seed_repeats_byte_for_byte(self):
        first = run_loadgen(seed=42, n_clients=3, requests_per_client=25)
        second = run_loadgen(seed=42, n_clients=3, requests_per_client=25)
        assert first[1] == second[1]
        assert json.dumps(first[2].snapshot(), sort_keys=True) == json.dumps(
            second[2].snapshot(), sort_keys=True
        )

    def test_faults_leave_traffic_marks_but_the_budget_completes(self):
        # The horizon matches the run's actual virtual span
        # (requests / rps), so scheduled events really fire.
        plan = named_plan("aggressive", seed=9, horizon=25.0)
        generator, report, traffic = run_loadgen(
            seed=9,
            n_clients=2,
            requests_per_client=100,
            requests_per_second=4.0,
            fault_plan=plan,
        )
        fired = generator.fault_injector.fired_counts()
        assert sum(fired.values()) > 0
        counters = traffic.snapshot()["counters"]
        for kind, count in sorted(fired.items(), key=lambda kv: kv[0].value):
            if count:
                assert counters[f"faults.injected.{kind.value}"] == count
        # Retries absorb the transient chaos and crashed workers are
        # restarted: every budgeted request gets an outcome.
        assert report.requests_attempted == 200
        assert report.worker_crashes == fired[FaultKind.WORKER_CRASH]
        assert report.requests_failed >= report.worker_crashes

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LoadGenerator(tiny_profile(), n_clients=0)
        with pytest.raises(ValueError):
            LoadGenerator(tiny_profile(), requests_per_client=0)

    def test_latency_histogram_is_populated(self):
        _, report, traffic = run_loadgen(
            seed=3, n_clients=2, requests_per_client=10
        )
        histograms = traffic.snapshot()["histograms"]
        latency = histograms["service.request_seconds"]
        assert latency["count"] == report.requests_ok

    def test_a_second_run_loads_the_store_warmed_once(self):
        generator, _, _ = run_loadgen(seed=1, n_clients=2, requests_per_client=10)
        warmup_days = tiny_profile().warmup_days
        assert generator.store.day == warmup_days
        with use_registry(MetricsRegistry()):
            report = generator.run()
        assert generator.store.day == warmup_days
        assert report.requests_ok == 20
