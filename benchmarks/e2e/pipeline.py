"""One repeat of one end-to-end workload, run in a fresh process.

``python benchmarks/e2e/pipeline.py '<task json>'`` (with ``src`` on
``PYTHONPATH``) runs the task and prints one JSON object as its last
line.  ``run.py`` is the only intended caller: it starts every repeat in
a new interpreter so each one pays its own imports, allocator warm-up
and page faults, and so ``VmHWM`` is that repeat's own peak.

Task kinds:

- ``repeat``: build the workload's inputs from the seed, time the
  pipeline (setup, then the rest), then run the untimed output checks;
- ``prep``: crawl and pack the dataset ``report-slideme`` reads.

Only the profile and the seed reach the program.  A timed repeat reads
``perf_counter`` at the entry of a few stable entry points
(:func:`_install_marks`) and times a fixed probe at every few of them;
the reads cut it into intervals, and the probes tell how fast the host
ran meanwhile (:class:`tracer.Marks`).  A traced repeat installs
:class:`tracer.Tracer` instead.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import traceback
from importlib import import_module
from time import perf_counter
from typing import Dict

from repro.analysis.report import full_report
from repro.analysis.streaming import StreamingAnalytics
from repro.crawler.crawler import StoreCrawler
from repro.crawler.database import SnapshotDatabase
from repro.crawler.proxies import ProxyPool
from repro.crawler.scheduler import run_crawl_campaign
from repro.crawler.webapi import StoreWebApi
from repro.marketplace.ads import AdEcosystem
from repro.marketplace.behavior import DownloadBehavior
from repro.marketplace.profiles import demo_profile, paper_profile, scaled_profile
from repro.marketplace.store import AppStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.chaos import estimate_crawl_horizon
from repro.resilience.faults import FaultKind, named_plan
from repro.service import EcosystemService
from tracer import Marks, Tracer

CAMPAIGN, SERVE, REPORT = "campaign-anzhi", "serve-1mobile", "report-slideme"
WORKLOADS = (CAMPAIGN, SERVE, REPORT)

# Scaled paper profiles.  The sizes keep one repeat at a few seconds on
# a 2-core host so a measured run holds several repeats, while each
# workload stays dominated by the layer it was chosen for (README.md).
# Users and downloads are set so that cost barely depends on the seed:
# with fewer users the Pareto activity tail (spam accounts at 50x) lets
# one user saturate the catalog, and sparse SlideMe downloads make the
# report's fits slower on some seeds than on others.
_SCALES = {
    CAMPAIGN: ("anzhi", dict(app_scale=0.04, download_scale=6e-4,
                             user_scale=1e-2, day_scale=0.05)),
    SERVE: ("1mobile", dict(app_scale=0.035, download_scale=5e-4,
                            user_scale=2e-3, day_scale=0.04)),
    REPORT: ("slideme", dict(app_scale=0.05, download_scale=3e-3,
                             user_scale=2e-3, day_scale=0.1)),
}
SERVE_CLIENTS = 4
SERVE_RPS = 8.0
# The report's set-up, a load of the packed dataset, takes a few
# milliseconds: too short to average out the host's speed, which changes
# from millisecond to millisecond.  A repeat loads it LOADS times, and
# its set-up time is the mean load.
LOADS = 9
# Marks keep the intervals of a timed repeat a few milliseconds long:
# a store build samples one APK's libraries per app, a store day draws
# one download per event, and a crawl fetches one page and writes one
# snapshot per listed app and day; every STRIDE-th of each is marked.
STRIDE = {"sample_libraries": 32, "download": 64, "app_page": 32, "add_snapshot": 64}

# Every function full_report calls, by the module it imports it from.
ANALYSES = (
    ("repro.crawler.quality", "assess_crawl_quality"),
    ("repro.analysis.dataset", "dataset_summary"),
    ("repro.analysis.growth", "growth_series"),
    ("repro.analysis.growth", "new_vs_catalog_share"),
    ("repro.analysis.popularity", "popularity_report"),
    ("repro.analysis.updates", "update_distribution"),
    ("repro.analysis.spam", "detect_spam_users"),
    ("repro.analysis.comments", "comment_behavior_report"),
    ("repro.analysis.affinity_study", "affinity_study"),
    ("repro.analysis.model_validation", "fit_store_day"),
    ("repro.analysis.pricing_study", "free_paid_split"),
    ("repro.analysis.pricing_study", "price_correlations"),
    ("repro.analysis.income", "income_report"),
    ("repro.analysis.strategies", "developer_strategy_report"),
    ("repro.analysis.adlib", "scan_store_for_ads"),
    ("repro.analysis.strategies", "break_even_report"),
    ("repro.core.prediction", "forecast_downloads"),
    ("repro.core.prediction", "find_problematic_apps"),
)
FAULT_KINDS = (
    FaultKind.TRANSIENT_ERROR, FaultKind.PROXY_DEATH, FaultKind.CORRUPT_SNAPSHOT,
)
# Report sections skipped for lack of data rather than by an error.
_BENIGN_SKIPS = ("no comments were crawled", "the store has no paid apps")
_HEADING = re.compile(r"^=+\n(.+)\n=+$", re.MULTILINE)


def profile_for(workload: str, smoke: bool):
    """The store profile a workload runs (``smoke``: a demo-sized one)."""
    if smoke:
        paid = 0.25 if workload == REPORT else 0.0
        return demo_profile(name=f"demo-{workload.split('-')[0]}",
                            paid_fraction=paid)
    store, scales = _SCALES[workload]
    return scaled_profile(paper_profile(store), **scales)


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _crawl_attempts(store, first_day: int, last_day: int) -> int:
    """App observations the crawls attempted: the listing of every day in
    the driver's crawl range, committed or not (a crawl reads the store
    the morning after the day it observes)."""
    return sum(
        len(store.listed_app_ids(day + 1)) for day in range(first_day, last_day + 1)
    )


def _report_sections(text: str):
    """(attempted, failed): headed sections, and those skipped by an error."""
    bodies = _HEADING.split(text)[2::2]
    failed = sum(
        1 for body in bodies
        if "(skipped:" in body and not any(b in body for b in _BENIGN_SKIPS)
    )
    return len(bodies), failed


def _install_marks(marks: Marks, workload: str) -> None:
    """Cut a timed repeat at stable entry points: each report section and
    each model curve the report's grid fits evaluate, or each store day
    and every ``STRIDE``-th call of the store build, store tick and crawl
    entry points.  A day runs from its ``advance_day`` through the crawl
    that observes it (the batch ``crawl_day``, or the service ``tick``,
    which advances the day itself); warm-up days are ``advance_day``
    alone."""
    if workload == REPORT:
        for module, name in ANALYSES:
            marks.at(import_module(module), name, name)
        for module in ("repro.core.fitting", "repro.core.prediction"):
            marks.at(import_module(module), "expected_download_curve_corrected",
                     "expected_curve")
        return
    marks.at(AdEcosystem, "sample_libraries", "setup", every=STRIDE["sample_libraries"])
    marks.at(AppStore, "advance_day", "advance_day", day=lambda args: args[0].day)
    marks.at(DownloadBehavior, "next_download", "download", every=STRIDE["download"])
    marks.at(StoreWebApi, "app_page", "app_page", every=STRIDE["app_page"])
    marks.at(SnapshotDatabase, "add_snapshot", "add_snapshot",
             every=STRIDE["add_snapshot"])
    if workload == CAMPAIGN:
        marks.at(StoreCrawler, "crawl_day", "crawl_day", day=lambda args: args[1])
    else:
        marks.at(EcosystemService, "tick", "tick", day=lambda args: args[0].store.day)


def _install_tracer(tracer: Tracer) -> None:
    for module in ("repro.crawler.scheduler", "repro.service.service"):
        tracer.span(import_module(module), "build_store", "build_store")
    tracer.span(AppStore, "advance_day", "advance_day")
    tracer.count(DownloadBehavior, "next_download", "next_download")
    tracer.span(StoreCrawler, "crawl_day", "crawl_day")
    tracer.span(ProxyPool, "pick", "proxy_pick", record=False)
    for endpoint in ("n_pages", "list_page", "app_page", "app_comments",
                     "download_apk"):
        tracer.span(StoreWebApi, endpoint, "webapi", record=False)
    tracer.span(SnapshotDatabase, "add_snapshot", "add_snapshot", record=False)
    tracer.span(SnapshotDatabase, "add_comments", "add_comments", record=False,
                units=lambda args: len(args[2]))
    tracer.span(SnapshotDatabase, "add_apk", "add_apk", record=False)
    tracer.span(SnapshotDatabase, "latest_apk_per_app", "latest_apk_per_app")
    tracer.span(SnapshotDatabase, "load", "load")
    tracer.span(SnapshotDatabase, "fingerprint", "fingerprint")
    tracer.span(EcosystemService, "tick", "tick")
    for method in ("observe_snapshot", "export"):
        tracer.span(StreamingAnalytics, method, "streaming", record=False)
    for module, name in ANALYSES:
        tracer.span(import_module(module), name, name)
    for module in ("repro.core.fitting", "repro.core.prediction"):
        tracer.span(import_module(module), "fit_model", "fit_model")
        tracer.count(import_module(module), "expected_download_curve_corrected",
                     "expected_curve")


def _run_campaign(profile, seed: int, marks: Marks):
    """The campaign; its ``build_store`` call is the set-up."""

    def marked_build(function):
        def build(*args, **kwargs):
            marks.mark("setup")
            generated = function(*args, **kwargs)
            marks.mark("wall")
            return generated
        return build

    marks.wrap(import_module("repro.crawler.scheduler"), "build_store", marked_build)
    marks.mark("wall")
    campaign = run_crawl_campaign(profile, seed=seed, fetch_comments=True)
    marks.mark("end")
    return campaign


def _run_serve(profile, seed: int, marks: Marks):
    horizon = estimate_crawl_horizon(
        profile, requests_per_second=SERVE_RPS * SERVE_CLIENTS
    )
    plan = named_plan("mild", seed=seed, horizon=horizon)
    marks.mark("setup")
    service = EcosystemService(profile, seed=seed, n_clients=SERVE_CLIENTS,
                               fault_plan=plan, requests_per_second=SERVE_RPS)
    marks.mark("wall")
    service.run()
    marks.mark("end")
    return service


def _pipeline(task: dict, registry: MetricsRegistry, marks: Marks) -> dict:
    """Run the workload between ``setup``, ``wall`` and ``end`` marks,
    then its untimed checks."""
    workload, seed = task["workload"], int(task["seed"])
    profile = profile_for(workload, task.get("smoke", False))
    out: Dict[str, object] = {}
    if workload == REPORT:
        for _ in range(LOADS):
            marks.mark("setup")
            database = SnapshotDatabase.load(task["dataset"])
        marks.mark("wall")
        text = full_report(database, profile.name)
        marks.mark("end")
        peak = _peak_rss_mb()
        attempted, failed = _report_sections(text)
        snapshots = database.columnar.n_snapshot_rows()
        out.update(work=snapshots, checks={
            "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "fingerprint": database.fingerprint(),
        }, inputs={**task["prep"]["inputs"], "snapshots": snapshots})
    else:
        if workload == CAMPAIGN:
            driver = _run_campaign(profile, seed, marks)
            store, database, service = driver.generated.store, driver.database, None
        else:
            driver = service = _run_serve(profile, seed, marks)
            store, database = service.store, service.database
        peak = _peak_rss_mb()
        activity = store.daily_activity()
        downloads = sum(day.downloads for day in activity)
        snapshots = database.columnar.n_snapshot_rows()
        attempted = _crawl_attempts(store, driver.first_crawl_day,
                                    driver.last_crawl_day)
        failed = attempted - snapshots
        out.update(
            work=downloads if workload == CAMPAIGN else snapshots,
            checks={"fingerprint": database.fingerprint()},
            inputs={
                "downloads": downloads,
                "updates": sum(day.updates for day in activity),
                "snapshots": snapshots,
                "apps": store.n_apps,
                "users": store.n_users,
                "days": len(activity),
                "requests": registry.counter("crawler.requests").value,
            },
            service={"peak_queue_depth": service.peak_queue_depth,
                     "worker_restarts": service.worker_restarts}
            if service is not None else {},
        )
    out.update(peak_rss_mb=peak, attempted=attempted, failed=failed,
               counts=registry.snapshot()["counters"])
    return out


def _batch_fingerprint(task: dict) -> str:
    """The fault-free batch campaign's fingerprint for the serve check."""
    profile = profile_for(task["workload"], task.get("smoke", False))
    with use_registry(MetricsRegistry()):
        batch = run_crawl_campaign(profile, seed=int(task["seed"]), fetch_comments=True)
    return batch.database.fingerprint()


def per_layer(tracer: Tracer, result: dict, prep: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat (names as in BENCHMARK.json)."""
    t = tracer
    inputs = result["inputs"]
    counts = result["counts"]
    downloads = inputs.get("downloads", 0) if t.calls("advance_day") else 0
    draws = t.calls("next_download")
    requests = counts.get("crawler.requests", 0)
    retries = counts.get("crawler.retries", 0)
    service = result.get("service", {})
    metrics = {
        "marketplace.build_store_s": t.total_s("build_store"),
        "marketplace.advance_day_s": t.total_s("advance_day"),
        "marketplace.advance_day_calls": t.calls("advance_day"),
        "marketplace.downloads": downloads,
        "marketplace.updates": inputs.get("updates", 0),
        "marketplace.next_download_calls": draws,
        "marketplace.accept_ratio": downloads / draws if draws else 0.0,
        "crawler.crawl_day_s": t.total_s("crawl_day"),
        "crawler.crawl_day_self_s": t.self_s("crawl_day"),
        "crawler.proxy_pick_s": t.total_s("proxy_pick"),
        "crawler.proxy_pick_calls": t.calls("proxy_pick"),
        "crawler.webapi_s": t.total_s("webapi"),
        "crawler.webapi_calls": t.calls("webapi"),
        "crawler.requests": requests,
        "crawler.retries": retries,
        "crawler.first_try_ratio":
            requests / (requests + retries) if requests else 0.0,
        "store.add_snapshot_s": t.total_s("add_snapshot"),
        "store.add_snapshot_calls": t.calls("add_snapshot"),
        "store.add_comments_s": t.total_s("add_comments"),
        "store.comments_ingested": t.units("add_comments"),
        "store.add_apk_s": t.total_s("add_apk"),
        "store.latest_apk_per_app_s": t.total_s("latest_apk_per_app"),
        "store.load_s": t.total_s("load"),
        "store.pack_s": prep.get("pack_s", 0.0),
        "store.bytes_on_disk": prep.get("bytes_on_disk", 0),
        "store.fingerprint_s": t.total_s("fingerprint"),
        "store.chunks_sealed": counts.get("store.chunks_sealed", 0),
        "service.tick_s": t.total_s("tick"),
        "service.tick_self_s": t.self_s("tick"),
        "service.streaming_s": t.total_s("streaming"),
        "service.peak_queue_depth": service.get("peak_queue_depth", 0),
        "service.worker_restarts": service.get("worker_restarts", 0),
        "core.fit_model_calls": t.calls("fit_model"),
        "core.fit_model_s": t.total_s("fit_model"),
        "core.expected_curve_calls": t.calls("expected_curve"),
        "trace.wall_s": result["wall_s"],
    }
    for table in ("snapshots", "comments", "apks"):
        name = f"store.rows_ingested.{table}"
        metrics[name] = counts.get(name, 0)
    for kind in FAULT_KINDS:
        name = f"faults.injected.{kind.value}"
        metrics[name] = counts.get(name, 0)
    for _, function in ANALYSES:
        metrics[f"analysis.{function}_s"] = t.total_s(function)
    return metrics


def run_repeat(task: dict) -> dict:
    """Run one repeat of ``task['workload']``; see the module docstring."""
    traced = bool(task.get("traced"))
    marks = Tracer() if traced else Marks()
    with use_registry(MetricsRegistry()) as registry, marks:
        if traced:
            _install_tracer(marks)
        else:
            _install_marks(marks, task["workload"])
        result = _pipeline(task, registry, marks)
    # Every patch is removed before the batch check, so none of its work
    # reaches the marks or the spans.
    if task.get("verify_batch"):
        result["checks"]["batch_fingerprint"] = _batch_fingerprint(task)
    intervals = marks.intervals()
    result["intervals"] = intervals
    setups = LOADS if task["workload"] == REPORT else 1
    result["setup_s"] = sum(s for label, _, s in intervals if label == "setup") / setups
    result["wall_s"] = sum(s for label, _, s in intervals if label != "setup")
    result["setup_slowdown"] = marks.slowdown(setup=True)
    result["slowdown"] = marks.slowdown(setup=False)
    if traced:
        result["layers"] = marks.layers()
        result["spans"] = marks.spans
        result["per_layer"] = per_layer(marks, result, task.get("prep", {}))
    return result


def run_prep(task: dict) -> dict:
    """Crawl the report workload's store and pack it to ``task['dataset']``."""
    profile = profile_for(task["workload"], task.get("smoke", False))
    seed = int(task["seed"])
    with use_registry(MetricsRegistry()) as registry:
        campaign = run_crawl_campaign(profile, seed=seed, fetch_comments=True)
        start = perf_counter()
        bytes_on_disk = campaign.database.pack(task["dataset"])
        pack_s = perf_counter() - start
    store = campaign.generated.store
    activity = store.daily_activity()
    return {
        "fingerprint": campaign.database.fingerprint(),
        "pack_s": pack_s,
        "bytes_on_disk": bytes_on_disk,
        "inputs": {
            "downloads": sum(day.downloads for day in activity),
            "apps": store.n_apps,
            "users": store.n_users,
            "days": len(activity),
            "requests": registry.counter("crawler.requests").value,
        },
    }


def main(argv) -> int:
    task = json.loads(argv[1])
    try:
        result = run_prep(task) if task["kind"] == "prep" else run_repeat(task)
    except Exception:  # reported to the parent, which fails the run
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=1).strip()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
