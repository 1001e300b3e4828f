"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the two
smoke runs take about a minute together.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pipeline
import run
import tracer

RUN = Path(run.__file__)
SPEC = run.load_spec()
COUNT_UNITS = ("count", "bytes")


def _smoke(tmp_path: Path, name: str):
    out = tmp_path / f"{name}.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    trace = json.loads(out.with_name(f"{name}.trace.json").read_text())
    return record, trace, elapsed


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("smoke"), "first")


def test_smoke_run_emits_every_metric_with_its_unit(smoke):
    record, _, elapsed = smoke
    print(f"smoke run: {elapsed:.1f} s")
    assert set(record["workloads"]) == set(run.WORKLOADS)
    assert record["header"]["host"]["cores"] >= 1
    for entry in record["workloads"].values():
        assert all(entry["checks"].values()), entry["checks"]
        assert entry["failed"] == 0 and entry["attempted"] > 0
        for metric in SPEC["end_to_end"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert "trace_overhead_s" in entry


def test_trace_self_times_fit_inside_their_parents(smoke):
    _, trace, _ = smoke
    assert trace
    for span in trace:
        duration = span["end"] - span["start"]
        assert 0.0 <= span["self_s"] <= duration
        if span["parent"] is not None:
            parent = trace[span["parent"]]
            assert (parent["workload"], parent["repeat"]) == (
                span["workload"], span["repeat"])
            assert duration <= parent["end"] - parent["start"]


def test_counts_repeat_across_smoke_runs(smoke, tmp_path):
    first, _, _ = smoke
    second, _, _ = _smoke(tmp_path, "second")
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    for workload in run.WORKLOADS:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        assert a["inputs"] == b["inputs"]
        for name in counted:
            assert a["per_layer"][name]["values"] == b["per_layer"][name]["values"], name


def test_corrected_divides_each_phase_by_its_own_slowdown():
    result = {"intervals": [["wall", None, 0.1], ["setup", None, 0.5],
                            ["advance_day", 3, 2.0], ["crawl_day", 3, 1.0],
                            ["advance_day", 4, 1.0]],
              "setup_s": 0.5, "wall_s": 4.1, "setup_slowdown": 1.25, "slowdown": 2.0}
    times = run.corrected(result)
    assert times["setup_s"] == pytest.approx(0.4)
    assert times["wall_s"] == pytest.approx(2.05)
    assert times["days_ms"] == [pytest.approx(1500.0), pytest.approx(500.0)]


class _Entry:
    def call(self):
        return 1


def test_marks_keep_probes_out_of_the_intervals(monkeypatch):
    def slow_probe():
        time.sleep(0.05)
        return 0.05

    monkeypatch.setattr(tracer, "probe", slow_probe)
    with tracer.Marks() as marks:
        marks.at(_Entry, "call", "call")
        marks.at(_Entry, "gone", "gone")  # an entry point the program lacks
        marks.mark("setup")
        for _ in range(2 * tracer.PROBE_EVERY):
            _Entry().call()
        marks.mark("wall")
        marks.mark("end")
    assert _Entry.call(_Entry()) == 1 and not hasattr(_Entry, "gone")
    assert len(marks.intervals()) == 2 * tracer.PROBE_EVERY + 2
    assert all(seconds < 0.05 for *_, seconds in marks.intervals())
    # Every phase mark probes, and every PROBE_EVERY-th mark.
    assert [label for label, _ in marks.probes] == ["setup", "call", "call", "wall", "end"]
    assert marks.slowdown(setup=True) == pytest.approx(0.05 / tracer.PROBE_REFERENCE_S)


def test_batch_check_leaves_the_serve_intervals_alone():
    task = {"kind": "repeat", "workload": "serve-1mobile", "seed": 0, "smoke": True}
    checked = pipeline.run_repeat(dict(task, verify_batch=True))
    plain = pipeline.run_repeat(task)
    assert checked["checks"]["batch_fingerprint"] == checked["checks"]["fingerprint"]
    shapes = [[[label, day] for label, day, _ in r["intervals"]] for r in (checked, plain)]
    assert shapes[0] == shapes[1]
    days = [run.corrected(r)["days_ms"] for r in (checked, plain)]
    assert len(days[0]) == len(days[1]) > 0
    for a, b in zip(*days):
        assert 0.1 < a / b < 10


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_mode_prints_the_summary_line(trace, section):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "campaign-anzhi", "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(RUN.parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "campaign-anzhi",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare ----------------------------------------------------------------


def _metric(median: float, unit: str, spread: float = 0.02) -> dict:
    values = [median * (1 - spread), median, median * (1 + spread)]
    return run._summary(values, unit)


def _record(wall: float, layers: dict) -> dict:
    metrics = {m["name"]: _metric(1.0, m["unit"]) for m in SPEC["end_to_end"]}
    metrics["wall_s"] = _metric(wall, "s")
    metrics["throughput_per_s"] = _metric(1000.0 / wall, "1/s")
    return {"workloads": {"campaign-anzhi": {
        "metrics": metrics,
        "layers": {name: {"calls": 1, "total_s": s, "self_s": s}
                   for name, s in layers.items()},
    }}}


BASE_LAYERS = {"advance_day": 7.0, "crawl_day": 2.0, "add_snapshot": 0.5,
               "build_store": 0.5}


def test_compare_names_the_layer_that_slowed():
    # A 20% rise in one layer cannot cross BENCHMARK.json's time bounds
    # (README.md, "Noise on a shared host"); the verdict logic is checked
    # at a 10% bound.
    spec = copy.deepcopy(SPEC)
    for metric in spec["end_to_end"]:
        metric["bound"] = 0.1
    slowed = dict(BASE_LAYERS, advance_day=BASE_LAYERS["advance_day"] * 1.2)
    base = _record(sum(BASE_LAYERS.values()), BASE_LAYERS)
    new = _record(sum(slowed.values()), slowed)
    rows, layers = run.compare(base, new, spec)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    # A 20% slower store tick is 14% more wall time on this workload.
    assert verdicts["wall_s"] == "worse"
    assert verdicts["throughput_per_s"] == "worse"
    assert verdicts["setup_s"] == "unchanged"
    assert layers[0]["layer"] == "advance_day"
    assert layers[0]["delta_s"] == pytest.approx(1.4)


def test_compare_reports_unchanged_within_bounds():
    nudged = {name: s * 1.03 for name, s in BASE_LAYERS.items()}
    base = _record(sum(BASE_LAYERS.values()), BASE_LAYERS)
    new = _record(sum(nudged.values()), nudged)
    rows, _ = run.compare(base, new, SPEC)
    assert {row["verdict"] for row in rows} == {"unchanged"}


def test_compare_calls_a_wide_spread_unresolved():
    base = _record(10.0, BASE_LAYERS)
    new = _record(10.0, BASE_LAYERS)
    new["workloads"]["campaign-anzhi"]["metrics"]["wall_s"] = _metric(10.0, "s", 0.5)
    rows, _ = run.compare(base, new, SPEC)
    assert {row["metric"]: row["verdict"] for row in rows}["wall_s"] == "unresolved"
