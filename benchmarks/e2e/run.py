"""End-to-end pipeline benchmark: campaign, serve and report workloads.

Record mode (all workloads, ``REPEATS`` repeats each, interleaved
round-robin, then one traced repeat of each; writes a JSON record and
``<out>.trace.json``)::

    python benchmarks/e2e/run.py [--seed 0] [--smoke] [--out PATH]

Single-workload mode (at least ``MIN_REPEATS`` repeats, more while the
next is expected to end within ``--seconds``; the last line of stdout is
a JSON summary with the metrics of ``BENCHMARK.json``: end-to-end ones
with ``--trace 0``, per-layer ones with ``--trace 1``)::

    python benchmarks/e2e/run.py --workload campaign-anzhi --seed 3 --seconds 30 --trace 0

Comparison of two records, metric by metric and layer by layer::

    python benchmarks/e2e/run.py compare BASE.json NEW.json

Each repeat runs in a fresh interpreter (``pipeline.py``) with one BLAS
thread, one at a time.  Its times are divided by the host slowdown its
probes measured (``tracer.Marks``), and a metric is the median over
repeats.  The exit status is non-zero when an output check fails, a
repeat raises, or the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("campaign-anzhi", "serve-1mobile", "report-slideme")
REPORT = "report-slideme"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
REPEATS = 5  # per workload in record mode; 1 with --smoke
MIN_REPEATS = 2  # single-workload mode; 1 with --smoke
RUN_LIMIT_S = 170.0  # a single-workload invocation must end within 180 s


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return env


def _child(task: dict, deadline: Optional[float]) -> dict:
    """Run one pipeline task in a fresh interpreter; returns its JSON."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "pipeline.py"), json.dumps(task)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{task['kind']} timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"{task['kind']} exited with status {proc.returncode}"
    return result


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values: List[float], unit: str, n: Optional[int] = None,
             median: Optional[float] = None) -> dict:
    q1, q3 = _quartiles(values)
    return {
        "median": statistics.median(values) if median is None else median,
        "iqr": q3 - q1,
        "n": len(values) if n is None else n,
        "unit": unit,
        "values": values,
    }


def _p90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def corrected(result: dict) -> dict:
    """A repeat's times at a quiet host's speed: the set-up, and the
    rest, each divided by the slowdown its own probes measured.

    On a shared host, the speed of a CPU changes from millisecond to
    millisecond and, for tens of seconds at a time, runs the whole
    program about 1.5 times slower (README.md, "Host speed").  Returns
    ``setup_s``, ``wall_s`` and ``days_ms`` (per store day).
    """
    slowdown = result["slowdown"]
    days: Dict[int, float] = {}
    for label, day, seconds in result["intervals"]:
        if label != "setup" and day is not None:
            days[day] = days.get(day, 0.0) + seconds
    return {"setup_s": result["setup_s"] / result["setup_slowdown"],
            "wall_s": result["wall_s"] / slowdown,
            "days_ms": [seconds * 1e3 / slowdown for seconds in days.values()]}


class WorkloadRun:
    """The repeats of one workload on one seed, and their checks."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.prep: dict = {}
        self.timed: List[dict] = []
        self.traced: List[dict] = []
        self.dataset: Optional[Path] = None

    def _task(self, kind: str, **extra) -> dict:
        task = {"kind": kind, "workload": self.workload, "seed": self.seed,
                "smoke": self.smoke, **extra}
        if self.dataset is not None:
            task["dataset"] = str(self.dataset)
        return task

    def prepare(self, deadline: Optional[float]) -> None:
        """Untimed input preparation: the report workload's packed dataset."""
        if self.workload != REPORT:
            return
        self.dataset = WORK_DIR / f"{self.workload}-{self.seed}-{os.getpid()}"
        shutil.rmtree(self.dataset, ignore_errors=True)
        self.dataset.parent.mkdir(parents=True, exist_ok=True)
        self.prep = _child(self._task("prep"), deadline)

    def repeat(self, traced: bool, deadline: Optional[float]) -> float:
        """Run one repeat; returns its wall time including process start."""
        start = time.monotonic()
        if self.prep.get("error"):
            result = {"error": "dataset preparation failed"}
        else:
            verify = self.workload == "serve-1mobile" and not (self.timed or self.traced)
            result = _child(self._task("repeat", traced=traced, prep=self.prep,
                                       verify_batch=verify), deadline)
        (self.traced if traced else self.timed).append(result)
        return time.monotonic() - start

    def close(self) -> None:
        if self.dataset is not None:
            shutil.rmtree(self.dataset, ignore_errors=True)

    # -- checks and summaries ------------------------------------------

    def checks(self) -> Dict[str, bool]:
        runs = self.timed + self.traced
        ok = [r for r in runs if "error" not in r]
        checks = {"no_errors": len(ok) == len(runs) and bool(runs)}
        if not ok:
            return checks
        first = ok[0]
        checks["no_failed_operations"] = all(r["failed"] == 0 for r in ok)
        checks["fingerprint_repeats"] = all(
            r["checks"]["fingerprint"] == first["checks"]["fingerprint"] for r in ok)
        checks["counts_repeat"] = all(r["counts"] == first["counts"] for r in ok)
        if self.workload == "serve-1mobile":
            checks["matches_batch"] = any(
                r["checks"].get("batch_fingerprint") == r["checks"]["fingerprint"]
                for r in ok)
        if self.workload == REPORT:
            checks["report_repeats"] = all(
                r["checks"]["report_sha256"] == first["checks"]["report_sha256"]
                for r in ok)
            checks["packed_matches_memory"] = (
                first["checks"]["fingerprint"] == self.prep.get("fingerprint"))
        return checks

    def correct(self) -> bool:
        return all(self.checks().values())

    def operations(self):
        """(attempted, failed) over every repeat; a failed check fails all."""
        runs = self.timed + self.traced
        done = [r["attempted"] for r in runs if "error" not in r]
        unit = max(done) if done else 1
        attempted = sum(r.get("attempted", unit) for r in runs) or 1
        if not self.correct():
            return attempted, attempted
        return attempted, sum(r["failed"] for r in runs)

    def end_to_end(self, spec: dict) -> Dict[str, dict]:
        """Summaries of every end-to-end metric over the timed repeats,
        plus the day-time percentiles, the failed ratio, and the raw wall
        time and slowdown the corrected times come from (record only)."""
        timed = [r for r in self.timed if "error" not in r]
        if not timed:
            return {}
        times = [corrected(r) for r in timed]
        work = timed[0]["work"]
        values = {
            "setup_s": [t["setup_s"] for t in times],
            "wall_s": [t["wall_s"] for t in times],
            "throughput_per_s": [work / t["wall_s"] for t in times],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        }
        out = {m["name"]: _summary(values[m["name"]], m["unit"])
               for m in spec["end_to_end"]}
        days = [ms for t in times for ms in t["days_ms"]]
        if days:
            # Pooled over repeats so the tail has enough samples; the
            # spread is that of the per-repeat percentiles.
            for name, percentile in (("day_p50_ms", statistics.median),
                                     ("day_p90_ms", _p90)):
                out[name] = _summary([percentile(t["days_ms"]) for t in times], "ms",
                                     n=len(days), median=percentile(days))
        out["raw_wall_s"] = _summary([r["wall_s"] for r in timed], "s")
        out["slowdown"] = _summary([r["slowdown"] for r in timed], "x")
        attempted, failed = self.operations()
        out["failed_ratio"] = _summary([failed / attempted], "ratio")
        return out

    def per_layer(self, spec: dict) -> Dict[str, dict]:
        runs = [r for r in self.traced if "error" not in r]
        if not runs:
            return {}
        return {
            metric["name"]: _summary([r["per_layer"][metric["name"]] for r in runs],
                                     metric["unit"])
            for metric in spec["per_layer"]
        }

    def record(self, spec: dict) -> dict:
        timed = [r for r in self.timed if "error" not in r]
        traced = [r for r in self.traced if "error" not in r]
        attempted, failed = self.operations()
        entry = {
            "checks": self.checks(),
            "attempted": attempted,
            "failed": failed,
            "errors": [r["error"] for r in self.timed + self.traced if "error" in r],
            "inputs": timed[0]["inputs"] if timed else {},
            "metrics": self.end_to_end(spec),
        }
        if traced:
            layer = traced[0]["per_layer"]
            if layer["marketplace.next_download_calls"]:
                entry["inputs"] = dict(entry["inputs"], **{
                    "marketplace.accept_ratio": layer["marketplace.accept_ratio"]})
            entry["per_layer"] = self.per_layer(spec)
            entry["layers"] = traced[0]["layers"]
            if "raw_wall_s" in entry["metrics"]:
                entry["trace_overhead_s"] = (
                    traced[0]["wall_s"] - entry["metrics"]["raw_wall_s"]["median"])
        return entry


def header(seed: int, repeats: int, order: List[str], smoke: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "host": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "blas_threads": THREAD_ENV,
        },
        "commit": commit,
        "seed": seed,
        "repeats": repeats,
        "order": order,
        "smoke": smoke,
    }


def _print_table(record: dict) -> None:
    print(f"{'workload':<16} {'metric':<18} {'median':>12} {'IQR':>10} "
          f"{'n':>5}  unit")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<16} {name:<18} {m['median']:>12.4f} "
                  f"{m['iqr']:>10.4f} {m['n']:>5}  {m['unit']}")
        if "trace_overhead_s" in entry:
            print(f"{workload:<16} {'trace overhead':<18} "
                  f"{entry['trace_overhead_s']:>12.4f} {'':>10} {'':>5}  s")
        failed = [name for name, ok in entry["checks"].items() if not ok]
        print(f"{workload:<16} checks: {'FAILED ' + ', '.join(failed) if failed else 'ok'}")


def _write_record(record: dict, runs: List[WorkloadRun], out: Path) -> None:
    """Write the record, and the traced spans to ``<out>.trace.json``."""
    spans: List[dict] = []
    for run in runs:
        for repeat, result in enumerate(run.traced):
            base = len(spans)
            for span in result.get("spans", []):
                parent = span["parent"]
                spans.append(dict(span, workload=run.workload, repeat=repeat,
                                  parent=None if parent is None else base + parent))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    trace = out.with_suffix(".trace.json")
    trace.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(f"wrote {out} and {trace}")


def record_mode(args, spec: dict) -> int:
    """Every workload, ``REPEATS`` interleaved repeats, then a traced pass."""
    runs = [WorkloadRun(w, args.seed, args.smoke) for w in WORKLOADS]
    repeats = 1 if args.smoke else REPEATS
    order = []
    try:
        for run in runs:
            run.prepare(None)
        for _ in range(repeats):
            for run in runs:
                run.repeat(traced=False, deadline=None)
                order.append(run.workload)
        for run in runs:
            run.repeat(traced=True, deadline=None)
            order.append(f"{run.workload} (traced)")
    finally:
        for run in runs:
            run.close()
    record = {
        "header": header(args.seed, repeats, order, args.smoke),
        "workloads": {run.workload: run.record(spec) for run in runs},
    }
    _print_table(record)
    out = Path(args.out) if args.out else RESULTS_DIR / f"e2e-seed{args.seed}.json"
    _write_record(record, runs, out)
    return 0 if all(run.correct() for run in runs) else 1


def workload_mode(args, spec: dict) -> int:
    """One workload: ``MIN_REPEATS`` repeats, then more while the next is
    expected to end within ``--seconds`` of repeats."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run = WorkloadRun(args.workload, args.seed, args.smoke)
    traced = bool(args.trace)
    results = run.traced if traced else run.timed
    least = 1 if args.smoke else MIN_REPEATS
    spent = 0.0
    try:
        run.prepare(deadline)
        while True:
            took = run.repeat(traced, deadline)
            spent += took
            if any("error" in r for r in results):
                break
            if len(results) >= least and spent + took > args.seconds:
                break
            if time.monotonic() + 1.5 * took > deadline:
                break
    finally:
        run.close()
    entry = run.record(spec)
    metrics = entry.get("per_layer" if traced else "metrics", {})
    _print_table({"workloads": {run.workload: dict(entry, metrics=metrics)}})
    wanted = spec["per_layer" if traced else "end_to_end"]
    print(json.dumps({
        "correct": run.correct(),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["median"], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0 if run.correct() else 1


# -- compare ------------------------------------------------------------------


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """better / unchanged / worse, or unresolved when the spread exceeds the
    bound and the runs do not separate cleanly."""
    sign = 1.0 if better == "lower" else -1.0
    if base["median"] == 0:
        return "unchanged" if new["median"] == 0 else "unresolved"
    change = sign * (new["median"] - base["median"]) / base["median"]
    spread = max(base["iqr"] / abs(base["median"]),
                 new["iqr"] / abs(new["median"]) if new["median"] else 0.0)
    if spread > bound:
        if better == "lower":
            separated = max(new["values"]) < min(base["values"])
        else:
            separated = min(new["values"]) > max(base["values"])
        return "better" if separated else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict):
    """Rows of (workload, metric, base, new, bound, verdict), then per-layer
    self-time deltas sorted by size, largest first."""
    rows, layers = [], []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = entry["metrics"].get(name), other["metrics"].get(name)
            if a is None or b is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": a, "new": b, "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
        base_layers, new_layers = entry.get("layers", {}), other.get("layers", {})
        for name in sorted(set(base_layers) | set(new_layers)):
            a = base_layers.get(name, {}).get("self_s", 0.0)
            b = new_layers.get(name, {}).get("self_s", 0.0)
            layers.append({"workload": workload, "layer": name, "base_s": a,
                           "new_s": b, "delta_s": b - a})
    layers.sort(key=lambda row: abs(row["delta_s"]), reverse=True)
    return rows, layers


def compare_mode(paths: List[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(paths)
    records = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows, layers = compare(records[0], records[1], spec)
    print(f"{'workload':<16} {'metric':<18} {'base':>11} {'±IQR':>9} "
          f"{'new':>11} {'±IQR':>9} {'bound':>6}  verdict")
    for row in rows:
        a, b = row["base"], row["new"]
        print(f"{row['workload']:<16} {row['metric']:<18} {a['median']:>11.4f} "
              f"{a['iqr']:>9.4f} {b['median']:>11.4f} {b['iqr']:>9.4f} "
              f"{row['bound']:>6.2f}  {row['verdict']}")
    print()
    print(f"{'workload':<16} {'layer (self time)':<28} {'base s':>9} {'new s':>9} "
          f"{'delta s':>9}")
    for row in layers:
        print(f"{row['workload']:<16} {row['layer']:<28} {row['base_s']:>9.4f} "
              f"{row['new_s']:>9.4f} {row['delta_s']:>+9.4f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare_mode(argv[1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload for --seconds (default: all, "
                        f"{REPEATS} repeats each, plus a traced pass)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="demo-sized profiles: seconds, not minutes")
    parser.add_argument("--out", default=None,
                        help="record mode: where to write the JSON record")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return record_mode(args, spec)
    return workload_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
