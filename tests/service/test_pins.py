"""Golden pins for a served dataset, its fault trace and both metric planes.

The other service suites compare run against run, so a change that
moves an RNG draw or reorders fault consumption in every run alike
passes them.  These pins catch it: the demo store served for four days
at seed 7, under the mild and aggressive plans, by one to four clients.
Each run pins the dataset fingerprint, the sha256 of the fault trace
and of the traffic-plane ``snapshot()``, and the data-plane
``snapshot()`` as text, so a failure shows the key that moved.  The
aggressive plan crashes a worker once with one client and with three,
and twice with two; with several clients a crash cancels the sibling
workers mid-request, so the cancellation path is pinned too.  None of the four
events of the mild plan at four clients falls due before that run ends,
so its trace is empty.  One load-generator run under the aggressive
plan, whose three clients crash twice, pins its report and traffic
plane.
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from repro.marketplace.profiles import demo_profile
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.chaos import estimate_crawl_horizon
from repro.resilience.faults import named_plan
from repro.resilience.retry import RetryPolicy
from repro.service import EcosystemService, LoadGenerator

SEED = 7
DAYS = 4
RPS = 8.0

FINGERPRINT = "740fa2e5e97dc3bdb3633233533c44e40f93abd49ab39fb60050cb92d9ca49ac"
# Every run serves the same data plane, whatever its plan and client
# count: its canonical text, ``json.dumps(..., sort_keys=True, indent=1)``.
DATA_PLANE = """\
{
 "counters": {
  "service.apks_archived": 311,
  "service.comments_ingested": 1609,
  "service.days_crawled": 4,
  "service.snapshots_committed": 1226
 },
 "gauges": {
  "service.apps_listed": 308.0,
  "service.store_day": 9.0,
  "streaming.apps_tracked": 308.0,
  "streaming.downloads_p50": 12.0,
  "streaming.downloads_p90": 50.0,
  "streaming.downloads_p99": 133.0,
  "streaming.gini": 0.511879639029688,
  "streaming.pareto_top_10pct": 0.42343728149909104,
  "streaming.pareto_top_1pct": 0.12110194378408615,
  "streaming.pareto_top_20pct": 0.5867710809676968,
  "streaming.snapshots_seen": 1226.0,
  "streaming.zipf_slope": 0.6940841087355686
 },
 "histograms": {},
 "spans": {}
}"""

# (plan, clients) -> (worker restarts, trace sha256, traffic-plane sha256)
PINS = {
    ("mild", 1): (
        0,
        "cc65d1dce37742db440b3fc88ce2770f481f546b607267d355c26a33c5669b74",
        "e23fcf0bbc5974482fc18ff23012833f1edb2a54afad0329f92fd9d9db0d8416",
    ),
    ("mild", 4): (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ef4d7842495fb00d46e3f54ad1ac440215dfbbda594b671203552b27251a7844",
    ),
    ("aggressive", 1): (
        1,
        "e1af167906c898d585256963910b13d4625c67e8cb1bdc9c8228bdbcc2054ac9",
        "193c3727029c409bedd4580af642452a8458ef627b11177b60045fcfcfe0f572",
    ),
    ("aggressive", 2): (
        2,
        "b3c17aabc9b973eb4a8b9b9ea671614a0db6dcc1bcd1d768961426b9462ac4d6",
        "7187b1b4714b9a2457a6a4c1d7ab8513aa5d18d710a339cbe68ad756cc657e4d",
    ),
    ("aggressive", 3): (
        1,
        "e060d64c21d8cdd72b7d5766eb56da7e7d1073a396361fdc40c8d3f5b28ac440",
        "f8b5612f9fac56c5e2188bae05006d60e64a917a0a2bcb28ec1b891c971a967a",
    ),
    ("aggressive", 4): (
        0,
        "182dde23e7706e70ecfd2e29196b9dc9c6796183adea6ec6e0fcc98fedddbff7",
        "5fdb393745052e806c045bc3f53f690537247d342d49e49cd657d1cb1594af80",
    ),
}

# The load generator's report plus traffic plane, and its fault trace.
LOADGEN = "89178a1682a650df54b791b64b299e51b2a913c25a785e33d6e51434a439b36a"
LOADGEN_TRACE = "3666aad7a157d85c8b4976b70b92cb542fa3f01cb23f42f96047ddd10fde6d16"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("plan_name, n_clients", sorted(PINS))
def test_outputs_match_their_pins(plan_name, n_clients):
    profile = replace(demo_profile(), crawl_days=DAYS)
    horizon = estimate_crawl_horizon(profile, requests_per_second=RPS * n_clients)
    plan = named_plan(plan_name, seed=SEED, horizon=horizon)
    with use_registry(MetricsRegistry()) as traffic:
        service = EcosystemService(
            profile,
            seed=SEED,
            n_clients=n_clients,
            fault_plan=plan,
            requests_per_second=RPS,
            # Five attempts cannot absorb the aggressive plan's bursts at
            # one client; the budget never touches the data plane.
            retry_policy=RetryPolicy(max_attempts=12),
        )
        report = service.run()
    restarts, trace, traffic_plane = PINS[(plan_name, n_clients)]
    assert report.fingerprint == FINGERPRINT
    assert service.worker_restarts == restarts
    assert sha256("\n".join(service.fault_injector.trace_lines())) == trace
    assert sha256(json.dumps(traffic.snapshot(), sort_keys=True)) == traffic_plane
    data_plane = json.dumps(service.data_metrics.snapshot(), sort_keys=True, indent=1)
    assert data_plane == DATA_PLANE


def test_load_generator_matches_its_pin():
    requests, rps = 150, 8.0
    plan = named_plan("aggressive", seed=SEED, horizon=requests / rps)
    with use_registry(MetricsRegistry()) as traffic:
        generator = LoadGenerator(
            demo_profile(),
            seed=SEED,
            n_clients=3,
            requests_per_client=requests,
            requests_per_second=rps,
            fault_plan=plan,
        )
        report = generator.run()
    assert report.worker_crashes == 2
    outputs = {"report": asdict(report), "traffic": traffic.snapshot()}
    assert sha256(json.dumps(outputs, sort_keys=True)) == LOADGEN
    assert sha256("\n".join(generator.fault_injector.trace_lines())) == LOADGEN_TRACE
