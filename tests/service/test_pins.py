"""Golden pins for a served dataset, its fault trace and both metric planes.

The other service suites compare run against run, so a change that
moves an RNG draw or reorders fault consumption in every run alike
passes them.  These pins catch it: the demo store served for four days
at seed 7, under the mild and aggressive plans, by one to four clients.
Each run pins the dataset fingerprint and the sha256 of the fault trace
and of the traffic-plane and data-plane ``snapshot()``.  The aggressive
plan crashes a worker once with one client and with three, and twice
with two; with several clients a crash cancels the sibling workers
mid-request, so the cancellation path is pinned too.  None of the four
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
DATA_PLANE = "fe9b895a8e47bb80896a66673fdd0c557aa77826fc88ed1d88a5c13135b74082"

# (plan, clients) -> (worker restarts, trace sha256, traffic-plane sha256)
PINS = {
    ("mild", 1): (
        0,
        "cc65d1dce37742db440b3fc88ce2770f481f546b607267d355c26a33c5669b74",
        "bb4782ade5a9ed88f692f23f3f6f8712c5b898faa77beac2d144f02ba0f9a6ed",
    ),
    ("mild", 4): (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4579236ae8e72af586d3713a09eab5778cefc73ea633314283234e3789fc83cf",
    ),
    ("aggressive", 1): (
        1,
        "e1af167906c898d585256963910b13d4625c67e8cb1bdc9c8228bdbcc2054ac9",
        "cdb6ae2bee04b1de72a58f26a996fb6c4bb4997874a0bc25f82fd37e2a970c7c",
    ),
    ("aggressive", 2): (
        2,
        "b3c17aabc9b973eb4a8b9b9ea671614a0db6dcc1bcd1d768961426b9462ac4d6",
        "44c0ea52ca918877e653edbaca8212ee9b069ec9b295774a88cd8e98f168e863",
    ),
    ("aggressive", 3): (
        1,
        "e060d64c21d8cdd72b7d5766eb56da7e7d1073a396361fdc40c8d3f5b28ac440",
        "d14a9dd69145e90844983d1ac34ec2c10b02518c0f357983c3c56656a72fb035",
    ),
    ("aggressive", 4): (
        0,
        "182dde23e7706e70ecfd2e29196b9dc9c6796183adea6ec6e0fcc98fedddbff7",
        "74dee7546028ff4c171ea1bd015425e2fddf80f2220ca063c75ad0fdda6876a5",
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
    data_plane = json.dumps(service.data_metrics.snapshot(), sort_keys=True)
    assert sha256(data_plane) == DATA_PLANE


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
