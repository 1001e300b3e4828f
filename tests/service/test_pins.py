"""Golden pins for a served dataset, its fault trace and both metric planes.

The other service suites compare run against run, so a change that
moves an RNG draw or reorders fault consumption in every run alike
passes them.  These pins catch it: the demo store served for four days
at seed 7, under the mild and aggressive plans, by one client and by
four.  Each run pins the dataset fingerprint and the sha256 of the
fault trace and of the traffic-plane and data-plane ``snapshot()``.
The aggressive plan with one client crashes a worker once, so a re-run
day is pinned too.  None of the four events of the mild plan at four
clients falls due before that run ends, so its trace is empty.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.marketplace.profiles import demo_profile
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.chaos import estimate_crawl_horizon
from repro.resilience.faults import named_plan
from repro.resilience.retry import RetryPolicy
from repro.service import EcosystemService

SEED = 7
DAYS = 4
RPS = 8.0

FINGERPRINT = "a8b7ce3afb1382625b36fdb23c52c1c84b53c894ded117f454e610edef970296"
DATA_PLANE = "8ab496076400a7af28aa9ba50b2a92c317c5aa11597b27dfa1972af9658d4d14"

# (plan, clients) -> (worker restarts, trace sha256, traffic-plane sha256)
PINS = {
    ("mild", 1): (
        0,
        "cc65d1dce37742db440b3fc88ce2770f481f546b607267d355c26a33c5669b74",
        "a17f0912280f0d9202dc04c7a69219ede9d23d57bd1bc23013e4eb5304dfdd9e",
    ),
    ("mild", 4): (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bf07d072dbbbe8c67535393485d7dcabf3f4efb2704cf9039274d513e845510b",
    ),
    ("aggressive", 1): (
        1,
        "899d4fc3a03effd591cee812e14f6cf2eb1fb295adf19f3e8bf2f89f1cefcf1a",
        "fd82bb194e2faa259f3262d7b5c394117bdf145e83720d3bdf8aeca17bec7ae0",
    ),
    ("aggressive", 4): (
        0,
        "f76fddb36eca19222852ace657c99e866d9fc99ff011761a915ee8a02a5564d4",
        "c04c513c71508ea537e48a9b94d36f3422fa1155625f9202a6fe95468b4d8a5e",
    ),
}


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
