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

FINGERPRINT = "89e88a78c3d3eb4da971697f766c29bf281d960618a53a016d48c8befd97e825"
DATA_PLANE = "f4cadefb515ecb9d2e1b36d0fba95c9e325498dcd5bc7cb3ea09b92c0c2bbe09"

# (plan, clients) -> (worker restarts, trace sha256, traffic-plane sha256)
PINS = {
    ("mild", 1): (
        0,
        "cc65d1dce37742db440b3fc88ce2770f481f546b607267d355c26a33c5669b74",
        "b1c8e7cf07bf78e0af6d46e0658a2c40e0036b0eac603b9679df8a074781ee42",
    ),
    ("mild", 4): (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3763e3fc807b0099cf0e8a2a3c1b1a94422140183288db9733fa69758ae17e6a",
    ),
    ("aggressive", 1): (
        1,
        "3052eec2e0695a715c1e7ad304579ddad0fbaed148f443d34663c73529fbfc5d",
        "0e8898e19fe806a906ef2e38c5740b12c1f3aa0673b50e2ecf155b439e8a0881",
    ),
    ("aggressive", 4): (
        0,
        "7e646556d51d83b8f6b531977d789b2c7da27d13fa67bbbff4a4f84f0d279a7f",
        "c9e30c792df2cdcf752ab5a10843b3937d145193f5eff16f94afcb81fbe4e2ed",
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
