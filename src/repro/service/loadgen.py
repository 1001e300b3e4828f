"""Standalone load generation against a simulated store's web API.

Where :class:`~repro.service.service.EcosystemService` runs the full
measurement pipeline (discovery, APK archiving, commits, analytics),
the load generator answers a narrower operational question: *what does
this store's admission path do under N clients at R requests/second
each?*  It hammers the statistics-page endpoint round-robin over the
listing, through the same proxy/retry/breaker machinery as real
clients, and reports what the traffic plane saw -- rate-limit hits,
transient faults, breaker skips, end-to-end latency.  Nothing is
written to a database.

Like everything in :mod:`repro.service`, it runs on the virtual clock
of a :class:`~repro.service.virtualtime.Scheduler`: a multi-hour load
test completes in milliseconds and is exactly reproducible from its
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.crawler.proxies import ProxyPool
from repro.crawler.requesting import CrawlError
from repro.crawler.scheduler import _GEO_FENCED_STORES
from repro.crawler.webapi import StoreWebApi
from repro.marketplace.generator import build_store
from repro.marketplace.profiles import StoreProfile
from repro.obs.metrics import get_registry
from repro.resilience.errors import WorkerCrashed
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.service.client import CrawlClient
from repro.service.virtualtime import Scheduler
from repro.stats.rng import SeedLike, derive_seed, make_rng

__all__ = ["LoadGenerator", "LoadReport"]


@dataclass(frozen=True)
class LoadReport:
    """The outcome of one bounded load-generation run."""

    store_name: str
    n_clients: int
    requests_per_client: int
    requests_ok: int
    requests_failed: int
    worker_crashes: int
    virtual_seconds: float

    @property
    def requests_attempted(self) -> int:
        """Total requests the fleet tried to complete."""
        return self.requests_ok + self.requests_failed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        if self.virtual_seconds <= 0:
            return 0.0
        return self.requests_ok / self.virtual_seconds

    def describe(self) -> str:
        """One summary line for the CLI."""
        return (
            f"[{self.store_name}] {self.n_clients} client(s) x "
            f"{self.requests_per_client} requests: {self.requests_ok} ok, "
            f"{self.requests_failed} failed, {self.worker_crashes} worker "
            f"crash(es) in {self.virtual_seconds:.1f} simulated seconds "
            f"({self.throughput_rps:.2f} req/s)"
        )


class LoadGenerator:
    """Drive N synthetic crawler clients against one store's API.

    Parameters
    ----------
    profile:
        Store to generate and warm up (its ``warmup_days`` run once, when
        the generator is built, so the listing has realistic depth and
        statistics; every ``run()`` load-tests that same store).
    seed:
        Master seed, threaded exactly like the service's: ``store`` and
        ``proxies`` substreams plus per-client retry jitter.
    n_clients:
        Concurrent synthetic clients.
    requests_per_client:
        Statistics-page fetches each client performs before stopping.
    requests_per_second:
        Per-client self-pacing.
    fault_plan:
        Optional chaos schedule injected into the store and clients.
    """

    def __init__(
        self,
        profile: StoreProfile,
        seed: SeedLike = None,
        n_clients: int = 4,
        requests_per_client: int = 100,
        requests_per_second: float = 8.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        base_seed = int(make_rng(seed).integers(0, 2**62))
        self.profile = profile
        self.generated = build_store(profile, seed=derive_seed(base_seed, "store"))
        self.store = self.generated.store
        self.store.advance_days(profile.warmup_days)
        self.proxy_pool = ProxyPool.planetlab_like(
            n_proxies=100, seed=derive_seed(base_seed, "proxies")
        )
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        allowed = ("cn",) if profile.name in _GEO_FENCED_STORES else None
        self.api = StoreWebApi(
            self.store,
            allowed_countries=allowed,
            fault_injector=self.fault_injector,
        )
        self.requests_per_client = requests_per_client
        traffic = get_registry()
        self._scheduler = Scheduler()
        self.clients = [
            CrawlClient(
                name=f"loadgen-{index}",
                api=self.api,
                proxy_pool=self.proxy_pool,
                scheduler=self._scheduler,
                requests_per_second=requests_per_second,
                fault_injector=self.fault_injector,
                seed=derive_seed(base_seed, "crawler-retry", index),
                metrics=traffic,
            )
            for index in range(n_clients)
        ]

    def run(self) -> LoadReport:
        """Run the bounded load test on the generator's virtual clock."""
        return self._scheduler.run(self._generate())

    def _generate(self) -> Generator[object, object, LoadReport]:
        """The load loop itself: a scheduler task."""
        scheduler = self._scheduler
        listed = self.store.listed_app_ids()
        if not listed:
            raise RuntimeError(
                f"store {self.store.name!r} has no listed apps to load-test"
            )
        started = scheduler.now
        outcomes: List[int] = [0, 0, 0]
        yield [
            self._client_loop(client, offset, listed, outcomes)
            for offset, client in enumerate(self.clients)
        ]
        return LoadReport(
            store_name=self.store.name,
            n_clients=len(self.clients),
            requests_per_client=self.requests_per_client,
            requests_ok=outcomes[0],
            requests_failed=outcomes[1],
            worker_crashes=outcomes[2],
            virtual_seconds=scheduler.now - started,
        )

    def _client_loop(
        self,
        client: CrawlClient,
        offset: int,
        listed: List[int],
        outcomes: List[int],
    ) -> Generator[object, object, None]:
        """One client's request budget, round-robin over the listing.

        Clients start at staggered listing offsets so the fleet spreads
        over the catalogue instead of convoying app by app.
        """
        stride = max(1, len(listed) // max(1, len(self.clients)))
        position = (offset * stride) % len(listed)
        for _ in range(self.requests_per_client):
            app_id = listed[position]
            position = (position + 1) % len(listed)
            try:
                yield from client.request(self.api.app_page, app_id)
            except WorkerCrashed:
                # A scheduled crash kills the worker process mid-request;
                # the operator loop restarts it and the budget goes on.
                outcomes[2] += 1
                outcomes[1] += 1
            except CrawlError:
                outcomes[1] += 1
            else:
                outcomes[0] += 1
