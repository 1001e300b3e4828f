"""The always-on ecosystem service (ROADMAP item 3).

A long-running simulated appstore under live concurrent crawl load:
daily marketplace ticks on a deterministic virtual clock, N crawler
clients -- generator tasks of one scheduler -- reusing the batch
stack's proxies / rate limits / breakers / fault plans and the batch
crawler's request sequences, each crawled day committed into the
columnar store by the batch crawler's day commit, and the popularity
gauges recomputed from each committed day.  Bounded runs reproduce the
batch campaign's dataset fingerprint byte for byte.
"""

from repro.service.client import CrawlClient
from repro.service.loadgen import LoadGenerator, LoadReport
from repro.service.service import EcosystemService, ServiceReport
from repro.service.virtualtime import Scheduler, TaskCancelled

__all__ = [
    "CrawlClient",
    "EcosystemService",
    "LoadGenerator",
    "LoadReport",
    "Scheduler",
    "ServiceReport",
    "TaskCancelled",
]
