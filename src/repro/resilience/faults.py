"""Seeded fault plans: deterministic chaos on the simulated clock.

A :class:`FaultPlan` is a fixed schedule of failures -- proxy deaths,
transient store errors, corrupt snapshot pages, worker crashes, clock
skew -- pinned to simulated-clock timestamps.  Plans are generated from
one seed through the :mod:`repro.stats.rng` seed-threading contract, so
a chaos run is exactly replayable: the same seed produces the same
schedule, the same injection order, and therefore the same failure
trace.

The :class:`FaultInjector` is the runtime half: integration points
(the store web API, the crawl engine) poll it with their current clock
and consume the faults that have come due.  Every consumed fault is
recorded in an ordered trace, which is what chaos tests diff run
against run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.resilience.errors import TransientFault
from repro.stats.rng import derive_seed, make_rng


class FaultKind(str, enum.Enum):
    """The failure modes the injector can schedule."""

    PROXY_DEATH = "proxy-death"
    TRANSIENT_ERROR = "transient-error"
    CORRUPT_SNAPSHOT = "corrupt-snapshot"
    WORKER_CRASH = "worker-crash"
    CLOCK_SKEW = "clock-skew"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    Attributes
    ----------
    at:
        Simulated-clock time at which the fault becomes due.
    kind:
        The failure mode.
    magnitude:
        Kind-specific size (clock-skew seconds; unused otherwise).
    """

    at: float
    kind: FaultKind
    magnitude: float = 0.0


#: Fault densities per named plan, in events per 100 simulated seconds.
#: ``WORKER_CRASH`` is a per-campaign absolute count, not a density: a
#: crash costs a whole-day restart, so it must not scale with horizon.
PLAN_DENSITIES: Dict[str, Dict[FaultKind, float]] = {
    "none": {},
    "mild": {
        FaultKind.TRANSIENT_ERROR: 2.0,
        FaultKind.PROXY_DEATH: 0.3,
        FaultKind.CORRUPT_SNAPSHOT: 0.5,
    },
    "aggressive": {
        FaultKind.TRANSIENT_ERROR: 8.0,
        FaultKind.PROXY_DEATH: 1.0,
        FaultKind.CORRUPT_SNAPSHOT: 3.0,
        FaultKind.CLOCK_SKEW: 1.0,
        FaultKind.WORKER_CRASH: 2.0,
    },
}

_SKEW_RANGE = (1.0, 20.0)
_MAX_WORKER_CRASHES = 3


def _plan_order(event: FaultEvent) -> Tuple[float, str, float]:
    """The plan's sort key: due time, ties broken by kind, then size."""
    return (event.at, event.kind.value, event.magnitude)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, replayable schedule of faults.

    ``events`` is sorted by due time (ties broken by kind value) so the
    injection order is a pure function of the plan, never of consumer
    polling patterns.
    """

    name: str
    seed: int
    horizon: float
    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        ordered = tuple(sorted(self.events, key=_plan_order))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def generate(
        cls,
        name: str,
        seed: int,
        horizon: float,
        densities: Mapping[FaultKind, float],
        crashes: int = 0,
    ) -> "FaultPlan":
        """Sample a schedule: ``densities`` are events per 100 seconds."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = make_rng(derive_seed(int(seed), "fault-plan", name))
        events: List[FaultEvent] = []
        # Enum definition order fixes the sampling order, which fixes the
        # schedule for a given seed regardless of the mapping's insertion
        # order.
        for kind in FaultKind:
            density = float(densities.get(kind, 0.0))
            if kind is FaultKind.WORKER_CRASH:
                count = int(crashes)
            else:
                count = int(round(density * horizon / 100.0))
            if count < 1:
                continue
            times = rng.random(count) * horizon
            if kind is FaultKind.CLOCK_SKEW:
                low, high = _SKEW_RANGE
                magnitudes = low + rng.random(count) * (high - low)
            else:
                magnitudes = [0.0] * count
            events.extend(
                FaultEvent(at=float(t), kind=kind, magnitude=float(m))
                for t, m in zip(times, magnitudes)
            )
        return cls(name=name, seed=int(seed), horizon=float(horizon), events=tuple(events))

    def counts(self) -> Dict[FaultKind, int]:
        """Scheduled events per kind (zero-count kinds included)."""
        totals = {kind: 0 for kind in FaultKind}
        for event in self.events:
            totals[event.kind] += 1
        return totals


def named_plan(name: str, seed: int, horizon: float) -> FaultPlan:
    """Build one of the preset plans (``none``, ``mild``, ``aggressive``)."""
    try:
        densities = PLAN_DENSITIES[name]
    except KeyError:
        known = ", ".join(sorted(PLAN_DENSITIES))
        raise ValueError(f"unknown fault plan {name!r} (known: {known})") from None
    crash_density = densities.get(FaultKind.WORKER_CRASH, 0.0)
    crashes = min(_MAX_WORKER_CRASHES, int(round(crash_density))) if crash_density else 0
    return FaultPlan.generate(name, seed, horizon, densities, crashes=crashes)


@dataclass(frozen=True)
class FiredFault:
    """One fault that was actually injected, as recorded in the trace."""

    at: float
    fired_at: float
    kind: FaultKind
    detail: str

    def describe(self) -> str:
        """One deterministic trace line."""
        return (
            f"t={self.fired_at:10.3f} (due {self.at:10.3f}) "
            f"{self.kind.value:<16} {self.detail}"
        )


class FaultInjector:
    """Runtime consumer of a :class:`FaultPlan`.

    Integration points poll :meth:`take` / :meth:`take_all` with their
    current simulated clock; due events are consumed exactly once and
    appended to :attr:`trace` in consumption order.  The injector also
    owns a derived RNG for choices the plan leaves open (e.g. *which*
    proxy dies), so those choices replay from the plan seed too.

    Pending events wait in one due-ordered queue per kind, so a poll
    looks at the head of one queue: its cost does not grow with the
    length of the plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._queues: Dict[FaultKind, Deque[FaultEvent]] = {
            kind: deque() for kind in FaultKind
        }
        for event in plan.events:
            self._queues[event.kind].append(event)
        self.rng = make_rng(derive_seed(plan.seed, "fault-injector", plan.name))
        self.trace: List[FiredFault] = []

    @property
    def pending(self) -> Tuple[FaultEvent, ...]:
        """Events not yet consumed, in due order."""
        return tuple(sorted(chain(*self._queues.values()), key=_plan_order))

    def _pop_due(self, now: float, kind: FaultKind) -> Optional[FaultEvent]:
        """Remove and return the earliest due event of ``kind``, if any."""
        queue = self._queues[kind]
        if queue and queue[0].at <= now:
            return queue.popleft()
        return None

    def take(
        self, now: float, kind: FaultKind, detail: str = ""
    ) -> Optional[FaultEvent]:
        """Consume at most one due event of ``kind``; records it if taken."""
        event = self._pop_due(now, kind)
        if event is not None:
            self.record(event, now, detail)
        return event

    def take_all(self, now: float, kind: FaultKind) -> List[FaultEvent]:
        """Consume every due event of ``kind`` (recording is the caller's
        job, since the detail depends on how the fault is applied)."""
        queue = self._queues[kind]
        due: List[FaultEvent] = []
        while queue and queue[0].at <= now:
            due.append(queue.popleft())
        return due

    def record(self, event: FaultEvent, now: float, detail: str) -> None:
        """Append one consumed event to the trace."""
        self.trace.append(
            FiredFault(at=event.at, fired_at=now, kind=event.kind, detail=detail)
        )
        get_registry().counter(f"faults.injected.{event.kind.value}").add(1)

    def maybe_raise_transient(self, now: float, where: str) -> None:
        """Raise :class:`TransientFault` when a transient error is due."""
        event = self._pop_due(now, FaultKind.TRANSIENT_ERROR)
        if event is not None:
            self.record(event, now, f"transient error at {where}")
            raise TransientFault(
                f"injected transient error at {where} (due t={event.at:.3f})"
            )

    def fired_counts(self) -> Dict[FaultKind, int]:
        """Injected events per kind (zero-count kinds included)."""
        totals = {kind: 0 for kind in FaultKind}
        for fired in self.trace:
            totals[fired.kind] += 1
        return totals

    def trace_lines(self) -> List[str]:
        """The failure trace as deterministic text lines."""
        return [fired.describe() for fired in self.trace]
