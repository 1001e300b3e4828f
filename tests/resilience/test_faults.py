"""Tests for repro.resilience.faults (plans and the injector runtime)."""

import pytest

from repro.resilience.errors import TransientFault
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FiredFault,
    named_plan,
)
from repro.stats.rng import make_rng


class ListScanInjector:
    """The reference injector: one plan-ordered list, scanned per poll."""

    def __init__(self, plan):
        self._pending = list(plan.events)
        self.trace = []

    @property
    def pending(self):
        return tuple(self._pending)

    def take(self, now, kind, detail=""):
        for index, event in enumerate(self._pending):
            if event.at > now:
                break
            if event.kind is kind:
                del self._pending[index]
                self.record(event, now, detail)
                return event
        return None

    def take_all(self, now, kind):
        due = [e for e in self._pending if e.at <= now and e.kind is kind]
        if due:
            taken = set(map(id, due))
            self._pending = [e for e in self._pending if id(e) not in taken]
        return due

    def record(self, event, now, detail):
        self.trace.append(
            FiredFault(at=event.at, fired_at=now, kind=event.kind, detail=detail)
        )

    def maybe_raise_transient(self, now, where):
        for index, event in enumerate(self._pending):
            if event.at > now:
                break
            if event.kind is FaultKind.TRANSIENT_ERROR:
                del self._pending[index]
                self.record(event, now, f"transient error at {where}")
                raise TransientFault(
                    f"injected transient error at {where} (due t={event.at:.3f})"
                )

    def trace_lines(self):
        return [fired.describe() for fired in self.trace]


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        first = named_plan("aggressive", seed=7, horizon=500.0)
        second = named_plan("aggressive", seed=7, horizon=500.0)
        assert first == second

    def test_different_seed_different_schedule(self):
        first = named_plan("aggressive", seed=7, horizon=500.0)
        second = named_plan("aggressive", seed=8, horizon=500.0)
        assert first.events != second.events

    def test_events_sorted_by_due_time(self):
        plan = named_plan("aggressive", seed=1, horizon=300.0)
        times = [event.at for event in plan.events]
        assert times == sorted(times)

    def test_density_scales_with_horizon(self):
        short = named_plan("mild", seed=0, horizon=100.0)
        long = named_plan("mild", seed=0, horizon=1000.0)
        assert len(long.events) > len(short.events)

    def test_none_plan_is_empty(self):
        assert named_plan("none", seed=0, horizon=100.0).events == ()

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            named_plan("apocalyptic", seed=0, horizon=100.0)

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ValueError):
            named_plan("mild", seed=0, horizon=0.0)

    def test_counts_cover_every_kind(self):
        plan = named_plan("none", seed=0, horizon=100.0)
        assert set(plan.counts()) == set(FaultKind)

    def test_clock_skew_has_positive_magnitude(self):
        plan = named_plan("aggressive", seed=3, horizon=2000.0)
        skews = [e for e in plan.events if e.kind is FaultKind.CLOCK_SKEW]
        assert skews and all(e.magnitude > 0 for e in skews)


class TestFaultInjector:
    def plan(self, *events):
        return FaultPlan(name="manual", seed=0, horizon=100.0, events=tuple(events))

    def test_take_consumes_due_event_once(self):
        injector = FaultInjector(
            self.plan(FaultEvent(at=5.0, kind=FaultKind.CORRUPT_SNAPSHOT))
        )
        assert injector.take(4.0, FaultKind.CORRUPT_SNAPSHOT) is None
        assert injector.take(5.0, FaultKind.CORRUPT_SNAPSHOT) is not None
        assert injector.take(6.0, FaultKind.CORRUPT_SNAPSHOT) is None

    def test_take_ignores_other_kinds(self):
        injector = FaultInjector(
            self.plan(FaultEvent(at=1.0, kind=FaultKind.PROXY_DEATH))
        )
        assert injector.take(2.0, FaultKind.CORRUPT_SNAPSHOT) is None
        assert injector.pending  # still scheduled

    def test_take_all_drains_only_due_events(self):
        injector = FaultInjector(
            self.plan(
                FaultEvent(at=1.0, kind=FaultKind.PROXY_DEATH),
                FaultEvent(at=2.0, kind=FaultKind.PROXY_DEATH),
                FaultEvent(at=50.0, kind=FaultKind.PROXY_DEATH),
            )
        )
        assert len(injector.take_all(10.0, FaultKind.PROXY_DEATH)) == 2
        assert len(injector.pending) == 1

    def test_transient_raises_and_records(self):
        injector = FaultInjector(
            self.plan(FaultEvent(at=0.5, kind=FaultKind.TRANSIENT_ERROR))
        )
        with pytest.raises(TransientFault):
            injector.maybe_raise_transient(1.0, where="store-x")
        assert len(injector.trace) == 1
        assert "store-x" in injector.trace[0].detail
        # Consumed: polling again is a no-op.
        injector.maybe_raise_transient(2.0, where="store-x")

    def test_trace_lines_are_deterministic(self):
        def run():
            injector = FaultInjector(named_plan("aggressive", 11, 400.0))
            clock = 0.0
            while injector.pending:
                clock += 7.0
                for kind in FaultKind:
                    for event in injector.take_all(clock, kind):
                        injector.record(event, clock, f"applied {kind.value}")
            return injector.trace_lines()

        assert run() == run()

    @pytest.mark.parametrize("seed", range(8))
    def test_per_kind_queues_match_the_list_scan(self, seed):
        """Random polls, with the clock wandering back now and then: every
        answer, the pending plan and the trace match the list scan."""
        plan = named_plan("aggressive", seed=seed, horizon=300.0)
        # Exact ties across kinds, which the plan breaks by kind.
        ties = tuple(
            FaultEvent(at=event.at, kind=kind, magnitude=event.magnitude)
            for event in plan.events[::7]
            for kind in FaultKind
        )
        plan = FaultPlan(plan.name, plan.seed, plan.horizon, plan.events + ties)
        reference, injector = ListScanInjector(plan), FaultInjector(plan)
        rng = make_rng(seed)
        kinds = list(FaultKind)
        clock = 0.0
        for _ in range(600):
            clock = max(0.0, clock + float(rng.normal(1.0, 2.0)))
            kind = kinds[int(rng.integers(len(kinds)))]
            action = int(rng.integers(3))
            if action == 0:
                expected = reference.take(clock, kind, detail="taken")
                assert injector.take(clock, kind, detail="taken") == expected
            elif action == 1:
                expected = reference.take_all(clock, kind)
                assert injector.take_all(clock, kind) == expected
                for event in expected:
                    reference.record(event, clock, "applied")
                    injector.record(event, clock, "applied")
            else:
                raised = []
                for target in (reference, injector):
                    try:
                        target.maybe_raise_transient(clock, where="poll")
                    except TransientFault as fault:
                        raised.append(str(fault))
                    else:
                        raised.append(None)
                assert raised[1] == raised[0]
            assert injector.pending == reference.pending
            assert injector.trace_lines() == reference.trace_lines()
        assert not injector.pending
