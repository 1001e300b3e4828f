"""Tests for repro.obs.metrics (deterministic metrics primitives)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKET_EDGES,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_get_or_create_and_add(self):
        registry = MetricsRegistry()
        registry.counter("a").add(3)
        registry.counter("a").add()
        assert registry.counter("a").value == 4

    def test_negative_add_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a").add(-1)
        assert registry.counter("a").value == 0


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("level").set(3.0)
        registry.gauge("level").set(1.5)
        assert registry.gauge("level").value == 1.5


class TestHistogram:
    def test_edges_are_inclusive_upper_bounds(self):
        histogram = Histogram("h", edges=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        # 0.5 and 1.0 -> first bucket; 5.0 and 10.0 -> second; 11.0 -> overflow.
        assert histogram.bucket_counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.minimum == 0.5
        assert histogram.maximum == 11.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=())
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=(2.0, 1.0))

    def test_edge_conflict_on_reuse(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        registry.histogram("h", edges=(1.0, 2.0))  # same edges: fine
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 3.0))

    def test_reuse_accepts_equal_edges_of_any_sequence_type(self):
        registry = MetricsRegistry()
        created = registry.histogram("h", edges=(1.0, 2.0))
        assert registry.histogram("h", edges=[1.0, 2.0]) is created
        assert registry.histogram("h", edges=[1, 2]) is created
        assert registry.histogram("d") is registry.histogram("d", list(DEFAULT_BUCKET_EDGES))
        for different in ([1.0, 3.0], [1.0], (1.0, 2.0, 4.0), [0.5, 2.0]):
            with pytest.raises(ValueError, match="already exists"):
                registry.histogram("h", edges=different)

    def test_default_edges(self):
        histogram = Histogram("h")
        assert histogram.edges == DEFAULT_BUCKET_EDGES


class TestSpans:
    def test_nested_spans_get_slash_paths(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        snapshot = registry.snapshot()
        assert set(snapshot["spans"]) == {"outer", "outer/inner"}
        assert snapshot["spans"]["outer"]["count"] == 1

    def test_simulated_clock_delta_recorded(self):
        registry = MetricsRegistry()
        sim = {"now": 10.0}
        with registry.span("work", clock=lambda: sim["now"]):
            sim["now"] = 13.5
        snapshot = registry.snapshot()
        assert snapshot["spans"]["work"]["sim_seconds"] == pytest.approx(3.5)

    def test_wall_clock_quarantined(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        assert "wall_seconds" not in registry.snapshot()["spans"]["work"]
        wall = registry.wall_clock_snapshot()["spans"]["work"]["wall_seconds"]
        assert wall >= 0.0

    def test_span_stack_unwinds_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                raise RuntimeError("boom")
        with registry.span("after"):
            pass
        assert "after" in registry.snapshot()["spans"]  # not "outer/after"


class TestSnapshotAndMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.gauge("g").set(7.0)
        registry.histogram("h", edges=(1.0, 10.0)).observe(0.5)
        registry.histogram("h", edges=(1.0, 10.0)).observe(20.0)
        with registry.span("s"):
            pass
        return registry

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz").add(1)
        registry.counter("aa").add(1)
        counters = registry.snapshot()["counters"]
        assert list(counters) == sorted(counters)

    def test_merge_doubles_everything_additive(self):
        registry = self._populated()
        registry.merge_snapshot(self._populated().snapshot())
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 4
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["count"] == 4
        assert snapshot["histograms"]["h"]["bucket_counts"] == [2, 0, 2]
        assert snapshot["histograms"]["h"]["min"] == 0.5
        assert snapshot["histograms"]["h"]["max"] == 20.0
        assert snapshot["spans"]["s"]["count"] == 2

    def test_merge_into_empty_equals_source(self):
        source = self._populated().snapshot()
        target = MetricsRegistry()
        target.merge_snapshot(source)
        assert target.snapshot() == source


class TestGlobalRegistry:
    def test_use_registry_scopes_and_restores(self):
        outer = get_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped) as active:
            assert active is scoped
            assert get_registry() is scoped
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        previous = get_registry()
        fresh = MetricsRegistry()
        returned = set_registry(fresh)
        try:
            assert returned is previous
            assert get_registry() is fresh
        finally:
            set_registry(previous)
