"""Property-based tests (hypothesis) for the streaming analytics.

The service's analytics promise two different strengths, and the suite
checks each with the right tool:

- ``DownloadState`` (and the Zipf/Pareto readers on top of it) claims
  **exact** equivalence with the batch analyses under *any* arrival
  order -- so these properties shuffle arrivals and require bit-equal
  results against the one-shot batch computation.
- ``P2Quantile`` is honestly approximate, so its properties bound
  behaviour (exactness up to five observations, estimates inside the
  observed range, rank error on well-behaved streams) rather than
  demanding equality.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import (
    DownloadState,
    OnlineZipfSlope,
    P2Quantile,
    RollingParetoShare,
    StreamingAnalytics,
)
from repro.core.pareto import gini_coefficient
from repro.obs.metrics import MetricsRegistry
from repro.stats.distributions import cumulative_share
from repro.stats.rng import make_rng
from repro.stats.zipf import fit_zipf_exponent_mle

# Shared strategies -----------------------------------------------------

snapshots = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),  # app_id
        st.integers(min_value=0, max_value=30),  # day
        st.integers(min_value=0, max_value=10**9),  # total_downloads
    ),
    min_size=0,
    max_size=60,
)


def batch_final_vector(observations):
    """The batch answer: per app, the downloads of the newest day seen
    (first write wins within one day, matching commit order), positive
    values only, sorted descending."""
    latest = {}
    for app_id, day, downloads in observations:
        if app_id not in latest or day >= latest[app_id][0]:
            latest[app_id] = (day, downloads)
    values = np.array(
        [float(v) for _, v in latest.values()], dtype=np.float64
    )
    positive = values[values > 0]
    return np.sort(positive)[::-1]


def feed(observations):
    state = DownloadState()
    for app_id, day, downloads in observations:
        state.observe(app_id, day, downloads)
    return state


def day_runs(observations):
    """Consecutive same-day runs of an arrival stream, as the per-day
    fold takes them: ``(day, app_ids, totals)``."""
    for day, run in itertools.groupby(observations, key=lambda row: row[1]):
        rows = list(run)
        yield day, [row[0] for row in rows], [row[2] for row in rows]


class ReferenceDownloadState:
    """The per-snapshot state update the per-day fold replaced."""

    def __init__(self):
        self.by_app = {}
        self.version = 0

    def observe(self, app_id, day, total_downloads):
        current = self.by_app.get(app_id)
        if current is not None and current[0] > day:
            return
        self.by_app[app_id] = (day, int(total_downloads))
        self.version += 1


class ReferenceP2:
    """The per-value P² update the per-day fold replaced."""

    def __init__(self, q):
        self.q = q
        self._initial = []
        self._heights = []
        self._positions = []
        self._desired = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            if self.count == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1, 2, 3, 4, 5]
                self._desired = [1.0 + 4.0 * i for i in self._increments]
            return
        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for marker in range(cell + 1, 5):
            positions[marker] += 1
        for marker in range(5):
            self._desired[marker] += self._increments[marker]
        for marker in (1, 2, 3):
            drift = self._desired[marker] - positions[marker]
            step_up = positions[marker + 1] - positions[marker]
            step_down = positions[marker - 1] - positions[marker]
            if (drift >= 1.0 and step_up > 1) or (drift <= -1.0 and step_down < -1):
                direction = 1 if drift >= 1.0 else -1
                candidate = self._parabolic(marker, direction)
                if heights[marker - 1] < candidate < heights[marker + 1]:
                    heights[marker] = candidate
                else:
                    heights[marker] = self._linear(marker, direction)
                positions[marker] += direction

    def _parabolic(self, marker, direction):
        heights = self._heights
        positions = self._positions
        here = positions[marker]
        below = positions[marker - 1]
        above = positions[marker + 1]
        return heights[marker] + (direction / (above - below)) * (
            (here - below + direction)
            * (heights[marker + 1] - heights[marker])
            / (above - here)
            + (above - here - direction)
            * (heights[marker] - heights[marker - 1])
            / (here - below)
        )

    def _linear(self, marker, direction):
        heights = self._heights
        positions = self._positions
        neighbor = marker + direction
        return heights[marker] + direction * (
            heights[neighbor] - heights[marker]
        ) / (positions[neighbor] - positions[marker])


def p2_markers(sketch):
    """Every piece of P² state, floats as their exact bits."""
    return (
        sketch.count,
        [value.hex() for value in sketch._initial],
        [value.hex() for value in sketch._heights],
        list(sketch._positions),
        [value.hex() for value in sketch._desired],
    )


class TestDownloadStateEquivalence:
    @given(observations=snapshots, shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_any_arrival_order_yields_the_batch_vector(
        self, observations, shuffle_seed
    ):
        shuffled = list(observations)
        make_rng(shuffle_seed).shuffle(shuffled)
        # Shuffling can reorder two same-app same-day writes with
        # different values, which no consumer can distinguish anyway;
        # compare each order against its own batch reduction.
        for ordering in (observations, shuffled):
            state = feed(ordering)
            expected = batch_final_vector(ordering)
            assert (state.positive_downloads() == expected).all()

    @given(observations=snapshots)
    @settings(max_examples=80, deadline=None)
    def test_replay_is_idempotent(self, observations):
        once = feed(observations)
        twice = feed(observations + observations)
        assert (
            once.positive_downloads() == twice.positive_downloads()
        ).all()
        assert once.n_apps == twice.n_apps

    @given(observations=snapshots)
    @settings(max_examples=80, deadline=None)
    def test_stale_days_never_overwrite(self, observations):
        state = feed(observations)
        before = state.positive_downloads().tolist()
        # Re-deliver every observation tagged one day older than
        # anything the state accepted: all must be ignored.
        for app_id, day, _ in observations:
            state.observe(app_id, -1, 10**12)
        assert state.positive_downloads().tolist() == before


class TestBatchReaderEquivalence:
    @given(observations=snapshots, shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_zipf_and_pareto_match_batch_bit_for_bit(
        self, observations, shuffle_seed
    ):
        shuffled = list(observations)
        make_rng(shuffle_seed).shuffle(shuffled)
        state = feed(shuffled)
        positive = batch_final_vector(shuffled)

        slope = OnlineZipfSlope(state).value
        if positive.size < 2:
            assert slope is None
        else:
            assert slope == fit_zipf_exponent_mle(positive)

        shares = RollingParetoShare(state).shares()
        if positive.size == 0:
            assert shares is None
        else:
            top = cumulative_share(positive, [0.01, 0.10, 0.20])
            assert shares["top_1pct"] == float(top[0])
            assert shares["top_10pct"] == float(top[1])
            assert shares["top_20pct"] == float(top[2])
            assert shares["gini"] == gini_coefficient(positive)

    @given(observations=snapshots)
    @settings(max_examples=60, deadline=None)
    def test_memoization_never_changes_the_answer(self, observations):
        state = feed(observations)
        zipf = OnlineZipfSlope(state)
        pareto = RollingParetoShare(state)
        assert zipf.value == zipf.value
        assert pareto.shares() == pareto.shares()
        if observations:
            # A stale write (older day for a known app) is rejected by
            # the state and must not disturb the cached readings.
            app_id, day, _ = observations[0]
            before = zipf.value
            state.observe(app_id, day - 1, 10**12)
            assert zipf.value == before


class TestP2Quantile:
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=5,
        ),
        q=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_up_to_five_observations(self, values, q):
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(value)
        ordered = sorted(values)
        assert sketch.value == ordered[int(q * (len(ordered) - 1))]

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=6,
            max_size=300,
        ),
        q=st.sampled_from([0.25, 0.5, 0.9]),
    )
    @settings(max_examples=100, deadline=None)
    def test_estimate_stays_inside_the_observed_range(self, values, q):
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(value)
        assert min(values) <= sketch.value <= max(values)
        assert sketch.count == len(values)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(
                    min_value=-1e9,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(min_value=0, max_value=10**9),
            ),
            max_size=200,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=12),
        q=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
    )
    @settings(max_examples=150, deadline=None)
    def test_per_day_fold_is_bit_equal_to_per_value_observe(
        self, values, cuts, q
    ):
        reference = ReferenceP2(q)
        for value in values:
            reference.observe(value)
        # Any split into days, empty days included.
        bounds = [0] + sorted(min(cut, len(values)) for cut in cuts) + [len(values)]
        folded = P2Quantile(q)
        one_by_one = P2Quantile(q)
        for start, stop in zip(bounds, bounds[1:]):
            folded.observe_many(values[start:stop])
            for value in values[start:stop]:
                one_by_one.observe(value)
        assert p2_markers(folded) == p2_markers(reference)
        assert p2_markers(one_by_one) == p2_markers(reference)

    def test_q_must_be_a_proper_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                P2Quantile(bad)

    def test_empty_sketch_has_no_value(self):
        assert P2Quantile(0.5).value is None

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_rank_error_is_small_on_large_streams(self, q):
        """On realistic streams (heavy-tailed, shuffled) the P² estimate
        lands within one percentile of the true rank."""
        rng = make_rng(1234)
        for sample in (
            rng.lognormal(mean=8.0, sigma=2.0, size=20_000),
            rng.uniform(0.0, 1e6, size=20_000),
            rng.pareto(1.5, size=20_000) * 1e3,
        ):
            sketch = P2Quantile(q)
            for value in sample:
                sketch.observe(float(value))
            rank = float(np.mean(sample <= sketch.value))
            assert abs(rank - q) < 0.01


class TestStreamingAnalyticsFacade:
    @given(observations=snapshots, shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_facade_state_is_order_invariant_too(
        self, observations, shuffle_seed
    ):
        # Order invariance is only promised for distinct (app, day)
        # cells -- two conflicting writes to the same cell are a
        # producer bug -- so deduplicate before shuffling.
        unique = list(
            {(a, d): (a, d, v) for a, d, v in observations}.values()
        )
        observations = unique
        shuffled = list(unique)
        make_rng(shuffle_seed).shuffle(shuffled)
        one = StreamingAnalytics("demo")
        other = StreamingAnalytics("demo")
        for app_id, day, downloads in observations:
            one.observe_snapshot(app_id, day, downloads)
        for app_id, day, downloads in shuffled:
            other.observe_snapshot(app_id, day, downloads)
        assert one.snapshots_seen == other.snapshots_seen
        assert (
            one.state.positive_downloads() == other.state.positive_downloads()
        ).all()
        assert one.zipf.value == other.zipf.value


class TestPerDayFold:
    @given(observations=snapshots, shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_day_fold_equals_per_snapshot_observes(
        self, observations, shuffle_seed
    ):
        shuffled = list(observations)
        make_rng(shuffle_seed).shuffle(shuffled)

        reference_state = ReferenceDownloadState()
        reference_sketches = {
            q: ReferenceP2(q) for q in StreamingAnalytics.QUANTILES
        }
        per_snapshot = StreamingAnalytics("demo")
        for app_id, day, downloads in shuffled:
            reference_state.observe(app_id, day, downloads)
            for sketch in reference_sketches.values():
                sketch.observe(float(downloads))
            per_snapshot.observe_snapshot(app_id, day, downloads)

        per_day = StreamingAnalytics("demo")
        for day, app_ids, totals in day_runs(shuffled):
            per_day.observe_day(day, app_ids, totals)

        for analytics in (per_day, per_snapshot):
            assert analytics.snapshots_seen == len(shuffled)
            assert analytics.state.version == reference_state.version
            assert analytics.state.n_apps == len(reference_state.by_app)
            assert (
                analytics.state.positive_downloads()
                == batch_final_vector(shuffled)
            ).all()
            for q, sketch in analytics.quantiles.items():
                assert p2_markers(sketch) == p2_markers(reference_sketches[q])
        exported = [MetricsRegistry(), MetricsRegistry()]
        per_day.export(exported[0])
        per_snapshot.export(exported[1])
        assert exported[0].snapshot() == exported[1].snapshot()


class TestSegmentDownloadShares:
    """Unit contract for the per-segment service gauges."""

    def _shares(self):
        from repro.analysis.streaming import SegmentDownloadShares

        return SegmentDownloadShares(("alpha", "beta"))

    def test_requires_names(self):
        from repro.analysis.streaming import SegmentDownloadShares

        with pytest.raises(ValueError):
            SegmentDownloadShares(())

    def test_unfed_is_inert(self):
        from repro.obs.metrics import MetricsRegistry

        shares = self._shares()
        assert shares.summaries() is None
        registry = MetricsRegistry()
        shares.export(registry)
        assert registry.snapshot()["gauges"] == {}

    def test_matrix_shape_validated(self):
        shares = self._shares()
        with pytest.raises(ValueError):
            shares.observe_matrix(np.zeros(4))
        with pytest.raises(ValueError):
            shares.observe_matrix(np.zeros((3, 4)))

    def test_summaries_match_batch_math(self):
        shares = self._shares()
        matrix = np.array([[40, 0, 10], [10, 30, 10]])
        shares.observe_matrix(matrix)
        summaries = shares.summaries()
        assert summaries["alpha"]["downloads"] == 50.0
        assert summaries["alpha"]["share"] == pytest.approx(0.5)
        positive = np.array([40.0, 10.0])
        assert summaries["alpha"]["top_10pct"] == pytest.approx(
            cumulative_share(positive, [0.10])[0]
        )
        assert summaries["alpha"]["gini"] == gini_coefficient(positive)

    def test_all_zero_segment_has_no_concentration_stats(self):
        shares = self._shares()
        shares.observe_matrix(np.array([[0, 0, 0], [5, 5, 0]]))
        summaries = shares.summaries()
        assert summaries["alpha"] == {"downloads": 0.0, "share": 0.0}
        assert "gini" in summaries["beta"]

    def test_export_publishes_prefixed_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        shares = self._shares()
        shares.observe_matrix(np.array([[40, 0, 10], [10, 30, 10]]))
        registry = MetricsRegistry()
        shares.export(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["streaming.segment.alpha.downloads"] == 50.0
        assert gauges["streaming.segment.beta.share"] == pytest.approx(0.5)
