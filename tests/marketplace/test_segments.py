"""Tests for repro.marketplace.segments (persona-segmented populations)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.marketplace import build_store
from repro.marketplace.behavior import BehaviorParams
from repro.marketplace.profiles import demo_profile
from repro.marketplace.segments import (
    ATTRIBUTES,
    DEFAULT_PERSONAS,
    Persona,
    SegmentParams,
    SegmentedPopulation,
    UtilityModel,
    default_personas,
    draw_segment_params,
    global_segment,
    segment_boundaries,
    segmented_profile,
)


class TestPersona:
    def test_validation(self):
        with pytest.raises(ValueError):
            Persona(name="", weight=0.5)
        with pytest.raises(ValueError):
            Persona(name="x", weight=0.0)
        with pytest.raises(ValueError):
            Persona(name="x", weight=0.5, noise=-0.1)
        with pytest.raises(ValueError):
            Persona(name="x", weight=0.5, part_worths=(("nope", 0.5),))
        with pytest.raises(ValueError):
            Persona(name="x", weight=0.5, part_worths=(("price", 1.5),))

    def test_utility_lookup_defaults_to_zero(self):
        persona = Persona(name="x", weight=0.5, part_worths=(("price", -0.4),))
        assert persona.utility("price") == -0.4
        for attribute in ATTRIBUTES:
            if attribute != "price":
                assert persona.utility(attribute) == 0.0


class TestDefaultPersonas:
    def test_shipped_set(self):
        names = [persona.name for persona in DEFAULT_PERSONAS]
        assert names == [
            "price-sensitive",
            "category-affine",
            "update-chaser",
            "commenter",
        ]
        assert len(set(names)) == len(names)
        assert sum(p.weight for p in DEFAULT_PERSONAS) == pytest.approx(1.0)

    def test_truncation(self):
        assert default_personas() == DEFAULT_PERSONAS
        assert default_personas(2) == DEFAULT_PERSONAS[:2]
        with pytest.raises(ValueError):
            default_personas(0)


class TestUtilityModel:
    def test_zero_utility_noiseless_persona_is_anchor(self):
        persona = Persona(name="plain", weight=1.0, noise=0.0)
        anchor = BehaviorParams()
        drawn = UtilityModel().resolve(persona, anchor, 0.08, np.random.default_rng(0))
        assert drawn.behavior == anchor
        assert drawn.comment_probability == pytest.approx(0.08)
        assert drawn.paid_tolerance == pytest.approx(1.0)
        assert drawn.update_affinity == pytest.approx(1.0)
        assert drawn.engagement == pytest.approx(1.0)

    def test_price_utility_crushes_paid_tolerance(self):
        persona = Persona(
            name="cheap", weight=1.0, noise=0.0, part_worths=(("price", -0.9),)
        )
        drawn = UtilityModel().resolve(
            persona, BehaviorParams(), 0.08, np.random.default_rng(0)
        )
        assert drawn.paid_tolerance == pytest.approx(np.exp(-1.35))
        assert drawn.paid_tolerance < 1.0

    def test_affinity_utility_moves_clustering(self):
        persona = Persona(
            name="affine", weight=1.0, noise=0.0, part_worths=(("affinity", 1.0),)
        )
        anchor = BehaviorParams()
        drawn = UtilityModel().resolve(
            persona, anchor, 0.08, np.random.default_rng(0)
        )
        assert (
            drawn.behavior.cluster_probability > anchor.cluster_probability
        )
        assert drawn.behavior.cluster_exponent > anchor.cluster_exponent
        assert drawn.behavior.global_exponent < anchor.global_exponent

    def test_cluster_probability_clipped(self):
        persona = Persona(
            name="max", weight=1.0, noise=0.0, part_worths=(("affinity", 1.0),)
        )
        anchor = replace(BehaviorParams(), cluster_probability=0.99)
        drawn = UtilityModel(p_effect=0.5).resolve(
            persona, anchor, 0.08, np.random.default_rng(0)
        )
        assert drawn.behavior.cluster_probability <= 0.999


class TestDrawSegmentParams:
    def test_deterministic(self):
        a = draw_segment_params(DEFAULT_PERSONAS, BehaviorParams(), 0.08, seed=11)
        b = draw_segment_params(DEFAULT_PERSONAS, BehaviorParams(), 0.08, seed=11)
        assert a == b

    def test_seed_matters(self):
        a = draw_segment_params(DEFAULT_PERSONAS, BehaviorParams(), 0.08, seed=11)
        b = draw_segment_params(DEFAULT_PERSONAS, BehaviorParams(), 0.08, seed=12)
        assert a != b

    def test_prefix_stable_under_trailing_personas(self):
        """Dropping trailing personas never changes the leading draws."""
        full = draw_segment_params(DEFAULT_PERSONAS, BehaviorParams(), 0.08, seed=3)
        short = draw_segment_params(
            DEFAULT_PERSONAS[:2], BehaviorParams(), 0.08, seed=3
        )
        assert full[:2] == short

    def test_empty_personas_rejected(self):
        with pytest.raises(ValueError):
            draw_segment_params((), BehaviorParams(), 0.08, seed=0)


class TestSegmentBoundaries:
    def test_telescopes_exactly(self):
        bounds = segment_boundaries(1000, [0.35, 0.30, 0.15, 0.20])
        assert bounds[0] == 0
        assert bounds[-1] == 1000
        assert np.all(np.diff(bounds) >= 0)

    def test_normalization_invariance(self):
        a = segment_boundaries(777, [0.2, 0.5, 0.3])
        b = segment_boundaries(777, [2.0, 5.0, 3.0])
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_boundaries(0, [1.0])
        with pytest.raises(ValueError):
            segment_boundaries(10, [])
        with pytest.raises(ValueError):
            segment_boundaries(10, [0.5, 0.0])


class TestSegmentedPopulation:
    def _population(self, n_users=100):
        segments = tuple(
            SegmentParams(name=f"s{i}", weight=w)
            for i, w in enumerate([0.5, 0.3, 0.2])
        )
        return SegmentedPopulation(segments, n_users)

    def test_sizes_sum_to_population(self):
        population = self._population(101)
        assert int(population.sizes.sum()) == 101
        assert population.n_segments == 3
        assert population.names == ("s0", "s1", "s2")

    def test_segment_of_matches_slices(self):
        population = self._population(100)
        ids = population.segment_of(np.arange(100))
        for index in range(population.n_segments):
            block = population.user_slice(index)
            assert np.all(ids[block] == index)

    def test_segment_of_rejects_out_of_range(self):
        population = self._population(100)
        with pytest.raises(ValueError):
            population.segment_of([100])
        with pytest.raises(ValueError):
            population.segment_of([-1])

    def test_uniform_update_affinity(self):
        population = self._population()
        assert population.uniform_update_affinity
        varied = SegmentedPopulation(
            (
                SegmentParams(name="a", weight=0.5, update_affinity=1.0),
                SegmentParams(name="b", weight=0.5, update_affinity=2.0),
            ),
            50,
        )
        assert not varied.uniform_update_affinity

    def test_describe_names_every_segment(self):
        text = self._population().describe()
        for name in ("s0", "s1", "s2"):
            assert name in text


def _profile(**overrides):
    defaults = dict(
        initial_apps=150,
        new_apps_per_day=2.0,
        crawl_days=6,
        warmup_days=0,
        daily_downloads=300.0,
        n_users=120,
        n_categories=6,
        comment_probability=0.15,
        paid_fraction=0.2,
    )
    defaults.update(overrides)
    return demo_profile(**defaults)


class TestSingleSegmentExactness:
    """The tentpole contract: one global segment is byte-identical."""

    def test_store_reproduces_unsegmented_run(self):
        profile = _profile()
        segmented = replace(
            profile,
            segments=(
                global_segment(profile.behavior, profile.comment_probability),
            ),
        )
        plain = build_store(profile, seed=42)
        seg = build_store(segmented, seed=42)
        plain.store.advance_days(6)
        seg.store.advance_days(6)
        assert np.array_equal(
            plain.store.download_counts(), seg.store.download_counts()
        )
        assert np.array_equal(plain.store.comments(), seg.store.comments())

    def test_equal_param_partition_reproduces_global(self):
        """Any identical-parameter partition is the global profile."""
        profile = _profile()
        identical = global_segment(
            profile.behavior, profile.comment_probability
        )
        segmented = replace(
            profile,
            segments=tuple(
                replace(identical, name=f"s{i}", weight=w)
                for i, w in enumerate([0.2, 0.5, 0.3])
            ),
        )
        plain = build_store(profile, seed=42)
        seg = build_store(segmented, seed=42)
        plain.store.advance_days(6)
        seg.store.advance_days(6)
        assert np.array_equal(
            plain.store.download_counts(), seg.store.download_counts()
        )
        # Bookkeeping still splits by true segment block.
        matrix = seg.store.segment_download_counts()
        assert matrix.shape[0] == 3
        assert np.array_equal(matrix.sum(axis=0), seg.store.download_counts())


class TestSegmentedStoreRuns:
    def test_distinct_personas_run_and_account(self):
        profile = segmented_profile(_profile(), seed=9)
        generated = build_store(profile, seed=3)
        generated.store.advance_days(6)
        matrix = generated.store.segment_download_counts()
        assert matrix.shape == (
            len(DEFAULT_PERSONAS),
            generated.store.n_apps,
        )
        assert np.array_equal(
            matrix.sum(axis=0), generated.store.download_counts()
        )
        assert generated.store.segments is not None
        assert generated.store.segments.names == tuple(
            persona.name for persona in DEFAULT_PERSONAS
        )

    def test_segmented_profile_is_deterministic(self):
        a = segmented_profile(_profile(), seed=9)
        b = segmented_profile(_profile(), seed=9)
        assert a.segments == b.segments
        assert a.segments != segmented_profile(_profile(), seed=10).segments
