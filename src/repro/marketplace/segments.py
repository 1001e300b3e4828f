"""Persona-segmented user populations with conjoint-style utility draws.

The paper fits one global behaviour profile per store (Figure 8), but
"Mining Behavioral Patterns from Millions of Android Users" shows
appstore populations decompose into distinct usage personas, and
"Sovereignty of the Apps" argues relevance and downloads diverge across
them.  This module replaces the single profile with **persona
segments**: contiguous blocks of the user population whose behaviour
parameters -- clustering probability ``p``, Zipf exponents, comment
propensity, paid-app tolerance, update chasing, engagement -- are drawn
from a small choice-based-conjoint utility model.

Design
------
- A :class:`Persona` holds *part-worth utilities* over behavioural
  attributes (``price``, ``affinity``, ``updates``, ``commenting``,
  ``engagement``), each in ``[-1, 1]``, plus a population ``weight``.
- A :class:`UtilityModel` maps utilities to concrete parameters around
  an *anchor* (the store profile's global parameters), with optional
  per-draw Gaussian jitter.  Draws are seeded through
  :func:`repro.stats.rng.make_seed_sequence` -- one spawned child per
  persona -- so segment parameters are reproducible from a single seed
  and independent of every other random stream in the simulator.
- The resolved :class:`SegmentParams` travel inside
  :class:`~repro.marketplace.profiles.StoreProfile` (``segments=...``)
  and inside :class:`~repro.workload.generators.WorkloadSpec`
  (``segments=...``) as plain frozen dataclasses.
- Users map to segments by **contiguous blocks** via the same
  cumulative-floor rule the sharded runner uses for download budgets:
  segment ``k`` owns users ``[floor(N * W_{k-1}), floor(N * W_k))``
  where ``W_k`` is the cumulative weight.  The mapping is a pure
  function of ``(n_users, weights)`` -- no RNG -- so the partition
  itself never perturbs a seeded stream.

Exactness contract
------------------
A single-segment configuration whose parameters equal the global
profile reproduces the unsegmented dataset **byte for byte** (batch,
sharded, and service paths): the per-segment engines are constructed
without consuming randomness, draws route through the same kernels in
the same order, and bookkeeping (per-segment counts) is RNG-free.
More generally, *any* partition whose segments all carry identical
parameters is indistinguishable from the global profile -- the
property suite in ``tests/properties/test_segment_properties.py``
drives random partitions through the store to prove it.

Population-wide work stays vectorized: code here touches each segment
as one contiguous user block (never a per-user Python loop -- lint rule
RPL020 guards this module).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.marketplace.behavior import BehaviorParams
from repro.stats.rng import SeedLike, spawn_rngs

__all__ = [
    "ATTRIBUTES",
    "DEFAULT_PERSONAS",
    "Persona",
    "SegmentParams",
    "SegmentedPopulation",
    "UtilityModel",
    "default_personas",
    "draw_segment_params",
    "global_segment",
    "segment_boundaries",
    "segmented_profile",
]

#: The behavioural attributes a persona expresses part-worth utilities
#: over.  Each utility lives in [-1, 1]; 0 means "exactly the global
#: profile" for that attribute.
ATTRIBUTES: Tuple[str, ...] = (
    "price",  # tolerance for paying: -1 never buys, +1 happily buys
    "affinity",  # category affinity: strength of the clustering effect
    "updates",  # update chasing: eagerness to re-download on updates
    "commenting",  # comment propensity after a download
    "engagement",  # post-install session depth (revenue-sim side)
)


@dataclass(frozen=True)
class Persona:
    """A named persona: population weight plus part-worth utilities.

    ``part_worths`` maps attribute name to a utility in ``[-1, 1]``;
    missing attributes default to 0 (the global profile).  ``noise`` is
    the standard deviation of the Gaussian jitter added per draw, so two
    stores seeded differently get slightly different parameterizations
    of the same persona -- the conjoint analogue of respondent-level
    heterogeneity.
    """

    name: str
    weight: float
    part_worths: Tuple[Tuple[str, float], ...] = ()
    noise: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("persona name must be non-empty")
        if self.weight <= 0:
            raise ValueError("persona weight must be positive")
        if self.noise < 0:
            raise ValueError("persona noise must be non-negative")
        known = set(ATTRIBUTES)
        for attribute, utility in self.part_worths:
            if attribute not in known:
                raise ValueError(
                    f"unknown attribute {attribute!r}; known: {ATTRIBUTES}"
                )
            if not -1.0 <= utility <= 1.0:
                raise ValueError(
                    f"part-worth for {attribute!r} must lie in [-1, 1]"
                )

    def utility(self, attribute: str) -> float:
        """The persona's part-worth for one attribute (0 when unset)."""
        for name, value in self.part_worths:
            if name == attribute:
                return value
        return 0.0


#: The four personas ROADMAP item 4 names, with weights shaped so the
#: price-sensitive majority dominates (the paper: most users never pay).
DEFAULT_PERSONAS: Tuple[Persona, ...] = (
    Persona(
        name="price-sensitive",
        weight=0.35,
        part_worths=(("price", -0.9), ("affinity", 0.2), ("engagement", -0.2)),
    ),
    Persona(
        name="category-affine",
        weight=0.30,
        part_worths=(("affinity", 0.9), ("price", 0.1), ("engagement", 0.3)),
    ),
    Persona(
        name="update-chaser",
        weight=0.15,
        part_worths=(("updates", 0.9), ("affinity", -0.3), ("engagement", 0.5)),
    ),
    Persona(
        name="commenter",
        weight=0.20,
        part_worths=(("commenting", 0.9), ("affinity", 0.4), ("price", -0.2)),
    ),
)


def default_personas(count: Optional[int] = None) -> Tuple[Persona, ...]:
    """The shipped persona set, optionally truncated to ``count``.

    Weights are *not* renormalized here; the cumulative-floor partition
    normalizes internally, so a truncated set simply re-divides the
    population proportionally.
    """
    personas = DEFAULT_PERSONAS if count is None else DEFAULT_PERSONAS[:count]
    if not personas:
        raise ValueError("count must be >= 1")
    return personas


@dataclass(frozen=True)
class SegmentParams:
    """Resolved behaviour parameters of one persona segment.

    These are the *drawn* values the simulator runs on -- the output of
    the utility model, or hand-built for tests.  ``paid_tolerance``
    multiplies the paid-app clustered-accept probability (1.0 keeps the
    global 0.1), ``update_affinity`` weights the update re-download
    trickle toward the segment, and ``engagement`` scales the
    revenue-sim usage funnel.
    """

    name: str
    weight: float
    behavior: BehaviorParams = BehaviorParams()
    comment_probability: float = 0.08
    paid_tolerance: float = 1.0
    update_affinity: float = 1.0
    engagement: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("segment name must be non-empty")
        if self.weight <= 0:
            raise ValueError("segment weight must be positive")
        if not 0.0 <= self.comment_probability <= 1.0:
            raise ValueError("comment_probability must be in [0, 1]")
        for label, value in (
            ("paid_tolerance", self.paid_tolerance),
            ("update_affinity", self.update_affinity),
            ("engagement", self.engagement),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative")


@dataclass(frozen=True)
class UtilityModel:
    """Maps persona part-worth utilities to behaviour parameters.

    Each coefficient is the full-scale effect of a +1 utility on its
    attribute, applied around the anchor parameters:

    - ``affinity`` shifts the clustering probability ``p`` (additively,
      clipped to [0, 0.999]) and the cluster exponent ``zc``;
    - ``price`` scales the paid clustered-accept multiplier
      exponentially (so -1 utilities crush paid tolerance toward 0);
    - ``updates`` scales the update-refresh affinity exponentially;
    - ``commenting`` scales the comment probability exponentially
      (clipped to [0, 1]);
    - ``engagement`` scales the usage-funnel multiplier exponentially.
    """

    p_effect: float = 0.08
    zc_effect: float = 0.25
    zr_effect: float = 0.10
    price_effect: float = 1.5
    update_effect: float = 1.2
    comment_effect: float = 1.2
    engagement_effect: float = 0.7

    def resolve(
        self,
        persona: Persona,
        anchor_behavior: BehaviorParams,
        anchor_comment_probability: float,
        rng: np.random.Generator,
    ) -> SegmentParams:
        """Draw one segment's parameters for a persona around an anchor."""

        def drawn(attribute: str) -> float:
            utility = persona.utility(attribute)
            if persona.noise > 0:
                utility += persona.noise * float(rng.standard_normal())
            return float(np.clip(utility, -1.0, 1.0))

        u_price = drawn("price")
        u_affinity = drawn("affinity")
        u_updates = drawn("updates")
        u_commenting = drawn("commenting")
        u_engagement = drawn("engagement")

        behavior = replace(
            anchor_behavior,
            cluster_probability=float(
                np.clip(
                    anchor_behavior.cluster_probability
                    + self.p_effect * u_affinity,
                    0.0,
                    0.999,
                )
            ),
            cluster_exponent=max(
                0.05, anchor_behavior.cluster_exponent + self.zc_effect * u_affinity
            ),
            global_exponent=max(
                0.05, anchor_behavior.global_exponent - self.zr_effect * u_affinity
            ),
        )
        return SegmentParams(
            name=persona.name,
            weight=persona.weight,
            behavior=behavior,
            comment_probability=float(
                np.clip(
                    anchor_comment_probability
                    * np.exp(self.comment_effect * u_commenting),
                    0.0,
                    1.0,
                )
            ),
            paid_tolerance=float(np.exp(self.price_effect * u_price)),
            update_affinity=float(np.exp(self.update_effect * u_updates)),
            engagement=float(np.exp(self.engagement_effect * u_engagement)),
        )


def draw_segment_params(
    personas: Sequence[Persona],
    anchor_behavior: BehaviorParams,
    anchor_comment_probability: float,
    seed: SeedLike = None,
    utility_model: Optional[UtilityModel] = None,
) -> Tuple[SegmentParams, ...]:
    """Resolve persona segments through the utility model, seeded.

    One :class:`~numpy.random.SeedSequence` child is spawned per persona
    (in persona order), so each segment's jitter stream is independent
    and the whole draw is reproducible from ``seed`` alone -- adding or
    removing trailing personas never changes the leading segments.
    """
    if not personas:
        raise ValueError("at least one persona is required")
    model = utility_model or UtilityModel()
    streams = spawn_rngs(seed, len(personas))
    return tuple(
        model.resolve(
            persona,
            anchor_behavior,
            anchor_comment_probability,
            rng,
        )
        for persona, rng in zip(personas, streams)
    )


def global_segment(
    behavior: BehaviorParams, comment_probability: float, name: str = "global"
) -> SegmentParams:
    """The identity segment: one block carrying the global parameters.

    A profile segmented with exactly this reproduces the unsegmented
    dataset byte for byte (the single-segment exactness contract).
    """
    return SegmentParams(
        name=name,
        weight=1.0,
        behavior=behavior,
        comment_probability=comment_probability,
        paid_tolerance=1.0,
        update_affinity=1.0,
        engagement=1.0,
    )


def segment_boundaries(n_users: int, weights: Sequence[float]) -> np.ndarray:
    """Contiguous-block user boundaries from segment weights.

    Returns an ``int64`` array of length ``len(weights) + 1`` starting
    at 0 and ending at ``n_users``; segment ``k`` owns users
    ``[bounds[k], bounds[k+1])``.  Uses the cumulative-floor rule (the
    sharded runner's budget split), so blocks telescope exactly and a
    weight vector that sums to anything positive is accepted -- weights
    are normalized internally.
    """
    if n_users < 1:
        raise ValueError("n_users must be positive")
    values = np.asarray(weights, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(values <= 0):
        raise ValueError("segment weights must be positive")
    cumulative = np.cumsum(values) / values.sum()
    bounds = np.floor(n_users * cumulative).astype(np.int64)
    bounds[-1] = n_users
    return np.concatenate([np.zeros(1, dtype=np.int64), bounds])


class SegmentedPopulation:
    """A user population partitioned into contiguous persona blocks."""

    def __init__(self, segments: Sequence[SegmentParams], n_users: int) -> None:
        if not segments:
            raise ValueError("at least one segment is required")
        self.segments: Tuple[SegmentParams, ...] = tuple(segments)
        self.n_users = int(n_users)
        self.boundaries = segment_boundaries(
            self.n_users, [segment.weight for segment in self.segments]
        )

    @property
    def n_segments(self) -> int:
        """Number of persona segments."""
        return len(self.segments)

    @property
    def names(self) -> Tuple[str, ...]:
        """Segment names in block order."""
        return tuple(segment.name for segment in self.segments)

    @property
    def sizes(self) -> np.ndarray:
        """Users per segment (int64, sums to ``n_users``)."""
        return np.diff(self.boundaries)

    @property
    def uniform_update_affinity(self) -> bool:
        """Whether every segment shares one update affinity.

        When true the store's update-refresh draw uses the exact global
        code path (an unweighted choice), which is what makes
        equal-parameter partitions byte-identical to the global profile.
        """
        return len({segment.update_affinity for segment in self.segments}) == 1

    def segment_of(self, user_ids: Sequence[int]) -> np.ndarray:
        """Vectorized user -> segment index lookup."""
        users = np.asarray(user_ids, dtype=np.int64)
        if users.size and (
            users.min() < 0 or users.max() >= self.n_users
        ):
            raise ValueError("user ids out of range for this population")
        return np.searchsorted(self.boundaries[1:], users, side="right").astype(
            np.int64
        )

    def user_slice(self, segment_index: int) -> slice:
        """The contiguous user range one segment owns."""
        if not 0 <= segment_index < self.n_segments:
            raise ValueError(
                f"segment index must be in [0, {self.n_segments}), "
                f"got {segment_index}"
            )
        return slice(
            int(self.boundaries[segment_index]),
            int(self.boundaries[segment_index + 1]),
        )

    def describe(self) -> str:
        """One line per segment: name, block, and headline parameters."""
        lines = []
        for index, segment in enumerate(self.segments):
            block = self.user_slice(index)
            lines.append(
                f"{segment.name}: users [{block.start}, {block.stop}) "
                f"p={segment.behavior.cluster_probability:.3f} "
                f"zr={segment.behavior.global_exponent:.2f} "
                f"zc={segment.behavior.cluster_exponent:.2f} "
                f"comment={segment.comment_probability:.3f} "
                f"paid-tol={segment.paid_tolerance:.2f} "
                f"update={segment.update_affinity:.2f} "
                f"engagement={segment.engagement:.2f}"
            )
        return "\n".join(lines)


def segmented_profile(
    profile,
    personas: Optional[Sequence[Persona]] = None,
    seed: SeedLike = 0,
    utility_model: Optional[UtilityModel] = None,
):
    """A copy of a :class:`StoreProfile` with utility-drawn segments.

    Anchors the utility model at the profile's global behaviour and
    comment probability, draws one segment per persona, and returns
    ``replace(profile, segments=...)``.  Pass the result anywhere a
    profile goes -- :func:`~repro.marketplace.generator.build_store`,
    :func:`~repro.crawler.scheduler.run_crawl_campaign`, the service.
    """
    drawn = draw_segment_params(
        personas or DEFAULT_PERSONAS,
        profile.behavior,
        profile.comment_probability,
        seed=seed,
        utility_model=utility_model,
    )
    return replace(profile, segments=drawn)

