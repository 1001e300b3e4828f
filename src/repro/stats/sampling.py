"""Categorical sampling via the alias method (Vose's algorithm).

The Monte Carlo download simulators draw hundreds of thousands to millions of
samples from fixed categorical distributions (global Zipf over all apps,
per-cluster Zipf over the apps of a category).  A naive inverse-CDF search is
O(log n) per draw and, worse, re-building cumulative sums repeatedly is O(n).
The alias method spends O(n) once at construction and then answers each draw
in O(1) with exactly two random numbers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.devtools.flow import pure
from repro.stats.rng import SeedLike, make_rng


@pure
def _build_alias_table(weights: np.ndarray, total: float):
    """Vectorized Vose construction of the (prob, alias) tables.

    The classic construction pops one underfull ("small") and one
    overfull ("large") outcome per iteration of a Python loop.  This
    build finalizes *every* current small per pass instead: cumulative
    deficits of the smalls are matched against cumulative surpluses of
    the larges with one ``searchsorted``, each small takes its alias from
    the large its deficit lands on, and larges that drop below one
    re-enter the next pass as smalls.  Every pass finalizes all its
    smalls, so the number of passes is tiny in practice (Zipf-shaped
    inputs take a handful), and each pass is pure NumPy.

    The alias-method invariant is preserved exactly as in the scalar
    algorithm: finalizing small ``s`` against large ``g`` moves
    ``1 - p[s]`` of ``g``'s mass into column ``s``.  A boundary small
    whose deficit straddles two larges over-draws its large by less than
    one unit, which keeps that large's residual strictly positive --
    the same numerical-leftover regime the scalar build has, drained the
    same way (residuals converge to probability one).
    """
    n = weights.size
    scaled = weights * (n / total)
    alias = np.arange(n, dtype=np.int64)
    prob = np.ones(n, dtype=np.float64)

    small = np.flatnonzero(scaled < 1.0)
    large = np.flatnonzero(scaled >= 1.0)
    while small.size and large.size:
        deficits = 1.0 - scaled[small]
        surpluses = scaled[large] - 1.0
        # Which large does each small's cumulative deficit land on?  The
        # pool's total deficit equals its total surplus exactly, so only
        # float roundoff in the cumsums can push a boundary small past
        # the last large; clamping parks it there, over-drawing by at
        # most that roundoff.
        owner = np.searchsorted(np.cumsum(surpluses), np.cumsum(deficits))
        np.minimum(owner, large.size - 1, out=owner)
        prob[small] = scaled[small]
        alias[small] = large[owner]
        consumed = np.bincount(owner, weights=deficits, minlength=large.size)
        scaled[large] -= consumed
        still_large = scaled[large] >= 1.0
        small = large[~still_large]
        large = large[still_large]
    return prob, alias


class AliasSampler:
    """O(1) sampler over a fixed discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative weights, one per outcome.  They do not need to sum to
        one; normalization happens internally.

    Examples
    --------
    >>> sampler = AliasSampler([0.7, 0.2, 0.1])
    >>> draws = sampler.sample(1000, seed=42)
    >>> int(draws.min()) >= 0 and int(draws.max()) <= 2
    True
    """

    def __init__(self, weights) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        if weights.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("weights must have a positive sum")

        self._prob, self._alias = _build_alias_table(weights, total)
        self._weights = weights / total

    @property
    def n_outcomes(self) -> int:
        """Number of outcomes in the distribution."""
        return self._prob.size

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized outcome probabilities (a copy)."""
        return self._weights.copy()

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` outcome indices.

        Returns an ``int64`` array of indices in ``[0, n_outcomes)``.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        rng = make_rng(seed)
        columns = rng.integers(0, self.n_outcomes, size=size)
        coins = rng.random(size)
        take_alias = coins >= self._prob[columns]
        return np.where(take_alias, self._alias[columns], columns)

    def sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single outcome index using an existing generator."""
        column = int(rng.integers(0, self.n_outcomes))
        if rng.random() < self._prob[column]:
            return column
        return int(self._alias[column])




#: Head width of every law in a :class:`HeadTailSampler`.  Eight slots
#: keep a user's head-ownership bits inside a single ledger byte, and for
#: the paper's Zipf exponents the top eight outcomes already carry most of
#: the mass (85% at ``zr = 1.7``), so masked redraws in the tail are rare.
HEAD_SIZE = 8

#: ``_OPEN[b, j]``: head slot ``j`` is still open under ownership byte ``b``.
_OPEN = ((np.arange(256)[:, None] >> np.arange(HEAD_SIZE)[None, :]) & 1) == 0


class HeadTailSampler:
    """A stack of categorical laws, each split into a head and an alias tail.

    The fetch-at-most-once kernel renormalizes a law against a user's
    download ledger.  Doing that exactly over all ``n`` outcomes is O(n)
    per draw; doing it by rejection alone degenerates on the heavy head
    of a Zipf law, where a user quickly owns the most likely outcomes
    and nearly every redraw repeats one of them.  Splitting each law
    solves both ends:

    - the **head** -- the law's :data:`HEAD_SIZE` largest-weight outcomes
      -- is small enough to mask and renormalize exactly against
      per-user ownership bits;
    - the **tail** -- everything else -- is drawn from an alias table and
      thinned against the ledger, which is a near-certain accept because
      a user rarely owns much tail mass.

    One stack holds every law a kernel call may draw from: the global
    law is a stack of one, a model's or a store's clustered laws are one
    stack, so a round needs one call whatever law each user draws.  It
    holds:

    - ``heads`` -- an ``(L, 8)`` matrix of head outcomes, ``-1`` past the
      last outcome of a law with fewer than eight;
    - ``cum_table`` / ``avail_table`` -- the masked head cumulative
      weights for all 256 ownership bytes, 256 rows per table, one table
      per law (padded slots have zero width, so their bits never
      matter);
    - the tail alias tables, concatenated with per-table offsets, and
      each law's tail outcomes in alias-table order.

    Laws with equal weights (the paper's equal-size clusters) share one
    byte table and one alias table, with per-law head and tail-outcome
    rows; ``shared`` says so.  Sharing is a layout, not a stream: the
    shared tables hold exactly the rows each law would have, so the
    kernel draws the same values either way, just with an ownership
    byte as the row and one scalar bound for the tail column.

    Weights need not be normalized; head and tail masses share the input
    scale.  A law may be empty (a category with no listed app) or have no
    tail mass.  ``outcomes[l]`` maps law ``l``'s positions to external
    ids (cluster members to global app indices, say); by default they
    are the positions themselves.
    """

    def __init__(
        self, weights: Sequence, outcomes: Optional[Sequence] = None
    ) -> None:
        laws = [np.asarray(law, dtype=np.float64) for law in weights]
        if not laws:
            raise ValueError("a stack needs at least one law")
        if outcomes is None:
            outcomes = [np.arange(law.size, dtype=np.int64) for law in laws]
        else:
            outcomes = [np.asarray(ids, dtype=np.int64) for ids in outcomes]
            if len(outcomes) != len(laws) or any(
                ids.shape != law.shape for ids, law in zip(outcomes, laws)
            ):
                raise ValueError("outcomes must align with weights")
        for law in laws:
            if law.ndim != 1:
                raise ValueError("each law's weights must be 1-D")
            if np.any(law < 0) or not np.all(np.isfinite(law)):
                raise ValueError("weights must be finite and non-negative")
        #: Number of outcomes of each law.
        self.sizes = np.array([law.size for law in laws], dtype=np.int64)
        self.shared = all(np.array_equal(law, laws[0]) for law in laws[1:])
        tables = laws[:1] if self.shared else laws
        orders = [np.argsort(-law, kind="stable") for law in tables]

        cums, masses, probs, aliases = [], [], [], []
        for law, order in zip(tables, orders):
            head_weights = np.zeros(HEAD_SIZE, dtype=np.float32)
            k = min(HEAD_SIZE, law.size)
            head_weights[:k] = law[order[:k]]
            # float32 throughout: the handful of O(1)-magnitude partial
            # sums are far inside float32's exact range, and a table's
            # 256 rows stay in L1.
            cums.append(
                np.cumsum(
                    _OPEN * head_weights[None, :], axis=1, dtype=np.float32
                )
            )
            tail_weights = law[order[k:]]
            mass = float(tail_weights.sum())
            masses.append(mass)
            if mass > 0:
                prob, alias = _build_alias_table(tail_weights, mass)
            else:
                prob, alias = np.empty(0), np.empty(0, dtype=np.int64)
            probs.append(prob.astype(np.float32))
            aliases.append(alias)
        self.cum_table = np.ascontiguousarray(np.concatenate(cums))
        self.avail_table = np.ascontiguousarray(self.cum_table[:, -1])
        #: Tail mass of each table, in the input scale.
        self.tail_mass = np.array(masses, dtype=np.float32)
        self.has_tail = np.array(masses) > 0
        self._tail_sizes = np.array([p.size for p in probs], dtype=np.int64)
        self._table_starts = np.cumsum(self._tail_sizes) - self._tail_sizes
        self._prob32 = np.concatenate(probs)
        self._alias = np.concatenate(aliases)

        self.heads = np.full((len(laws), HEAD_SIZE), -1, dtype=np.int64)
        tail_outcomes = []
        for index, ids in enumerate(outcomes):
            table = 0 if self.shared else index
            order = orders[table]
            head = ids[order[:HEAD_SIZE]]
            self.heads[index, : head.size] = head
            tail = order[HEAD_SIZE:] if self.has_tail[table] else order[:0]
            tail_outcomes.append(ids[tail])
        # int32: tail draws only feed gathers and ledger compares.
        self._tail_outcomes = np.concatenate(tail_outcomes).astype(np.int32)
        sizes = np.array([ids.size for ids in tail_outcomes], dtype=np.int64)
        self._law_starts = np.cumsum(sizes) - sizes

    def sample_tail(
        self,
        law_ids: Optional[np.ndarray],
        size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``size`` tail outcomes (external ids, ``int32``, unthinned).

        Slot ``i`` draws from law ``law_ids[i]``'s tail, or from law 0's
        when ``law_ids`` is ``None``; every law drawn must have a tail.
        A table shared by every slot draws its columns with one scalar
        bound, and the accept coins are float32: a single threshold
        compare needs no double precision.
        """
        if law_ids is None or self.shared:
            columns = rng.integers(0, self._tail_sizes[0], size=size)
            cells = columns
        else:
            columns = rng.integers(0, self._tail_sizes[law_ids])
            cells = columns + self._table_starts[law_ids]
        take_alias = rng.random(size, dtype=np.float32) >= self._prob32[cells]
        ranks = np.where(take_alias, self._alias[cells], columns)
        if law_ids is None:
            return self._tail_outcomes[ranks]
        return self._tail_outcomes[self._law_starts[law_ids] + ranks]
