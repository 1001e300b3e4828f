"""Chunked, vectorized Monte Carlo engine for the workload models.

The paper's headline experiments (Figures 8-10 and 19) replay millions of
fetch-at-most-once downloads.  A per-event Python loop -- one
``AliasSampler.sample_one`` call plus one ``set`` membership check per
download -- runs at interpreter speed and wastes the O(1) batched draws
the alias method was chosen for.  This module batches the inner loop:

- :class:`EventBatch` -- a structured chunk of downloads (parallel
  ``user_ids`` / ``app_indices`` arrays) that replaces per-event objects
  on the hot path;
- :class:`DownloadLedger` -- the fetch-at-most-once membership structure,
  vectorized: a bit-packed ``(n_users, n_apps)`` ownership matrix or a
  compact ``(n_users, capacity)`` matrix of each user's downloaded app
  ids, whichever is smaller (:func:`ledger_mode`);
- :func:`masked_head_tail_draw` -- the one near-rejection-free kernel
  every fetch-at-most-once draw goes through: each user draws from its
  own law of a :class:`~repro.stats.sampling.HeadTailSampler` stack, the
  law's top-8 head is renormalized exactly against the user's ownership
  byte, and tail picks from the law's alias table are thinned against
  the ledger -- a near-certain accept, so redraw loops all but
  disappear;
- :func:`sample_new_apps` -- the rejection kernel of the feedback model,
  whose chart changes at every refresh: draw candidate apps for a whole
  window of user slots, reject already-downloaded (and intra-batch
  duplicate) picks vectorized, retry up to :data:`MAX_DRAW_ATTEMPTS`
  times;
- ``*_event_batches`` generators -- the three models of
  :mod:`repro.core.models` expressed as chunked batch streams.  The
  fetch-at-most-once streams are round-vectorized: round ``k`` serves
  the ``k``-th download of every user with budget left, so user slots
  within a kernel call are unique by construction (the batch-level dedup
  happens before any ledger lookup, not after a collision), and a round
  is at most one clustered and one global kernel call.

The per-user decision process is untouched: every user still runs the
exact Markov chain of Section 5.1, so the batched streams are
statistically equivalent to the legacy per-event paths (the test suite
asserts this); only the interleaving of *independent* users differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.devtools.flow import pure
from repro.obs.metrics import get_registry
from repro.stats.sampling import AliasSampler, HeadTailSampler

#: Default number of download slots processed per vectorized chunk.
DEFAULT_BATCH_SIZE = 65_536

#: Draw attempts per download slot before the slot is given up (and
#: counted under ``engine.events_unfilled``): the rounds of
#: :func:`sample_new_apps`, the tail redraws of the masked kernels, and
#: the per-event reference paths all stop here.
MAX_DRAW_ATTEMPTS = 64


@dataclass(frozen=True, slots=True)
class DownloadEvent:
    """One simulated download: which user fetched which app."""

    user_id: int
    app_index: int


class EventBatch:
    """A chunk of download events as parallel arrays.

    The batched pipeline moves ``(user, app)`` pairs around as ``int64``
    arrays instead of one frozen dataclass per event; consumers that need
    objects call :meth:`iter_events`.
    """

    __slots__ = ("user_ids", "app_indices")

    def __init__(self, user_ids, app_indices) -> None:
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.app_indices = np.asarray(app_indices, dtype=np.int64)
        if self.user_ids.shape != self.app_indices.shape:
            raise ValueError(
                f"user_ids and app_indices must align, got "
                f"{self.user_ids.shape} vs {self.app_indices.shape}"
            )
        if self.user_ids.ndim != 1:
            raise ValueError("EventBatch arrays must be 1-D")

    def __len__(self) -> int:
        return self.user_ids.size

    def __repr__(self) -> str:
        return f"EventBatch(n_events={len(self)})"

    def iter_events(self) -> Iterator[DownloadEvent]:
        """Yield the batch as per-event objects (compatibility path)."""
        for user_id, app_index in zip(
            self.user_ids.tolist(), self.app_indices.tolist()
        ):
            yield DownloadEvent(user_id=user_id, app_index=app_index)

    @staticmethod
    def concatenate(batches: List["EventBatch"]) -> "EventBatch":
        """Merge several batches into one, preserving order."""
        if not batches:
            return EventBatch(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        return EventBatch(
            np.concatenate([batch.user_ids for batch in batches]),
            np.concatenate([batch.app_indices for batch in batches]),
        )


#: ``_BIT[j]`` is the mask of bit ``j`` in a packed ledger byte.
_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


@pure
def ledger_mode(n_apps: int, capacity: int) -> str:
    """The backend a :class:`DownloadLedger` of this shape uses.

    The smaller footprint per user wins: a packed row costs
    ``ceil(n_apps / 8)`` bytes whatever the user downloads, a compact
    row ``4 * capacity`` bytes (``int32`` app ids).  Ties go to packed,
    whose lookups are a single gather.  The user count scales both
    alike, so it does not enter the choice.
    """
    return "packed" if (n_apps + 7) // 8 <= 4 * capacity else "compact"


class DownloadLedger:
    """Vectorized fetch-at-most-once bookkeeping for a user population.

    ``capacity`` bounds how many apps any one user may download; the
    budgeted streams know it before drawing (:func:`_budget_capacity`),
    the store passes ``n_apps``, and recording more raises
    ``ValueError``.  The backend follows from the shape
    (:func:`ledger_mode`):

    - ``"packed"`` -- a ``(n_users, ceil(n_apps / 8))`` ``uint8`` bit
      matrix: bit ``a & 7`` of byte ``a >> 3`` in row ``u`` says user
      ``u`` owns app ``a``.  Lookups and commits are one gather or
      scatter, and the owners of an app are one column read.
    - ``"compact"`` -- a ``(n_users, capacity)`` ``int32`` matrix of each
      user's downloaded app ids in download order, ``-1`` padded.  At
      paper scale (60k apps x 100k users, ten downloads each) this is
      4 MB against the packed matrix's 750 MB, so the whole structure
      stays cache-resident.  Ownership of registered top-``K`` head
      lists (see :meth:`head_bytes`) is kept as one contiguous ``uint8``
      row per head.

    Both backends consume no randomness and answer identically, so
    simulation output is bit-for-bit identical across them (tested).
    """

    def __init__(self, n_users: int, n_apps: int, capacity: int) -> None:
        if n_users < 1 or n_apps < 1:
            raise ValueError("n_users and n_apps must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.n_users = n_users
        self.n_apps = n_apps
        self.capacity = capacity
        self.mode = ledger_mode(n_apps, capacity)
        #: Number of distinct apps each user has downloaded.
        self.counts = np.zeros(n_users, dtype=np.int64)
        #: Total recorded downloads (drives the late-registration rebuild).
        self._n_events = 0
        self._bits: Optional[np.ndarray] = None
        self._owned: Optional[np.ndarray] = None
        # Registered head lists (compact mode): per-head uint8 mask rows
        # plus app -> (head row, bit) tables so adds keep masks current.
        self._head_rows: dict = {}
        self._stack_rows: dict = {}
        self._head_masks: Optional[np.ndarray] = None
        self._head_slot_row: Optional[np.ndarray] = None
        self._head_slot_bit: Optional[np.ndarray] = None
        if self.mode == "packed":
            self._bits = np.zeros((n_users, (n_apps + 7) // 8), dtype=np.uint8)
        else:
            self._owned = np.full((n_users, capacity), -1, dtype=np.int32)

    def contains(self, users: np.ndarray, apps: np.ndarray) -> np.ndarray:
        """Boolean mask: has ``users[i]`` already downloaded ``apps[i]``?"""
        if self._bits is not None:
            return (self._bits[users, apps >> 3] & _BIT[apps & 7]) != 0
        assert self._owned is not None
        rows = self._owned[users]
        # asarray is a no-copy view when callers already pass int32 (the
        # masked kernel's tail draws do).
        return (rows == np.asarray(apps, dtype=np.int32)[:, None]).any(axis=1)

    def owners(self, app: int) -> np.ndarray:
        """Ids of the users who own ``app``, ascending."""
        if self._bits is not None:
            return np.flatnonzero(self._bits[:, app >> 3] & _BIT[app & 7])
        assert self._owned is not None
        return np.flatnonzero((self._owned == app).any(axis=1))

    def owned(self, user: int) -> np.ndarray:
        """One user's ownership row: ``out[a]`` says ``user`` owns app ``a``."""
        if self._bits is not None:
            return np.unpackbits(
                self._bits[user], count=self.n_apps, bitorder="little"
            ).view(bool)
        assert self._owned is not None
        row = np.zeros(self.n_apps, dtype=bool)
        row[self._owned[user, : self.counts[user]]] = True
        return row

    def add(self, users: np.ndarray, apps: np.ndarray) -> None:
        """Record downloads.  Pairs must be new and free of duplicates.

        A user may appear several times (the rejection kernel commits a
        whole refresh window at once, the store a user's whole day).
        The packed backend ORs every bit in with one unbuffered scatter.
        The compact one ranks each pair within its user's run by one
        stable sort; pairs of equal rank belong to distinct users, so
        each rank commits as one :meth:`add_unique`, and every pair
        lands in the slot a one-at-a-time commit in input order would
        give it.  Either every pair fits the capacity or none is
        recorded.
        """
        if users.size == 0:
            return
        order = np.argsort(users, kind="stable")
        users, apps = users[order], apps[order]
        starts = np.flatnonzero(np.diff(users, prepend=-1))
        lengths = np.diff(starts, append=users.size)
        self._check_capacity(self.counts[users[starts]] + lengths)
        if self._bits is not None:
            self._n_events += users.size
            self.counts[users[starts]] += lengths
            np.bitwise_or.at(self._bits, (users, apps >> 3), _BIT[apps & 7])
            return
        rank = np.arange(users.size) - np.repeat(starts, lengths)
        for level in range(int(lengths.max())):
            at = rank == level
            self.add_unique(users[at], apps[at])

    def add_unique(self, users: np.ndarray, apps: np.ndarray) -> None:
        """Record downloads for *distinct* users (one pair per user).

        The round-vectorized streams serve at most one download per user
        per kernel call, so ``users`` carries no duplicates and every
        scatter is a direct fancy-index store.
        """
        if users.size == 0:
            return
        slots = self.counts[users]
        filled = slots + 1
        self._check_capacity(filled)
        self._n_events += users.size
        self.counts[users] = filled
        if self._bits is not None:
            # Distinct users write distinct bytes, so the buffered
            # fancy-index OR loses no bit.
            self._bits[users, apps >> 3] |= _BIT[apps & 7]
            return
        assert self._owned is not None
        self._owned[users, slots] = apps
        self._update_head_masks(users, apps)

    def _check_capacity(self, filled: np.ndarray) -> None:
        """Raise before recording when a user would exceed ``capacity``."""
        if int(filled.max()) > self.capacity:
            raise ValueError(
                "ledger capacity exceeded; construct with a larger "
                "per-user capacity"
            )

    def _register_head(self, apps: np.ndarray) -> int:
        """Register a head app list and return its mask row index.

        Each registered head gets one contiguous ``(n_users,)`` uint8
        mask row: bit ``j`` of ``masks[row, u]`` says user ``u`` owns
        ``apps[j]``.  Adds keep the masks current through per-app
        ``(row, bit)`` tables; registration after downloads were already
        recorded rebuilds the row from the owned matrix.  An app can sit
        in at most two heads (its global top-``K`` slot and its
        cluster's) -- a third registration of the same app raises.
        """
        assert self._owned is not None
        if apps.size > 8:
            raise ValueError("a head mask row holds at most 8 apps")
        row = len(self._head_rows)
        if self._head_slot_row is None:
            self._head_slot_row = np.full((2, self.n_apps), -1, dtype=np.int16)
            self._head_slot_bit = np.zeros((2, self.n_apps), dtype=np.uint8)
            self._head_masks = np.zeros((8, self.n_users), dtype=np.uint8)
        assert self._head_masks is not None
        if row >= self._head_masks.shape[0]:
            # Grow by doubling; per-registration concatenation would copy
            # the whole mask block once per registered head.
            grown = np.zeros(
                (2 * self._head_masks.shape[0], self.n_users), dtype=np.uint8
            )
            grown[: self._head_masks.shape[0]] = self._head_masks
            self._head_masks = grown
        assert self._head_slot_bit is not None and self._head_masks is not None
        for j, app in enumerate(apps.tolist()):
            if self._head_slot_row[0, app] < 0:
                level = 0
            elif self._head_slot_row[1, app] < 0:
                level = 1
            else:
                raise ValueError(
                    f"app {app} already belongs to two registered heads"
                )
            self._head_slot_row[level, app] = row
            self._head_slot_bit[level, app] = np.uint8(1 << j)
        if self._n_events:
            # Late registration: rebuild ownership bits from the owned
            # matrix.  Streams register heads on an empty ledger, where
            # this scan is skipped entirely (rows are pre-zeroed).
            mask = np.zeros(self.n_users, dtype=np.uint8)
            for j, app in enumerate(apps.tolist()):
                mask |= (
                    (self._owned == app).any(axis=1).astype(np.uint8)
                    << np.uint8(j)
                )
            self._head_masks[row] = mask
        self._head_rows[apps.tobytes()] = row
        return row

    def prepare_heads(self, heads: np.ndarray) -> None:
        """Pre-register a stack's head matrix (compact mode; no-op otherwise).

        Registration is cheapest while the ledger is empty; the kernel
        registers on first use, but a stream that knows its laws up
        front should call this right after construction.
        """
        if self._owned is not None:
            self._stack_head_rows(heads)

    def _stack_head_rows(self, heads: np.ndarray) -> np.ndarray:
        """Mask row of each law of a ``(L, 8)`` head matrix (``-1``
        padded), registering heads not seen before; laws with the same
        head share a row."""
        key = heads.tobytes()
        rows = self._stack_rows.get(key)
        if rows is None:
            rows = np.empty(heads.shape[0], dtype=np.int64)
            for law, head in enumerate(heads):  # repro: noqa=RPL020 -- one-time registration, once per law
                apps = head[head >= 0]
                row = self._head_rows.get(apps.tobytes())
                rows[law] = self._register_head(apps) if row is None else row
            self._stack_rows[key] = rows
        return rows

    def _update_head_masks(self, users: np.ndarray, apps: np.ndarray) -> None:
        if self._head_slot_row is None:
            return
        assert self._head_slot_bit is not None and self._head_masks is not None
        # Level 0 hits are common (head mass dominates Zipf draws), so the
        # unconditional scatter wins: non-head apps carry bit 0, and
        # clamping their row to 0 makes the OR a no-op -- cheaper than
        # materializing a hit mask and filtering three arrays.  Level 1
        # only holds apps registered in *two* heads, so there filtering
        # to the few hits first is cheaper.
        rows = self._head_slot_row[0, apps]
        self._head_masks[np.maximum(rows, 0), users] |= self._head_slot_bit[
            0, apps
        ]
        rows = self._head_slot_row[1, apps]
        hit = np.flatnonzero(rows >= 0)
        if hit.size:
            self._head_masks[rows[hit], users[hit]] |= self._head_slot_bit[
                1, apps[hit]
            ]

    def head_bytes(
        self,
        users: np.ndarray,
        heads: np.ndarray,
        law_ids: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-user ownership byte of the head of the user's law.

        ``heads`` is a stack's ``(L, 8)`` head matrix (``-1`` past a
        law's last head app) and ``law_ids[i]`` names the law of
        ``users[i]``; ``None`` gives every user law 0.  Bit ``j`` of
        ``out[i]`` says ``users[i]`` already downloaded head slot ``j``
        of its law; padded slots read as not owned.  This is the gather
        the masked kernel leans on.  The compact backend keeps each head
        as a registered mask row (heads register on first use); the
        packed backend gathers the eight bits and packs them, so any
        head works without registration.
        """
        if self._bits is not None:
            columns = heads >> 3
            masks = np.where(heads >= 0, _BIT[heads & 7], np.uint8(0))
            if law_ids is None:
                columns, masks = columns[0], masks[0]
            else:
                columns, masks = columns[law_ids], masks[law_ids]
            owned = (self._bits[users[:, None], columns] & masks) != 0
            return np.packbits(owned, axis=1, bitorder="little")[:, 0]
        rows = self._stack_head_rows(heads)
        assert self._head_masks is not None
        if law_ids is None:
            return self._head_masks[rows[0], users]
        return self._head_masks[rows[law_ids], users]

    def saturated(self, users: np.ndarray) -> np.ndarray:
        """Mask of users that have already downloaded every app."""
        return self.counts[users] >= self.n_apps


@pure
def _budget_capacity(total_downloads: int, n_users: int) -> int:
    """Largest per-user budget :func:`per_user_budgets` can assign --
    the compact ledger's capacity, known before any randomness."""
    base = total_downloads // n_users
    return max(1, base + (1 if total_downloads % n_users else 0))


@pure
def per_user_budgets(
    total_downloads: int, n_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Split ``total_downloads`` into per-user budgets, as even as possible.

    Every user gets ``floor(D / U)`` downloads, and the remainder is
    assigned to a random subset of users, matching the paper's "each user
    downloads d apps" with integer budgets.
    """
    base = total_downloads // n_users
    budgets = np.full(n_users, base, dtype=np.int64)
    remainder = total_downloads - base * n_users
    if remainder > 0:
        lucky = rng.choice(n_users, size=remainder, replace=False)
        budgets[lucky] += 1
    return budgets


@pure
def interleaved_user_order(
    budgets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Shuffle user download slots so the event stream interleaves users.

    Each user ``u`` appears ``budgets[u]`` times.  A global shuffle models
    users downloading concurrently over the measurement period rather than
    one user finishing before the next starts, which matters to consumers
    of the *event order* (the LRU cache experiment).
    """
    order = np.repeat(np.arange(budgets.size, dtype=np.int64), budgets)
    rng.shuffle(order)
    return order


def sample_new_apps(
    draw: Callable[[int], np.ndarray],
    users: np.ndarray,
    ledger: DownloadLedger,
) -> np.ndarray:
    """Draw one not-yet-downloaded app per user slot, vectorized.

    ``draw(size)`` produces candidate app indices (e.g. an alias-sampler
    batch, or uniform picks from a chart).  ``users`` may repeat a user id
    (several pending slots of the same user); intra-batch duplicates are
    rejected alongside ledger hits, so fetch-at-most-once holds exactly.
    Accepted pairs are recorded into the ledger immediately.

    Returns an ``int64`` array aligned with ``users``; ``-1`` marks slots
    for which no new app was found within :data:`MAX_DRAW_ATTEMPTS`
    attempts.
    """
    metrics = get_registry()
    retry_counter = metrics.counter("engine.rejection_retries")
    apps = np.full(users.size, -1, dtype=np.int64)
    pending = np.flatnonzero(~ledger.saturated(users))
    for round_index in range(MAX_DRAW_ATTEMPTS):
        if pending.size == 0:
            break
        if round_index:
            # Redraw rounds only: the first draw of a batch is not a retry.
            retry_counter.add(1)
        draws = draw(pending.size)
        ok = ~ledger.contains(users[pending], draws)
        # Reject intra-batch duplicates: among slots surviving so far,
        # only the first occurrence of each (user, app) pair may commit.
        keys = users[pending] * np.int64(ledger.n_apps) + draws
        _, first_positions = np.unique(keys, return_index=True)
        first = np.zeros(pending.size, dtype=bool)
        first[first_positions] = True
        ok &= first
        accepted = pending[ok]
        if accepted.size:
            apps[accepted] = draws[ok]
            ledger.add(users[accepted], draws[ok])
        pending = pending[~ok]
        if pending.size:
            pending = pending[~ledger.saturated(users[pending])]
    if pending.size:
        metrics.counter("engine.slots_unfilled").add(int(pending.size))
    unfilled = int(np.count_nonzero(apps < 0))
    if unfilled:
        # Every -1 sentinel is a download that silently never happened --
        # rejection-cap failures *and* pre-saturated slots.  Count them
        # all so saturation is visible in campaign stats.
        metrics.counter("engine.events_unfilled").add(unfilled)
    return apps


def masked_head_tail_draw(
    laws: HeadTailSampler,
    users: np.ndarray,
    law_ids: Optional[np.ndarray],
    ledger: DownloadLedger,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one not-yet-downloaded app per user, near-rejection-free.

    ``users[i]`` draws from law ``law_ids[i]`` of the stack ``laws``
    (``law_ids=None``: every user draws law 0), so one call serves a
    whole round whatever law each user is on.  ``users`` must be
    **unique** (the round-vectorized streams guarantee it: one slot per
    user per round), so accepted picks cannot collide within a call and
    nothing here mutates the ledger -- the caller commits accepted pairs
    afterwards with :meth:`DownloadLedger.add_unique`.

    The draw is exact, not approximate.  Per user, the target law is the
    user's law renormalized over apps the user does not own.  The head
    part is materialized: the ledger's ownership byte picks a row of the
    law's byte table, which zeroes out owned head weights, and a single
    uniform over ``masked_head_mass + tail_mass`` both routes the draw
    and picks the head slot (owned and padded slots have zero width in
    the cumulative sum, so they are skipped for free).  Draws routed to
    the tail sample the law's alias table and are thinned against the
    ledger; a rejected tail pick re-enters the *whole* mixture draw,
    which is classic rejection sampling of the renormalized law with
    acceptance probability ``1 - owned_tail_mass / (masked_head_mass +
    tail_mass)`` -- near one for Zipf-shaped inputs, where ownership
    concentrates in the head.

    When one byte table serves the whole call (a single law, or laws
    that share their tables), the ownership byte itself is the table
    row and every tail column has one scalar bound; otherwise each law's
    256 rows follow the previous law's and tail bounds are per user.
    Both ledger backends consume no randomness and return identical
    bytes, so output is bit-identical across them.  Returns ``-1`` for
    users with nothing left to draw (or, pathologically, users that
    exhaust :data:`MAX_DRAW_ATTEMPTS` while owning almost the whole
    tail); failures are counted under ``engine.events_unfilled`` by the
    stream.
    """
    metrics = get_registry()
    redraw_counter = metrics.counter("engine.tail_redraws")
    n = users.size
    apps = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return apps
    chunk = ledger.head_bytes(users, laws.heads, law_ids)
    # ``table``: each user's byte and alias table, or 0 for every user.
    if law_ids is None or laws.shared:
        table, rows = 0, chunk
    else:
        table, rows = law_ids, (law_ids.astype(np.intp) << 8) | chunk
    head_avail = laws.avail_table[rows]
    total = head_avail + laws.tail_mass[table]
    lacking_tail = None
    if laws.has_tail.all():
        # Positive tail mass keeps every total positive: all users pend.
        pending = np.arange(n, dtype=np.int64)
        full = True
    else:
        # Users with no head mass left and no tail have nothing to draw.
        pending = np.flatnonzero(total > 0)
        full = pending.size == n
        lacking_tail = np.broadcast_to(~laws.has_tail[table], (n,))
    for attempt in range(MAX_DRAW_ATTEMPTS):
        if pending.size == 0:
            break
        if attempt:
            redraw_counter.add(int(pending.size))
        if full and attempt == 0:
            total_p, avail_p = total, head_avail
        else:
            total_p, avail_p = total[pending], head_avail[pending]
        r = rng.random(pending.size, dtype=np.float32) * total_p
        in_head = r < avail_p
        head_rows = pending[in_head]
        if head_rows.size:
            picks = (laws.cum_table[rows[head_rows]] <= r[in_head, None]).sum(
                axis=1
            )
            if law_ids is None:
                apps[head_rows] = laws.heads[0, picks]
            else:
                apps[head_rows] = laws.heads[law_ids[head_rows], picks]
        tail_rows = pending[~in_head]
        stuck = tail_rows[:0]
        if lacking_tail is not None:
            # r == head_avail exactly (a float32 rounding at the top of
            # the head) under a law without a tail: nothing outside the
            # head to fall back to, so the draw is repeated.
            lacking = lacking_tail[tail_rows]
            stuck, tail_rows = tail_rows[lacking], tail_rows[~lacking]
        if tail_rows.size:
            draws = laws.sample_tail(
                None if law_ids is None else law_ids[tail_rows],
                tail_rows.size,
                rng,
            )
            fresh = ~ledger.contains(users[tail_rows], draws)
            apps[tail_rows[fresh]] = draws[fresh]
            tail_rows = tail_rows[~fresh]
        pending = np.union1d(tail_rows, stuck) if stuck.size else tail_rows
    return apps


class VisitedClusters:
    """Per-user visited-cluster lists, vectorized.

    The APP-CLUSTERING process picks uniformly among the clusters a user
    has already downloaded from.  Lists are stored as a fixed-width
    ``(n_users, width)`` matrix plus a fill count; the width is bounded by
    ``min(n_clusters, max downloads per user)`` since a user cannot visit
    more clusters than apps they download.
    """

    def __init__(self, n_users: int, n_clusters: int, max_per_user: int) -> None:
        width = max(1, min(n_clusters, max_per_user))
        # Narrow ids keep the per-round gathers cache-light; cluster
        # counts overflowing int16 fall back to int64.
        dtype = np.int16 if n_clusters <= np.iinfo(np.int16).max else np.int64
        self._lists = np.zeros((n_users, width), dtype=dtype)
        self._count = np.zeros(n_users, dtype=np.int64)
        self._width = width
        # With <= 64 clusters, one uint64 per user answers "already
        # visited?" with a single gather instead of a row scan.
        self._bitmask = (
            np.zeros(n_users, dtype=np.uint64) if n_clusters <= 64 else None
        )
        self._bit_of = (
            np.uint64(1) << np.arange(n_clusters, dtype=np.uint64)
            if self._bitmask is not None
            else None
        )

    @property
    def counts(self) -> np.ndarray:
        """Visited-cluster count per user (a view; do not mutate)."""
        return self._count

    def choose(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniformly pick one visited cluster per user (counts must be > 0).

        Draws float32 uniforms (cheaper to generate than float64).
        Returns the lists' native narrow dtype; cluster ids index small
        per-cluster tables downstream, where narrow indices are cheaper.
        """
        counts = self._count[users]
        picks = (rng.random(users.size, dtype=np.float32) * counts).astype(
            np.int64
        )
        np.minimum(picks, counts - 1, out=picks)  # guard the r == 1.0 edge
        return self._lists[users, picks]

    def clusters(self, user: int) -> np.ndarray:
        """One user's visited clusters, in the order first visited."""
        return self._lists[user, : self._count[user]]

    def extend(self, user: int, clusters: Sequence[int]) -> None:
        """Append clusters to one user's list, in order; they must be
        distinct and not visited yet."""
        if not clusters:
            return
        fill = int(self._count[user])
        self._lists[user, fill : fill + len(clusters)] = clusters
        self._count[user] = fill + len(clusters)
        if self._bitmask is not None:
            assert self._bit_of is not None
            self._bitmask[user] |= np.bitwise_or.reduce(
                self._bit_of[np.asarray(clusters)]
            )

    def record(self, users: np.ndarray, clusters: np.ndarray) -> None:
        """Append clusters not yet in each user's list (users unique)."""
        if users.size == 0:
            return
        clusters = clusters.astype(self._lists.dtype)
        if self._bitmask is not None:
            bits = self._bit_of[clusters]
            seen = self._bitmask[users]
            fresh = np.flatnonzero((seen & bits) == 0)
            if fresh.size:
                fresh_users = users[fresh]
                self._bitmask[fresh_users] = seen[fresh] | bits[fresh]
                fills = self._count[fresh_users]
                self._lists[fresh_users, fills] = clusters[fresh]
                self._count[fresh_users] = fills + 1
            return
        rows = self._lists[users]
        positions = np.arange(self._width, dtype=np.int64)[None, :]
        filled = positions < self._count[users, None]
        already = np.any(filled & (rows == clusters[:, None]), axis=1)
        fresh = ~already
        if np.any(fresh):
            fresh_users = users[fresh]
            self._lists[fresh_users, self._count[fresh_users]] = clusters[fresh]
            self._count[fresh_users] += 1


@pure
def _chunks(order: np.ndarray, batch_size: int) -> Iterator[np.ndarray]:
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def zipf_event_batches(
    sampler: AliasSampler,
    n_users: int,
    total_downloads: int,
    rng: np.random.Generator,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[EventBatch]:
    """Pure ZIPF downloads as a chunked batch stream."""
    metrics = get_registry()
    batch_counter = metrics.counter("engine.batches")
    event_counter = metrics.counter("engine.events")
    budgets = per_user_budgets(total_downloads, n_users, rng)
    order = interleaved_user_order(budgets, rng)
    for chunk in _chunks(order, batch_size):
        batch_counter.add(1)
        event_counter.add(int(chunk.size))
        yield EventBatch(chunk, sampler.sample(chunk.size, seed=rng))


def zipf_amo_event_batches(
    law: HeadTailSampler,
    n_users: int,
    total_downloads: int,
    rng: np.random.Generator,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[EventBatch]:
    """ZIPF-at-most-once downloads as a round-vectorized batch stream.

    ``law`` is a stack of one law over the apps ``0 .. n_apps - 1``.

    Round ``k`` serves the ``k``-th download of every user with budget
    left, in ascending user order: user slots within a round are unique
    by construction, so the masked head/tail kernel needs no intra-batch
    dedup and ledger commits are direct fancy-index stores.  Ascending
    order also keeps the per-round gathers and scatters sequential in
    memory, which is where most of the throughput comes from.  The event
    stream still interleaves users -- every user appears once per round --
    just deterministically instead of shuffled.  Users whose draw fails
    (``-1``) are counted under ``engine.events_unfilled`` and dropped.
    """
    metrics = get_registry()
    batch_counter = metrics.counter("engine.batches")
    event_counter = metrics.counter("engine.events")
    unfilled_counter = metrics.counter("engine.events_unfilled")
    n_apps = int(law.sizes[0])
    ledger = DownloadLedger(
        n_users, n_apps, _budget_capacity(total_downloads, n_users)
    )
    ledger.prepare_heads(law.heads)
    budgets = per_user_budgets(total_downloads, n_users, rng)
    # Budgets take exactly two values (base and base + 1), so the round
    # structure is analytic: every user holds budget for the first
    # ``base`` rounds, then only the remainder users for one more --
    # no per-round budget scan needed.  And when the per-user capacity
    # cannot reach ``n_apps``, no user can ever saturate, so the
    # saturation filter is settled once up front.
    base = total_downloads // n_users
    everyone = np.arange(n_users, dtype=np.int64)
    rounds = [everyone] * base
    if total_downloads % n_users:
        rounds.append(np.flatnonzero(budgets > base))
    can_saturate = _budget_capacity(total_downloads, n_users) >= n_apps
    for holders in rounds:
        if holders.size == 0:
            continue
        if can_saturate:
            active = holders[~ledger.saturated(holders)]
            # Saturated users' download slots vanish before the kernel
            # ever sees them -- count them, same as a failed draw, so
            # campaign stats show every slot that produced no event.
            if active.size < holders.size:
                unfilled_counter.add(holders.size - active.size)
        else:
            active = holders
        if active.size == 0:
            continue
        apps = masked_head_tail_draw(law, active, None, ledger, rng)
        done = apps >= 0
        n_unfilled = active.size - int(np.count_nonzero(done))
        if n_unfilled:
            unfilled_counter.add(n_unfilled)
            done_users = active[done]
            done_apps = apps[done]
        else:  # every slot filled: skip two full-round gathers
            done_users, done_apps = active, apps
        ledger.add_unique(done_users, done_apps)
        for start in range(0, done_users.size, batch_size):
            stop = start + batch_size
            batch_counter.add(1)
            event_counter.add(int(done_users[start:stop].size))
            yield EventBatch(done_users[start:stop], done_apps[start:stop])


def app_clustering_event_batches(
    n_users: int,
    total_downloads: int,
    p: float,
    cluster_of: np.ndarray,
    rng: np.random.Generator,
    global_law: HeadTailSampler,
    cluster_laws: HeadTailSampler,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[EventBatch]:
    """APP-CLUSTERING downloads as a round-vectorized batch stream.

    Round ``k`` processes the ``k``-th download of every user that still
    has budget, in ascending user order: clustered slots draw from the
    law of a visited cluster (``cluster_laws`` holds one law per cluster
    id), cluster-saturated and non-clustered slots fall back to the
    global law -- the exact per-user process of Section 5.1.  A round is
    at most two masked-kernel calls, one clustered and one global, so
    users within a call are unique and commits are direct stores.  Users
    are independent, so vectorizing across them changes only the
    interleaving of the event stream, not its statistics.
    """
    metrics = get_registry()
    batch_counter = metrics.counter("engine.batches")
    event_counter = metrics.counter("engine.events")
    unfilled_counter = metrics.counter("engine.events_unfilled")
    n_apps = cluster_of.size
    ledger = DownloadLedger(
        n_users, n_apps, _budget_capacity(total_downloads, n_users)
    )
    budgets = per_user_budgets(total_downloads, n_users, rng)
    n_clusters = int(cluster_of.max()) + 1 if n_apps else 1
    max_budget = int(budgets.max()) if budgets.size else 0
    visited = VisitedClusters(n_users, n_clusters, max_budget)
    # Same analytic round structure as the AMO stream: all users for the
    # first ``base`` rounds, remainder users once more, saturation
    # impossible while per-user capacity stays below ``n_apps``.
    base = total_downloads // n_users
    everyone = np.arange(n_users, dtype=np.int64)
    rounds = [everyone] * base
    if total_downloads % n_users:
        rounds.append(np.flatnonzero(budgets > base))
    can_saturate = _budget_capacity(total_downloads, n_users) >= n_apps
    ledger.prepare_heads(global_law.heads)
    ledger.prepare_heads(cluster_laws.heads)

    for holders in rounds:
        if holders.size == 0:
            continue
        if can_saturate:
            active = holders[~ledger.saturated(holders)]
            # As in the AMO stream: slots lost to saturation are counted
            # next to failed draws, never silently dropped.
            if active.size < holders.size:
                unfilled_counter.add(holders.size - active.size)
        else:
            active = holders
        if active.size == 0:
            continue

        apps = np.full(active.size, -1, dtype=np.int64)
        clustered = (visited.counts[active] > 0) & (
            rng.random(active.size, dtype=np.float32) < np.float32(p)
        )
        slots = np.flatnonzero(clustered)
        if slots.size:
            chosen = visited.choose(active[slots], rng)
            apps[slots] = masked_head_tail_draw(
                cluster_laws, active[slots], chosen, ledger, rng
            )
        fallback = np.flatnonzero(apps < 0)
        if fallback.size:
            apps[fallback] = masked_head_tail_draw(
                global_law, active[fallback], None, ledger, rng
            )
        done = apps >= 0
        n_unfilled = active.size - int(np.count_nonzero(done))
        if n_unfilled:
            unfilled_counter.add(n_unfilled)
            done_users = active[done]
            done_apps = apps[done]
        else:  # every slot filled: skip two full-round gathers
            done_users, done_apps = active, apps
        if done_users.size == 0:
            continue
        ledger.add_unique(done_users, done_apps)
        visited.record(done_users, cluster_of[done_apps])
        for start in range(0, done_users.size, batch_size):
            stop = start + batch_size
            batch_counter.add(1)
            event_counter.add(int(done_users[start:stop].size))
            yield EventBatch(done_users[start:stop], done_apps[start:stop])


def counts_from_batches(
    batches: Iterator[EventBatch], n_apps: int
) -> np.ndarray:
    """Accumulate per-app download counts over a batch stream."""
    counts = np.zeros(n_apps, dtype=np.int64)
    for batch in batches:
        counts += np.bincount(batch.app_indices, minlength=n_apps)
    return counts


def events_from_batches(
    batches: Iterator[EventBatch],
) -> Iterator[DownloadEvent]:
    """Flatten a batch stream into per-event objects (compat adapter)."""
    for batch in batches:
        yield from batch.iter_events()
