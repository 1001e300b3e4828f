"""Tests for repro.core.engine (the vectorized batch pipeline).

Two families of guarantees:

- **exact invariants** -- fetch-at-most-once, budget ceilings, index
  ranges, bit-identical output across the two ledger backends, pinned
  stream hashes, and the masked kernel called directly: against the
  enumerated renormalized law of every user and against copies of the
  single-law and grouped kernels it replaced;
- **statistical equivalence** -- the batched streams reproduce the same
  per-app download distributions as the legacy per-event reference
  implementations (total-variation distance at sampling-noise level).
"""

import copy
import hashlib

import numpy as np
import pytest

import repro.core.engine as engine
import repro.marketplace.behavior as behavior_module
from repro.core.engine import (
    DownloadEvent,
    DownloadLedger,
    EventBatch,
    VisitedClusters,
    counts_from_batches,
    interleaved_user_order,
    masked_head_tail_draw,
    per_user_budgets,
    sample_new_apps,
)
from repro.core.feedback import (
    RecommenderFeedbackModel,
    RecommenderFeedbackParams,
)
from repro.core.models import (
    AppClusteringModel,
    AppClusteringParams,
    ZipfAtMostOnceModel,
    ZipfModel,
)
from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.stats.rng import make_rng
from repro.stats.sampling import AliasSampler, HeadTailSampler
from repro.stats.zipf import zipf_weights


class TestEventBatch:
    def test_len_and_arrays(self):
        batch = EventBatch([1, 2, 3], [10, 20, 30])
        assert len(batch) == 3
        assert batch.user_ids.dtype == np.int64
        assert batch.app_indices.dtype == np.int64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([1, 2], [10])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([[1], [2]], [[10], [20]])

    def test_iter_events_yields_objects(self):
        batch = EventBatch([5, 6], [50, 60])
        events = list(batch.iter_events())
        assert events == [DownloadEvent(5, 50), DownloadEvent(6, 60)]

    def test_concatenate_preserves_order(self):
        merged = EventBatch.concatenate(
            [EventBatch([1], [10]), EventBatch([2, 3], [20, 30])]
        )
        assert merged.user_ids.tolist() == [1, 2, 3]
        assert merged.app_indices.tolist() == [10, 20, 30]

    def test_concatenate_empty_list(self):
        assert len(EventBatch.concatenate([])) == 0


def _force_mode(patch, backend):
    """Make every ledger built under ``patch`` use ``backend``."""
    patch.setattr(engine, "ledger_mode", lambda n_apps, capacity: backend)


def _ledger(monkeypatch, backend, n_users, n_apps, capacity):
    """A ledger on the named backend, whatever its shape would pick."""
    with monkeypatch.context() as patch:
        _force_mode(patch, backend)
        ledger = DownloadLedger(n_users, n_apps, capacity)
    assert ledger.mode == backend
    return ledger


BACKENDS = ("packed", "compact")


def _heads(*lists):
    """A stack's ``(L, 8)`` head matrix, ``-1`` past each list's end."""
    heads = np.full((len(lists), 8), -1, dtype=np.int64)
    for law, apps in enumerate(lists):
        heads[law, : len(apps)] = apps
    return heads


class TestDownloadLedger:
    def test_mode_auto_selection(self):
        # The census shapes: the cache bench's population and the store
        # tick (capacity n_apps) are packed, the 60k-app x 100k-user
        # reference population is compact.
        assert DownloadLedger(12_000, 1_200, 84).mode == "packed"
        assert DownloadLedger(70_000, 2_340, 2_340).mode == "packed"
        assert DownloadLedger(100_000, 60_000, 10).mode == "compact"

    def test_backend_bytes_boundaries(self):
        """Packed exactly while its row, ``ceil(n_apps / 8)`` bytes, is no
        larger than a compact row of ``4 * capacity`` bytes; one byte
        more lands on compact, whatever the user count."""
        assert DownloadLedger(100, 160, 5).mode == "packed"
        assert DownloadLedger(100, 153, 5).mode == "packed"
        assert DownloadLedger(100, 161, 5).mode == "compact"
        assert DownloadLedger(1, 161, 5).mode == "compact"
        assert DownloadLedger(100, 161, 6).mode == "packed"
        # The chosen backend's rows: 20 packed bytes, then 20 compact
        # bytes where packed rows would take 21.
        assert DownloadLedger(100, 160, 5)._bits.shape == (100, 20)
        assert DownloadLedger(100, 161, 5)._owned.shape == (100, 5)
        assert DownloadLedger(3, 161, 6)._bits.shape == (3, 21)

    def test_store_shape_footprint(self):
        """The store tick's ledger (every user may own every app): 70,000
        users x 2,340 apps packs into 20.5 MB, where a compact matrix
        wide enough for the catalog would take 655 MB."""
        ledger = DownloadLedger(70_000, 2_340, 2_340)
        assert ledger.mode == "packed"
        assert ledger._bits.nbytes == 70_000 * 293

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_owners_ascending(self, monkeypatch, mode):
        ledger = _ledger(monkeypatch, mode, 40, 30, 30)
        rng = np.random.default_rng(5)
        owned = [set() for _ in range(40)]
        for _ in range(6):
            users = rng.permutation(40)[:25]
            apps = rng.integers(0, 30, size=users.size)
            fresh = np.array(
                [a not in owned[u] for u, a in zip(users, apps)], dtype=bool
            )
            for u, a in zip(users[fresh], apps[fresh]):
                owned[u].add(int(a))
            ledger.add_unique(users[fresh], apps[fresh])
        for app in range(30):
            owners = ledger.owners(app)
            assert owners.tolist() == [
                u for u in range(40) if app in owned[u]
            ]
        assert ledger.owners(29).dtype.kind == "i"

    def test_capacity_required(self):
        with pytest.raises(TypeError):
            DownloadLedger(10, 10)
        with pytest.raises(ValueError):
            DownloadLedger(10, 10, 0)

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_contains_add_roundtrip(self, monkeypatch, mode):
        ledger = _ledger(monkeypatch, mode, 7, 13, 4)
        users = np.array([0, 3, 3, 6], dtype=np.int64)
        apps = np.array([12, 0, 7, 5], dtype=np.int64)
        assert not ledger.contains(users, apps).any()
        ledger.add(users, apps)
        assert ledger.contains(users, apps).all()
        other = np.array([1, 3, 3, 6], dtype=np.int64)
        other_apps = np.array([12, 1, 6, 4], dtype=np.int64)
        assert not ledger.contains(other, other_apps).any()
        assert ledger.counts.tolist() == [1, 0, 0, 2, 0, 0, 1]

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_saturated(self, monkeypatch, mode):
        ledger = _ledger(monkeypatch, mode, 2, 3, 3)
        ledger.add(np.array([0, 0, 0]), np.array([0, 1, 2]))
        mask = ledger.saturated(np.array([0, 1]))
        assert mask.tolist() == [True, False]

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_capacity_overflow_records_nothing(self, monkeypatch, mode):
        ledger = _ledger(monkeypatch, mode, 3, 20, 3)
        ledger.add(np.array([0, 1, 0]), np.array([4, 5, 6]))
        # User 0 would hold four apps: the whole call is refused.
        with pytest.raises(ValueError, match="capacity"):
            ledger.add(np.array([2, 0, 1, 0]), np.array([1, 7, 8, 9]))
        assert ledger.counts.tolist() == [2, 1, 0]
        assert not ledger.contains(np.array([2, 0, 1]), np.array([1, 7, 8])).any()
        ledger.add(np.array([0]), np.array([7]))
        with pytest.raises(ValueError, match="capacity"):
            ledger.add_unique(np.array([1, 0]), np.array([9, 9]))
        assert ledger.counts.tolist() == [3, 1, 0]

    def test_backends_answer_identically(self, monkeypatch):
        """Both backends, driven by one operation sequence, agree with
        each other and with a per-user ``set`` reference on every query."""
        # capacity == n_apps so users can saturate.
        n_users, n_apps, capacity = 8, 16, 16
        ledgers = [
            _ledger(monkeypatch, mode, n_users, n_apps, capacity)
            for mode in BACKENDS
        ]
        rng = np.random.default_rng(12)
        owned = [set() for _ in range(n_users)]
        everyone = np.arange(n_users, dtype=np.int64)
        head = _heads([3, 0, 7, 1, 2])
        # App 3 also sits in the global head: two heads per app is legal.
        group_heads = _heads([2, 5, 9], [11, 4, 6], [3, 8, 10])
        groups = everyone % 3
        for ledger in ledgers:  # early registration, on an empty ledger
            ledger.head_bytes(everyone, head, None)

        def fresh_pairs(n_pairs, unique_users):
            users, apps = [], []
            for _ in range(n_pairs):
                user = int(rng.integers(n_users))
                if len(owned[user]) >= capacity or (
                    unique_users and user in users
                ):
                    continue
                free = sorted(set(range(n_apps)) - owned[user])
                app = free[int(rng.integers(len(free)))]
                owned[user].add(app)
                users.append(user)
                apps.append(app)
            return np.array(users, dtype=np.int64), np.array(apps, dtype=np.int64)

        repeated = 0
        for step in range(6):
            users, apps = fresh_pairs(10, unique_users=False)
            repeated += users.size - np.unique(users).size
            for ledger in ledgers:
                ledger.add(users, apps)
            users, apps = fresh_pairs(6, unique_users=True)
            for ledger in ledgers:
                ledger.add_unique(users, apps)

            probe_users = np.repeat(everyone, n_apps)
            probe_apps = np.tile(np.arange(n_apps, dtype=np.int64), n_users)
            expected = np.array(
                [a in owned[u] for u, a in zip(probe_users, probe_apps)]
            )
            expected_bytes = np.array(
                [
                    sum(1 << j for j, a in enumerate(head[0]) if a in owned[u])
                    for u in everyone
                ],
                dtype=np.uint8,
            )
            for ledger in ledgers:
                assert np.array_equal(
                    ledger.contains(probe_users, probe_apps), expected
                )
                for app in range(n_apps):
                    assert ledger.owners(app).tolist() == [
                        u for u in range(n_users) if app in owned[u]
                    ]
                assert ledger.counts.tolist() == [len(o) for o in owned]
                for user in range(n_users):
                    assert np.flatnonzero(ledger.owned(user)).tolist() == sorted(
                        owned[user]
                    )
                assert np.array_equal(
                    ledger.saturated(everyone),
                    np.array([len(o) >= n_apps for o in owned]),
                )
                assert np.array_equal(
                    ledger.head_bytes(everyone, head, None), expected_bytes
                )
            if step >= 2:
                # Late registration (from step 2 on, after adds): the
                # compact backend rebuilds the rows from its owned matrix.
                late = _heads([12, 13, 15])
                answers = [
                    (
                        ledger.head_bytes(everyone, late, None),
                        ledger.head_bytes(everyone, group_heads, groups),
                    )
                    for ledger in ledgers
                ]
                assert np.array_equal(answers[0][0], answers[1][0])
                assert np.array_equal(answers[0][1], answers[1][1])
                assert answers[0][1].tolist() == [
                    sum(
                        1 << j
                        for j, a in enumerate(group_heads[g])
                        if a in owned[u]
                    )
                    for u, g in zip(everyone, groups)
                ]
        # The sequence exercised repeated users and saturation.
        assert repeated > 0
        assert any(len(apps_owned) == n_apps for apps_owned in owned)


class TestBudgetsAndOrder:
    def test_budgets_sum_and_spread(self):
        rng = np.random.default_rng(0)
        budgets = per_user_budgets(103, 10, rng)
        assert budgets.sum() == 103
        assert set(budgets.tolist()) == {10, 11}

    def test_order_multiset_matches_budgets(self):
        rng = np.random.default_rng(1)
        budgets = per_user_budgets(50, 7, rng)
        order = interleaved_user_order(budgets, rng)
        assert np.array_equal(np.bincount(order, minlength=7), budgets)


class TestSampleNewApps:
    def test_at_most_once_with_repeated_users(self):
        """Intra-batch duplicates of the same user must dedup exactly."""
        ledger = DownloadLedger(1, 8, 8)
        users = np.zeros(8, dtype=np.int64)
        rng = np.random.default_rng(2)
        apps = sample_new_apps(
            lambda size: rng.integers(0, 8, size=size),
            users,
            ledger,
        )
        served = apps[apps >= 0]
        assert np.unique(served).size == served.size

    def test_saturated_users_get_minus_one(self):
        ledger = DownloadLedger(1, 2, 2)
        ledger.add(np.array([0, 0]), np.array([0, 1]))
        rng = np.random.default_rng(3)
        apps = sample_new_apps(
            lambda size: rng.integers(0, 2, size=size),
            np.zeros(3, dtype=np.int64),
            ledger,
        )
        assert apps.tolist() == [-1, -1, -1]


class TestVisitedClusters:
    def test_record_dedupes_and_choose_stays_in_list(self):
        visited = VisitedClusters(n_users=3, n_clusters=6, max_per_user=4)
        users = np.array([0, 1], dtype=np.int64)
        visited.record(users, np.array([2, 5], dtype=np.int64))
        visited.record(users, np.array([2, 3], dtype=np.int64))  # 2 is a repeat
        assert visited.counts.tolist() == [1, 2, 0]
        rng = np.random.default_rng(6)
        for _ in range(20):
            picks = visited.choose(np.array([0, 1, 1]), rng)
            assert picks[0] == 2
            assert picks[1] in (5, 3) and picks[2] in (5, 3)

    def test_width_clamped_by_budget(self):
        visited = VisitedClusters(n_users=2, n_clusters=100, max_per_user=3)
        assert visited._lists.shape == (2, 3)

    @pytest.mark.parametrize("n_clusters", [6, 100])
    def test_extend_appends_in_order(self, n_clusters):
        """``extend`` is ``record`` one cluster at a time, for one user;
        ``clusters`` reads the list back in visit order."""
        visited = VisitedClusters(n_users=2, n_clusters=n_clusters, max_per_user=6)
        visited.record(np.array([1]), np.array([4]))
        visited.extend(1, [2, 0])
        visited.extend(1, [])
        assert visited.clusters(1).tolist() == [4, 2, 0]
        assert visited.clusters(0).tolist() == []
        assert visited.counts.tolist() == [0, 3]
        visited.record(np.array([0, 1]), np.array([2, 2]))  # a repeat for 1
        assert visited.clusters(1).tolist() == [4, 2, 0]
        assert visited.clusters(0).tolist() == [2]


def _tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Total-variation distance between two count vectors."""
    p = a / a.sum()
    q = b / b.sum()
    return 0.5 * float(np.abs(p - q).sum())


def _feedback_model(n_apps=400, n_users=200, total_downloads=8000, **overrides):
    defaults = dict(
        n_apps=n_apps,
        n_users=n_users,
        total_downloads=total_downloads,
        zr=1.7,
        q=0.9,
        list_size=40,
        refresh_every=500,
    )
    defaults.update(overrides)
    return RecommenderFeedbackModel(RecommenderFeedbackParams(**defaults))


def _clustering_model(n_apps=400, n_users=200, total_downloads=8000, **overrides):
    defaults = dict(
        n_apps=n_apps,
        n_users=n_users,
        total_downloads=total_downloads,
        zr=1.7,
        zc=1.4,
        p=0.9,
        n_clusters=20,
    )
    defaults.update(overrides)
    return AppClusteringModel(AppClusteringParams(**defaults))


def _stack_fixture():
    """Five unequal laws over 50 apps: a Zipf law with a tail, a law of
    five apps, a law of eleven whose three lightest weigh nothing (a
    full head and no tail), a law without apps, and a flatter law with a
    tail.  Returns the stack and its ``(laws, apps)`` weight matrix."""
    spans = [range(0, 20), range(20, 25), range(25, 36), range(0), range(36, 50)]
    laws = [
        zipf_weights(20, 1.2),
        np.array([5.0, 1.0, 3.0, 0.5, 2.0]),
        np.concatenate((zipf_weights(8, 0.8), np.zeros(3))),
        np.empty(0),
        zipf_weights(14, 0.6)[::-1],
    ]
    matrix = np.zeros((len(laws), 50))
    for law, (span, weights) in enumerate(zip(spans, laws)):
        matrix[law, list(span)] = weights
    outcomes = [np.array(span, dtype=np.int64) for span in spans]
    return HeadTailSampler(laws, outcomes), matrix


def _stack_population(matrix, n_users, rng):
    """Each user's law and a ledger of prior downloads: every app of the
    user's law is owned with probability 0.3, so every head byte and
    tail rejections occur, and some users of the small laws own all."""
    law_ids = rng.integers(0, matrix.shape[0], size=n_users)
    owned = (matrix[law_ids] > 0) & (rng.random((n_users, matrix.shape[1])) < 0.3)
    ledger = DownloadLedger(n_users, matrix.shape[1], matrix.shape[1])
    ledger.add(*np.nonzero(owned))
    return law_ids, owned, ledger


def _stack_rounds():
    """Four rounds of the unequal stack over 600 users."""
    stack, matrix = _stack_fixture()
    rng = np.random.default_rng(9)
    law_ids, _, ledger = _stack_population(matrix, 600, rng)
    users = np.arange(600, dtype=np.int64)
    batches = []
    for _ in range(4):
        apps = masked_head_tail_draw(stack, users, law_ids, ledger, rng)
        got = apps >= 0
        ledger.add_unique(users[got], apps[got])
        batches.append(EventBatch(users[got], apps[got]))
    return EventBatch.concatenate(batches)


class TestStatisticalEquivalence:
    """Batched streams match the legacy per-event reference distributions.

    Counts are pooled over a few seeds per path and compared by
    total-variation distance; with ~24k pooled events over 400 apps the
    sampling-noise floor sits near 0.05, so 0.10 catches any structural
    deviation while staying deterministic-safe.
    """

    SEEDS = (0, 1, 2)
    N_APPS, N_USERS, N_DOWNLOADS = 400, 200, 8000

    def _pooled(self, iterator_for_seed):
        counts = np.zeros(self.N_APPS, dtype=np.int64)
        for seed in self.SEEDS:
            for event in iterator_for_seed(seed):
                counts[event.app_index] += 1
        return counts

    def test_zipf(self):
        model = ZipfModel(self.N_APPS, zr=1.7)
        legacy = self._pooled(
            lambda seed: model.iter_events_legacy(
                self.N_USERS, self.N_DOWNLOADS, seed=seed
            )
        )
        batched = np.zeros(self.N_APPS, dtype=np.int64)
        for seed in self.SEEDS:
            batched += counts_from_batches(
                model.iter_batches(self.N_USERS, self.N_DOWNLOADS, seed=seed + 100),
                self.N_APPS,
            )
        assert _tv_distance(legacy, batched) < 0.10

    def test_zipf_at_most_once(self):
        model = ZipfAtMostOnceModel(self.N_APPS, zr=1.7)
        legacy = self._pooled(
            lambda seed: model.iter_events_legacy(
                self.N_USERS, self.N_DOWNLOADS, seed=seed
            )
        )
        batched = np.zeros(self.N_APPS, dtype=np.int64)
        for seed in self.SEEDS:
            batched += counts_from_batches(
                model.iter_batches(self.N_USERS, self.N_DOWNLOADS, seed=seed + 100),
                self.N_APPS,
            )
        assert _tv_distance(legacy, batched) < 0.10

    def test_app_clustering(self):
        model = _clustering_model(self.N_APPS, self.N_USERS, self.N_DOWNLOADS)
        legacy = self._pooled(lambda seed: model.iter_events_legacy(seed=seed))
        batched = np.zeros(self.N_APPS, dtype=np.int64)
        for seed in self.SEEDS:
            batched += counts_from_batches(
                model.iter_batches(seed=seed + 100), self.N_APPS
            )
        assert _tv_distance(legacy, batched) < 0.10

    def test_recommender_feedback(self):
        model = _feedback_model(self.N_APPS, self.N_USERS, self.N_DOWNLOADS)
        legacy = self._pooled(lambda seed: model.iter_events_legacy(seed=seed))
        batched = np.zeros(self.N_APPS, dtype=np.int64)
        for seed in self.SEEDS:
            batched += counts_from_batches(
                model.iter_batches(seed=seed + 100), self.N_APPS
            )
        assert _tv_distance(legacy, batched) < 0.10

    def test_feedback_legacy_respects_at_most_once(self):
        model = _feedback_model(n_apps=80, n_users=20, total_downloads=400)
        events = list(model.iter_events_legacy(seed=5))
        pairs = {(e.user_id, e.app_index) for e in events}
        assert len(pairs) == len(events)
        assert all(0 <= e.app_index < 80 for e in events)

    def test_feedback_legacy_concentrates_on_chart(self):
        """The feedback fingerprint: the top-``N`` ranks absorb ~``q``.

        Per-user budgets (10) stay below the list size (20), so
        fetch-at-most-once never forces recommended draws off the chart.
        """
        model = _feedback_model(
            n_apps=200, n_users=400, total_downloads=4000, q=0.95, list_size=20
        )
        counts = np.zeros(200, dtype=np.int64)
        for event in model.iter_events_legacy(seed=6):
            counts[event.app_index] += 1
        top_share = np.sort(counts)[::-1][:20].sum() / counts.sum()
        assert top_share > 0.8


class TestBatchedInvariants:
    """Exact guarantees on the batched event streams."""

    def _collect(self, batches):
        merged = EventBatch.concatenate(list(batches))
        return merged.user_ids, merged.app_indices

    def test_amo_fetch_at_most_once_and_budgets(self):
        n_users, n_downloads = 50, 2000
        model = ZipfAtMostOnceModel(120, zr=1.5)
        users, apps = self._collect(
            model.iter_batches(n_users, n_downloads, seed=7, batch_size=256)
        )
        assert users.size <= n_downloads
        assert apps.min() >= 0 and apps.max() < 120
        pairs = users * 120 + apps
        assert np.unique(pairs).size == pairs.size  # at-most-once, exactly
        per_user = np.bincount(users, minlength=n_users)
        assert per_user.max() <= n_downloads // n_users + 1

    def test_clustering_fetch_at_most_once_and_budgets(self):
        model = _clustering_model(n_apps=150, n_users=40, total_downloads=1600)
        users, apps = self._collect(model.iter_batches(seed=8))
        assert users.size <= 1600
        assert apps.min() >= 0 and apps.max() < 150
        pairs = users * 150 + apps
        assert np.unique(pairs).size == pairs.size
        per_user = np.bincount(users, minlength=40)
        assert per_user.max() <= 1600 // 40 + 1

    @pytest.mark.parametrize(
        "model_name",
        ["amo", "clustering", "clustering-unequal", "feedback", "stack"],
    )
    def test_ledger_modes_bit_identical(self, monkeypatch, model_name):
        """The backends consume no randomness: packed and compact streams
        match exactly, each forced whatever the shape would pick.
        ``stack`` drives the kernel directly on unequal laws, late head
        registration included."""

        def stream():
            if model_name == "stack":
                return _stack_rounds()
            if model_name == "amo":
                model = ZipfAtMostOnceModel(90, zr=1.6)
                batches = model.iter_batches(30, 600, seed=9)
            elif model_name == "feedback":
                model = _feedback_model(
                    n_apps=90, n_users=30, total_downloads=600, refresh_every=100
                )
                batches = model.iter_batches(seed=9)
            else:
                cluster_of = None
                if model_name == "clustering-unequal":
                    cluster_of = tuple(min(i // 6, 9) for i in range(100))
                model = _clustering_model(
                    n_apps=100,
                    n_users=30,
                    total_downloads=600,
                    cluster_of=cluster_of,
                )
                # Equal clusters share one byte table and alias table,
                # unequal ones keep a table per law.
                assert model._cluster_laws.shared == (cluster_of is None)
                batches = model.iter_batches(seed=9)
            return EventBatch.concatenate(list(batches))

        _force_mode(monkeypatch, "packed")
        packed = stream()
        _force_mode(monkeypatch, "compact")
        compact = stream()
        assert np.array_equal(packed.user_ids, compact.user_ids)
        assert np.array_equal(packed.app_indices, compact.app_indices)

    def test_iter_events_adapter_matches_batches(self):
        """``iter_events`` is a thin flattening of ``iter_batches``."""
        model = ZipfAtMostOnceModel(80, zr=1.5)
        users, apps = self._collect(model.iter_batches(20, 300, seed=10))
        events = list(model.iter_events(20, 300, seed=10))
        assert [e.user_id for e in events] == users.tolist()
        assert [e.app_index for e in events] == apps.tolist()


def _parent_tables(weights):
    """The tables of one law as the per-law sampler the stack replaced
    built them: head positions, ``(256, k)`` byte tables whose rows
    repeat past ``2**k``, tail positions in alias order, the tail mass
    and the tail's alias sampler."""
    order = np.argsort(-weights, kind="stable")
    k = min(8, weights.size)
    codes = np.arange(1 << k, dtype=np.uint16)
    open_ = ((codes[:, None] >> np.arange(k)[None, :]) & 1) == 0
    head_weights = weights[order[:k]].astype(np.float32)
    cums = np.cumsum(open_ * head_weights[None, :], axis=1, dtype=np.float32)
    if k < 8:
        cums = np.vstack([cums] * (1 << (8 - k)))
    tail = order[k:]
    tail_weight = float(weights[tail].sum())
    sampler = AliasSampler(weights[tail]) if tail_weight > 0 else None
    return order[:k], cums, cums[:, -1].copy(), tail, tail_weight, sampler


def _parent_sample_fast(sampler, size, rng):
    """The alias draw with float32 accept coins the tails used."""
    columns = rng.integers(0, sampler.n_outcomes, size=size)
    prob32 = sampler._prob.astype(np.float32)
    take_alias = rng.random(size, dtype=np.float32) >= prob32[columns]
    return np.where(take_alias, sampler._alias[columns], columns)


def _parent_masked_draw(weights, users, owned, rng):
    """Copy of the single-law kernel (outcomes are positions); ownership
    comes from a bool matrix instead of a ledger."""
    head, cum_table, avail_table, tail, tail_weight, sampler = _parent_tables(
        weights
    )
    apps = np.full(users.size, -1, dtype=np.int64)
    chunk = np.packbits(owned[users[:, None], head], axis=1, bitorder="little")[:, 0]
    head_avail = avail_table[chunk]
    total = head_avail + np.float32(tail_weight)
    if sampler is not None:
        pending = np.arange(users.size, dtype=np.int64)
    else:
        pending = np.flatnonzero(total > 0)
    for _ in range(engine.MAX_DRAW_ATTEMPTS):
        if pending.size == 0:
            break
        r = rng.random(pending.size, dtype=np.float32) * total[pending]
        in_head = r < head_avail[pending]
        head_rows = pending[in_head]
        picks = (cum_table[chunk[head_rows]] <= r[in_head, None]).sum(axis=1)
        apps[head_rows] = head[picks]
        tail_rows = pending[~in_head]
        if sampler is None or tail_rows.size == 0:
            pending = tail_rows
            continue
        draws = tail[_parent_sample_fast(sampler, tail_rows.size, rng)]
        fresh = ~owned[users[tail_rows], draws]
        apps[tail_rows[fresh]] = draws[fresh]
        pending = tail_rows[~fresh]
    return apps


def _parent_masked_draw_grouped(weights, members, users, groups, owned, rng):
    """Copy of the grouped kernel: group ``g`` draws ``weights`` over
    ``members[g]``, every group through one shared rank-space law."""
    head, cum_table, avail_table, tail, tail_weight, sampler = _parent_tables(
        weights
    )
    head_apps, tail_members = members[:, head], members[:, tail]
    apps = np.full(users.size, -1, dtype=np.int64)
    chunk = np.packbits(
        owned[users[:, None], head_apps[groups]], axis=1, bitorder="little"
    )[:, 0]
    head_avail = avail_table[chunk]
    total = head_avail + np.float32(tail_weight)
    pending = np.arange(users.size, dtype=np.int64)
    for _ in range(engine.MAX_DRAW_ATTEMPTS):
        if pending.size == 0:
            break
        r = rng.random(pending.size, dtype=np.float32) * total[pending]
        in_head = r < head_avail[pending]
        head_rows = pending[in_head]
        picks = (cum_table[chunk[head_rows]] <= r[in_head, None]).sum(axis=1)
        apps[head_rows] = head_apps[groups[head_rows], picks]
        tail_rows = pending[~in_head]
        if tail_rows.size == 0:
            pending = tail_rows
            continue
        ranks = _parent_sample_fast(sampler, tail_rows.size, rng)
        draws = tail_members[groups[tail_rows], ranks]
        fresh = ~owned[users[tail_rows], draws]
        apps[tail_rows[fresh]] = draws[fresh]
        pending = tail_rows[~fresh]
    return apps


class TestMaskedKernel:
    """The one masked draw kernel, called directly."""

    def test_unequal_stack_draws_the_renormalized_law(self):
        """Per user, the draw is the user's law renormalized over the
        apps it does not own: ``-1`` exactly when nothing is left, never
        an owned, foreign or weightless app, and each law's pooled draws
        within sampling noise of the enumerated laws, round after round
        (24,000 users, three rounds)."""
        stack, matrix = _stack_fixture()
        assert not stack.shared and not stack.has_tail.all()
        n_users = 24_000
        rng = np.random.default_rng(41)
        law_ids, owned, ledger = _stack_population(matrix, n_users, rng)
        users = np.arange(n_users, dtype=np.int64)
        drawn = np.zeros_like(matrix)
        expected = np.zeros_like(matrix)
        for _ in range(3):
            open_weights = matrix[law_ids] * ~owned
            mass = open_weights.sum(axis=1)
            apps = masked_head_tail_draw(stack, users, law_ids, ledger, rng)
            assert np.array_equal(apps < 0, mass == 0)
            got = np.flatnonzero(apps >= 0)
            assert (open_weights[got, apps[got]] > 0).all()
            np.add.at(drawn, (law_ids[got], apps[got]), 1)
            np.add.at(expected, law_ids[got], open_weights[got] / mass[got, None])
            ledger.add_unique(got, apps[got])
            owned[got, apps[got]] = True
        # Seeds 0-39 measure at most 0.020 on any law.
        for law in (0, 1, 2, 4):
            assert _tv_distance(drawn[law], expected[law]) < 0.03, law
        assert drawn[3].sum() == 0 and (law_ids == 3).any()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("law", ["zipf", "no-tail", "equal-laws"])
    def test_matches_the_single_law_and_grouped_kernels(self, law, seed):
        """One law, and laws of equal weights, draw byte for byte what the
        single-law and the grouped kernel the stack replaced drew, and
        leave the generator in the same state."""
        rng = make_rng(seed)
        n_users = 3_000
        if law == "equal-laws":
            # Twelve equal clusters of 25 apps, dealt round-robin, over
            # normalized weights as the clustering model holds them.
            members = np.arange(300).reshape(25, 12).T.copy()
            weights = zipf_weights(25, 1.4)
            weights = weights / weights.sum()
            stack = HeadTailSampler([weights] * 12, list(members))
            assert stack.shared
            law_ids = rng.integers(0, 12, size=n_users).astype(np.int16)
        else:
            size = 300 if law == "zipf" else 6
            weights = zipf_weights(size, 1.6)
            stack = HeadTailSampler([weights])
            law_ids = None
        n_apps = stack.sizes.sum()
        # Prior downloads of 40% of the apps mask the heads and make
        # tail picks get rejected and redrawn.
        owned = rng.random((n_users, n_apps)) < 0.4
        ledger = DownloadLedger(n_users, n_apps, n_apps)
        ledger.add(*np.nonzero(owned))
        users = np.arange(n_users, dtype=np.int64)
        reference_rng = copy.deepcopy(rng)
        registry = MetricsRegistry()
        with use_registry(registry):
            ours = masked_head_tail_draw(stack, users, law_ids, ledger, rng)
        if law_ids is None:
            theirs = _parent_masked_draw(weights, users, owned, reference_rng)
        else:
            theirs = _parent_masked_draw_grouped(
                weights, members, users, law_ids, owned, reference_rng
            )
        assert np.array_equal(ours, theirs)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        redraws = registry.snapshot()["counters"].get("engine.tail_redraws", 0)
        assert (redraws > 0) == (law != "no-tail")

    def test_a_round_is_one_clustered_and_one_global_call(self, monkeypatch):
        """The model stream and the store's round draw each round with at
        most one clustered kernel call and one global call, however many
        clusters the round's users chose."""
        kernel = engine.masked_head_tail_draw
        calls = []

        def counting(laws, users, law_ids, ledger, rng):
            calls.append(None if law_ids is None else np.unique(law_ids).size)
            return kernel(laws, users, law_ids, ledger, rng)

        def check(round_calls):
            clustered = [n for n in round_calls if n is not None]
            assert len(clustered) <= 1
            assert len(round_calls) - len(clustered) <= 1
            return clustered[0] if clustered else 0

        monkeypatch.setattr(engine, "masked_head_tail_draw", counting)
        monkeypatch.setattr(behavior_module, "masked_head_tail_draw", counting)

        # Unequal clusters: 301 apps in 20 clusters, five rounds.
        model = _clustering_model(n_apps=301, n_users=400, total_downloads=2_000)
        assert not model._cluster_laws.shared
        widest, seen = 0, 0
        for _ in model.iter_batches(seed=3):
            widest = max(widest, check(calls[seen:]))
            seen = len(calls)
        assert seen >= 5 and widest >= 10

        behavior = DownloadBehavior(
            app_categories=np.arange(120) % 12, params=BehaviorParams()
        )
        ledger = DownloadLedger(500, 120, 120)
        visited = VisitedClusters(500, 12, 120)
        users = np.arange(500, dtype=np.int64)
        rng = np.random.default_rng(4)
        widest = 0
        for _ in range(6):
            calls.clear()
            behavior.next_downloads(users, 0, ledger, visited, rng)
            widest = max(widest, check(calls))
        assert widest >= 10


class TestStreamPins:
    """sha256 of ``simulate()`` counts at one small shape per model.

    The hashes pin the exact event streams: a refactor of the engine or
    the ledger that changes a single draw fails here.  Re-pin only on a
    deliberate stream change, and say so in the change log.
    """

    N_APPS, N_USERS, N_DOWNLOADS, SEED = 300, 120, 3000, 2013

    PINS = {
        "zipf": "6d6167f4125eb18bbdab1dab84ea7a188393d1a7fa489b6af79496ad38561b19",
        "amo": "1b383c7df56f68f1c445e766bf65d37a75b420a5f8cb3f6805bbb1813611061c",
        "clustering": "d02872138f6108bfd2853277232b53faf87858ab3e640813cd44d08e670759c8",
        "clustering-unequal": "7b3f059cef201932121a2c127e5b3eb6301bb7372bdfaf1d93ef5eb883a992a4",
        "feedback": "d2ae1e1353bdc01c519bb9b8977178e44aff5e5414c27d9f20589652fbfd2030",
    }

    def _counts(self, name):
        shape = dict(
            n_apps=self.N_APPS,
            n_users=self.N_USERS,
            total_downloads=self.N_DOWNLOADS,
            zr=1.6,
        )
        if name == "zipf":
            return ZipfModel(self.N_APPS, zr=1.6).simulate(
                self.N_USERS, self.N_DOWNLOADS, seed=self.SEED
            )
        if name == "amo":
            return ZipfAtMostOnceModel(self.N_APPS, zr=1.6).simulate(
                self.N_USERS, self.N_DOWNLOADS, seed=self.SEED
            )
        if name == "feedback":
            params = RecommenderFeedbackParams(
                **shape, list_size=30, refresh_every=250
            )
            return RecommenderFeedbackModel(params).simulate(seed=self.SEED)
        cluster_of = None
        if name == "clustering-unequal":
            cluster_of = tuple(min(i // 25, 9) for i in range(self.N_APPS))
        params = AppClusteringParams(
            **shape, n_clusters=10, cluster_of=cluster_of
        )
        return AppClusteringModel(params).simulate(seed=self.SEED)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_counts_hash(self, name):
        counts = self._counts(name)
        assert counts.sum() == self.N_DOWNLOADS
        digest = hashlib.sha256(
            np.asarray(counts, dtype="<i8").tobytes()
        ).hexdigest()
        assert digest == self.PINS[name]


class TestEventsUnfilledMetric:
    """Dropped download slots must be counted, never silently skipped."""

    def test_saturation_counts_unfilled_events(self):
        # 4 users owe 10 downloads each but the store only has 3 apps:
        # each user saturates after 3 events, so 40 - 12 slots go unfilled.
        registry = MetricsRegistry()
        with use_registry(registry):
            model = ZipfAtMostOnceModel(3, zr=1.5)
            users, _ = TestBatchedInvariants()._collect(
                model.iter_batches(4, 40, seed=3)
            )
        assert users.size == 12
        counters = registry.snapshot()["counters"]
        assert counters["engine.events_unfilled"] == 40 - 12

    def test_clustering_counts_unfilled_events(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            model = _clustering_model(
                n_apps=5, n_users=3, total_downloads=30, n_clusters=2
            )
            users, _ = TestBatchedInvariants()._collect(
                model.iter_batches(seed=5)
            )
        assert users.size == 15  # 3 users x 5 apps
        counters = registry.snapshot()["counters"]
        assert counters["engine.events_unfilled"] == 30 - 15

    def test_full_run_reports_zero_unfilled(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            model = ZipfAtMostOnceModel(200, zr=1.5)
            users, _ = TestBatchedInvariants()._collect(
                model.iter_batches(50, 500, seed=3)
            )
        assert users.size == 500
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.events_unfilled", 0) == 0


class TestDifferentialConsistency:
    """``simulate``, ``iter_batches`` and ``iter_events`` agree exactly.

    The three entry points of every model are views of one stream: under
    a shared seed they must produce bit-identical per-app counts.  Run
    as a differential sweep so a regression in any one path shows up as
    a divergence from its siblings.
    """

    SEEDS = (0, 1, 17)

    def _counts_from_events(self, events, n_apps):
        counts = np.zeros(n_apps, dtype=np.int64)
        for event in events:
            counts[event.app_index] += 1
        return counts

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zipf_paths_agree(self, seed):
        model = ZipfModel(120, zr=1.6)
        simulated = model.simulate(40, 900, seed=seed)
        batched = counts_from_batches(model.iter_batches(40, 900, seed=seed), 120)
        evented = self._counts_from_events(
            model.iter_events(40, 900, seed=seed), 120
        )
        assert np.array_equal(simulated, batched)
        assert np.array_equal(simulated, evented)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zipf_amo_paths_agree(self, seed):
        model = ZipfAtMostOnceModel(120, zr=1.6)
        simulated = model.simulate(40, 900, seed=seed)
        batched = counts_from_batches(model.iter_batches(40, 900, seed=seed), 120)
        evented = self._counts_from_events(
            model.iter_events(40, 900, seed=seed), 120
        )
        assert np.array_equal(simulated, batched)
        assert np.array_equal(simulated, evented)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clustering_paths_agree(self, seed):
        model = _clustering_model(n_apps=120, n_users=40, total_downloads=900)
        simulated = model.simulate(seed=seed)
        batched = counts_from_batches(model.iter_batches(seed=seed), 120)
        evented = self._counts_from_events(model.iter_events(seed=seed), 120)
        assert np.array_equal(simulated, batched)
        assert np.array_equal(simulated, evented)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_feedback_paths_agree(self, seed):
        model = _feedback_model(
            n_apps=120, n_users=40, total_downloads=900, refresh_every=200
        )
        simulated = model.simulate(seed=seed)
        batched = counts_from_batches(model.iter_batches(seed=seed), 120)
        evented = self._counts_from_events(model.iter_events(seed=seed), 120)
        assert np.array_equal(simulated, batched)
        assert np.array_equal(simulated, evented)


class TestEmptyClusters:
    def test_explicit_map_with_empty_cluster_id(self):
        """A gap in the cluster-id range must not break construction."""
        model = _clustering_model(
            n_apps=4,
            n_users=10,
            total_downloads=30,
            n_clusters=3,
            cluster_of=(0, 0, 2, 2),
        )
        assert sorted(model._cluster_samplers) == [0, 2]
        counts = model.simulate(seed=11)
        assert counts.sum() == 30
        # Legacy path handles the same gap.
        legacy = sum(1 for _ in model.iter_events_legacy(seed=11))
        assert legacy == 30
