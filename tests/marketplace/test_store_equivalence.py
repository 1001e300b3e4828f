"""The batched store tick against the per-event tick it replaced.

The store used to draw a day one download at a time: each event asked
the behaviour for the user's next app through alias samplers and per-user
``set`` s, redrawing owned, unlisted and (for clustered draws) declined
apps.  Rounds through the masked kernels change the random stream but
must not change the chain, so the statistics the paper reads off a store
-- the per-app rank-share curve, the Zipf trunk slope, and how often a
user's consecutive downloads share a category -- must agree with the old
loop to within that loop's own seed-to-seed spread.  ``ReferenceTick`` is
a short copy of the old loop (downloads only).
"""

import numpy as np
import pytest

from repro.core.powerlaw import analyze_rank_distribution
from repro.marketplace.behavior import BehaviorParams, DownloadBehavior
from repro.marketplace.catalog import default_taxonomy
from repro.marketplace.entities import App, User
from repro.marketplace.store import AppStore
from repro.stats.rng import make_rng
from repro.stats.sampling import AliasSampler
from repro.stats.zipf import zipf_weights

PARAMS = BehaviorParams(
    cluster_probability=0.9, global_exponent=1.5, cluster_exponent=1.4
)
N_APPS, N_CATEGORIES, N_USERS = 1_200, 10, 2_000
DAYS, DAILY_DOWNLOADS = 6, 4_000
SEEDS = range(6)


def _inputs():
    """A fixed store: uneven categories, cheap paid apps browsed rarely,
    a few apps without appeal, late listings, heavy-tailed activity."""
    rng = np.random.default_rng(2013)
    sizes = zipf_weights(N_CATEGORIES, 0.8)
    categories = rng.choice(N_CATEGORIES, size=N_APPS, p=sizes / sizes.sum())
    paid = rng.random(N_APPS) < 0.15
    multipliers = np.where(paid, 0.5, 1.0)
    multipliers[rng.choice(N_APPS, size=12, replace=False)] = 0.0
    accept = np.where(paid, 0.1, 1.0)
    listing_days = np.where(
        rng.random(N_APPS) < 0.1, rng.integers(1, DAYS, size=N_APPS), 0
    )
    activity = rng.pareto(1.8, size=N_USERS) + 1.0
    activity[:3] *= 50.0
    return categories, paid, multipliers, accept, listing_days, activity


INPUTS = _inputs()


class ReferenceTick:
    """The per-event download loop of the store before rounds."""

    def __init__(self, seed):
        categories, _, multipliers, accept, listing_days, activity = INPUTS
        self.categories, self.accept = categories, accept
        self.listing_days = listing_days
        self.rng = make_rng(seed)
        self.pick = activity / activity.sum()
        self.global_sampler = AliasSampler(
            zipf_weights(N_APPS, PARAMS.global_exponent) * multipliers
        )
        self.members, self.samplers = {}, {}
        for category in range(N_CATEGORIES):
            members = np.flatnonzero(categories == category)
            weights = (
                zipf_weights(members.size, PARAMS.cluster_exponent)
                * multipliers[members]
            )
            self.members[category] = members
            if weights.sum() > 0:
                self.samplers[category] = AliasSampler(weights)
        self.downloaded = [set() for _ in range(N_USERS)]
        self.visited = [[] for _ in range(N_USERS)]

    def _fresh(self, user, app, day):
        return app not in self.downloaded[user] and self.listing_days[app] <= day

    def _draw_global(self, user, day):
        for _ in range(64):
            app = self.global_sampler.sample_one(self.rng)
            if self._fresh(user, app, day):
                return app
        return None

    def _draw_clustered(self, user, day):
        visited = self.visited[user]
        category = visited[int(self.rng.integers(0, len(visited)))]
        sampler = self.samplers.get(category)
        if sampler is None:
            return None
        for _ in range(64):
            app = int(self.members[category][sampler.sample_one(self.rng)])
            if not self._fresh(user, app, day):
                continue
            if self.accept[app] < 1.0 and self.rng.random() >= self.accept[app]:
                continue
            return app
        return None

    def next_download(self, user, day):
        if len(self.downloaded[user]) >= N_APPS:
            return None
        if self.visited[user] and self.rng.random() < PARAMS.cluster_probability:
            app = self._draw_clustered(user, day)
            if app is not None:
                return app
        return self._draw_global(user, day)

    def run(self):
        log = []
        for day in range(DAYS):
            n_events = int(self.rng.poisson(DAILY_DOWNLOADS))
            for user in self.rng.choice(N_USERS, size=n_events, p=self.pick):
                app = self.next_download(int(user), day)
                if app is None:
                    continue
                self.downloaded[user].add(app)
                if self.categories[app] not in self.visited[user]:
                    self.visited[user].append(self.categories[app])
                log.append((int(user), app))
        return log


def _batched_log(seed):
    categories, paid, multipliers, accept, listing_days, activity = INPUTS
    taxonomy = default_taxonomy(N_CATEGORIES, seed=0)
    apps = [
        App(
            app_id=i,
            name=f"app-{i}",
            category=taxonomy.names[int(categories[i])],
            developer_id=0,
            global_rank=i + 1,
            cluster_rank=1,
            price=0.99 if paid[i] else 0.0,
            listing_day=int(listing_days[i]),
        )
        for i in range(N_APPS)
    ]
    users = [User(u, float(activity[u]), 0.0) for u in range(N_USERS)]
    behavior = DownloadBehavior(
        categories,
        PARAMS,
        appeal_multipliers=multipliers,
        listing_days=listing_days,
        clustered_accept_probability=accept,
    )
    store = AppStore(
        "equivalence",
        taxonomy,
        apps,
        users,
        behavior,
        make_rng(seed),
        DAILY_DOWNLOADS,
        keep_download_log=True,
    )
    store.advance_days(DAYS)
    return [(record.user_id, record.app_id) for record in store.download_log()]


def _statistics(log):
    """Top-1%/10%/50% download shares, trunk slope, same-category rate."""
    users = np.array([user for user, _ in log])
    apps = np.array([app for _, app in log])
    counts = np.bincount(apps, minlength=N_APPS)
    shares = np.cumsum(np.sort(counts)[::-1]) / counts.sum()
    order = np.argsort(users, kind="stable")
    sequence = INPUTS[0][apps[order]]
    same_user = users[order][1:] == users[order][:-1]
    same_category = sequence[1:] == sequence[:-1]
    return {
        "top_1%": shares[N_APPS // 100 - 1],
        "top_10%": shares[N_APPS // 10 - 1],
        "top_50%": shares[N_APPS // 2 - 1],
        "trunk_slope": analyze_rank_distribution(counts).trunk.slope,
        "same_category": same_category[same_user].mean(),
        "downloads": float(len(log)),
    }


@pytest.fixture(scope="module")
def runs():
    reference = [_statistics(ReferenceTick(seed).run()) for seed in SEEDS]
    batched = [_statistics(_batched_log(1000 + seed)) for seed in SEEDS]
    return reference, batched


@pytest.mark.parametrize(
    "name",
    ["top_1%", "top_10%", "top_50%", "trunk_slope", "same_category", "downloads"],
)
def test_batched_tick_matches_per_event_tick(runs, name):
    """Mean over six seeds within the reference's seed-to-seed range."""
    reference = np.array([stats[name] for stats in runs[0]])
    batched = np.array([stats[name] for stats in runs[1]])
    spread = reference.max() - reference.min()
    assert spread > 0
    assert abs(batched.mean() - reference.mean()) <= spread, (
        name,
        reference.round(4).tolist(),
        batched.round(4).tolist(),
    )
