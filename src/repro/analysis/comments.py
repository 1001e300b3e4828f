"""User comment behaviour (Figure 5 of the paper).

Section 4.1 approximates per-user download patterns with public rated
comments.  Four views come out of the comment dataset:

(a) comments per user (heavy-tailed; a few spam accounts post thousands);
(b) unique categories each user comments on (about half of users stick to
    one category);
(c) the share of an average user's comments falling in their top-k
    categories;
(d) downloads per category (no dominant category, so (b) and (c) are not
    explained by category popularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crawler.database import SnapshotDatabase
from repro.stats.distributions import Ecdf


@dataclass(frozen=True)
class CommentBehaviorReport:
    """The four panels of Figure 5 in one object."""

    store: str
    n_users: int
    n_comments: int
    comments_per_user: Ecdf
    unique_categories_per_user: Ecdf
    top_k_comment_share: Dict[int, float]
    downloads_share_by_category: List[Tuple[str, float]]

    def describe(self) -> str:
        """Headline numbers in the style of the paper's caption."""
        single = self.unique_categories_per_user(1) * 100
        five = self.unique_categories_per_user(5) * 100
        top1 = self.top_k_comment_share.get(1, float("nan")) * 100
        top_category = (
            self.downloads_share_by_category[0]
            if self.downloads_share_by_category
            else ("-", 0.0)
        )
        return (
            f"[{self.store}] {single:.0f}% of users comment in a single "
            f"category, {five:.0f}% in at most five; the average user makes "
            f"{top1:.0f}% of comments in one category; the most popular "
            f"category has {top_category[1] * 100:.0f}% of downloads "
            f"({top_category[0]})"
        )


def category_of_apps(
    database: SnapshotDatabase, store: str, day: Optional[int] = None
) -> Dict[int, str]:
    """Map app_id -> category from the latest (or given) crawl day, in
    ascending app id order."""
    days = database.days(store)
    if not days:
        raise KeyError(f"no crawled days for store {store!r}")
    day = days[-1] if day is None else day
    columns = database.snapshot_columns(store, day)
    if columns is None:
        return {}
    return dict(zip(columns.app_ids.tolist(), columns.decoded("category_id")))


def user_category_strings(
    database: SnapshotDatabase, store: str, day: Optional[int] = None
) -> Dict[int, List[str]]:
    """Per-user category strings (Section 4.2's data structure).

    Builds each user's chronological app string from their comments (one
    day's comments in posting order), suppresses successive repeats of
    the same app, and maps apps to categories.  Apps missing from the
    crawl (never snapshotted) are skipped after repeats collapse, so
    ``A X A`` with ``X`` unknown maps to two ``A`` categories.  Users come
    in the order of their first comment in the log.
    """
    categories = category_of_apps(database, store, day)
    comments = database.comment_columns(store)
    # A comment's stream is the row of its user's first comment, so the
    # streams sort in first-comment order; sorting by stream and day with
    # stable sorts keeps one day's comments in posting order.
    users = comments["user_id"]
    _, first, inverse = np.unique(users, return_index=True, return_inverse=True)
    streams = first[inverse]
    order = np.argsort(comments["day"], kind="stable")
    order = order[np.argsort(streams[order], kind="stable")]
    streams, apps = streams[order], comments["app_id"][order]
    # Collapse successive repeats, then drop apps the crawl never saw.
    keep = np.diff(streams, prepend=-1) != 0
    keep[1:] |= apps[1:] != apps[:-1]
    app_ids = np.fromiter(categories, dtype=np.int64, count=len(categories))
    rows = np.searchsorted(app_ids, apps)
    known = rows < app_ids.size
    known[known] = app_ids[rows[known]] == apps[known]
    keep &= known
    streams = streams[keep]
    names = list(categories.values())
    mapped = [names[row] for row in rows[keep].tolist()]
    starts = np.flatnonzero(np.diff(streams, prepend=-1))
    ends = np.append(starts[1:], streams.size)
    return {
        user: mapped[start:end]
        for user, start, end in zip(
            users[streams[starts]].tolist(), starts.tolist(), ends.tolist()
        )
    }


def _top_k_share(category_string: Sequence[str], k: int) -> float:
    """Share of a user's comments falling in their k most used categories."""
    counts: Dict[str, int] = {}
    for category in category_string:
        counts[category] = counts.get(category, 0) + 1
    ordered = sorted(counts.values(), reverse=True)
    return sum(ordered[:k]) / sum(ordered)


def comment_behavior_report(
    database: SnapshotDatabase,
    store: str,
    day: Optional[int] = None,
    top_k_values: Sequence[int] = (1, 2, 3, 5, 10),
) -> CommentBehaviorReport:
    """Compute all four Figure-5 panels for one store."""
    users = database.comment_columns(store)["user_id"]
    if users.size == 0:
        raise ValueError(f"store {store!r} has no comments")
    comment_counts = np.unique(users, return_counts=True)[1]

    strings = user_category_strings(database, store, day)
    unique_counts = np.array(
        [len(set(string)) for string in strings.values()], dtype=np.float64
    )
    if unique_counts.size == 0:
        raise ValueError(f"store {store!r} has no category-mapped comments")

    # Panel (c): average top-k share over users with more than one comment
    # (the paper excludes single-comment users here).
    multi = [string for string in strings.values() if len(string) > 1]
    top_k_share: Dict[int, float] = {}
    for k in top_k_values:
        if k < 1:
            raise ValueError("top-k values must be >= 1")
        if multi:
            top_k_share[k] = float(
                np.mean([_top_k_share(string, k) for string in multi])
            )
        else:
            top_k_share[k] = float("nan")

    # Panel (d): downloads share per category.
    from repro.analysis.popularity import downloads_by_category

    totals = downloads_by_category(database, store, day)
    grand_total = sum(totals.values())
    shares = sorted(
        (
            (category, downloads / grand_total if grand_total else 0.0)
            for category, downloads in totals.items()
        ),
        key=lambda pair: pair[1],
        reverse=True,
    )

    return CommentBehaviorReport(
        store=store,
        n_users=comment_counts.size,
        n_comments=users.size,
        comments_per_user=Ecdf.from_samples(comment_counts),
        unique_categories_per_user=Ecdf.from_samples(unique_counts),
        top_k_comment_share=top_k_share,
        downloads_share_by_category=shares,
    )
