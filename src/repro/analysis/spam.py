"""Spam-account detection in comment streams.

Section 4.1 of the paper found "a few users with a very large number of
comments ... posting spam, possibly using an automated script", and
excluded them from the affinity analysis (implicitly, via the group-size
filter).  This module makes the detection explicit, with two detectors:

- a **volume detector**: accounts whose comment count is an extreme
  upper outlier of the per-user distribution (median + k * IQR on the
  log scale, robust against the heavy tail of legitimate users);
- a **cadence detector**: accounts posting at a sustained per-day rate
  no human reaches.

The affinity study accepts the resulting exclusion set, so the paper's
"we plotted only the groups that had more than 10 samples, excluding, in
this way, the spam users" step can be reproduced with an explicit filter
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crawler.database import SnapshotDatabase


@dataclass(frozen=True)
class SpamReport:
    """Outcome of a spam scan over one store's comment streams."""

    store: str
    n_users: int
    spam_user_ids: frozenset
    volume_threshold: float
    cadence_threshold: float

    @property
    def n_spam_users(self) -> int:
        """Number of accounts flagged."""
        return len(self.spam_user_ids)

    @property
    def spam_fraction(self) -> float:
        """Fraction of commenting accounts flagged."""
        if self.n_users == 0:
            return 0.0
        return self.n_spam_users / self.n_users

    def is_spam(self, user_id: int) -> bool:
        """Whether an account was flagged."""
        return user_id in self.spam_user_ids

    def describe(self) -> str:
        """One summary line."""
        return (
            f"[{self.store}] flagged {self.n_spam_users}/{self.n_users} "
            f"accounts as spam (volume > {self.volume_threshold:.0f} "
            f"comments or > {self.cadence_threshold:.1f}/day sustained)"
        )


def volume_outlier_threshold(
    comment_counts: Sequence[int], iqr_multiplier: float = 8.0
) -> float:
    """Upper outlier fence on the log scale of per-user comment counts.

    The per-user comment distribution is heavy-tailed (Figure 5a), so the
    fence is computed on ``log1p`` counts: ``exp(Q3 + k * IQR) - 1``.
    A large default multiplier keeps legitimate heavy users (the paper's
    99th percentile is ~30 comments) well inside the fence.
    """
    counts = np.asarray(comment_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("comment_counts must be a non-empty 1-D array")
    if iqr_multiplier <= 0:
        raise ValueError("iqr_multiplier must be positive")
    log_counts = np.log1p(counts)
    q1, q3 = np.quantile(log_counts, [0.25, 0.75])
    iqr = max(q3 - q1, np.log(2.0))  # floor so degenerate IQRs still fence
    return float(np.expm1(q3 + iqr_multiplier * iqr))


def detect_spam_users(
    database: SnapshotDatabase,
    store: str,
    iqr_multiplier: float = 8.0,
    max_daily_rate: float = 12.0,
    min_active_days: int = 2,
) -> SpamReport:
    """Flag spam accounts in a store's comment streams.

    Parameters
    ----------
    database, store:
        Where the comment streams come from.
    iqr_multiplier:
        Strictness of the volume fence (larger = more lenient).
    max_daily_rate:
        Comments per *active day* beyond which an account is considered
        scripted.
    min_active_days:
        Cadence is only judged for accounts active on at least this many
        distinct days (a single burst day is not enough evidence).
    """
    if max_daily_rate <= 0:
        raise ValueError("max_daily_rate must be positive")
    if min_active_days < 1:
        raise ValueError("min_active_days must be >= 1")
    comments = database.comment_columns(store)
    users = comments["user_id"]
    if users.size == 0:
        raise ValueError(f"store {store!r} has no comments")

    user_ids, counts = np.unique(users, return_counts=True)
    threshold = volume_outlier_threshold(counts, iqr_multiplier=iqr_multiplier)
    # Distinct (user, day) pairs sort by user, so counting them per user
    # lines up with user_ids.
    pairs = np.unique(np.column_stack((users, comments["day"])), axis=0)
    active_days = np.unique(pairs[:, 0], return_counts=True)[1]
    flagged = (counts > threshold) | (
        (active_days >= min_active_days) & (counts / active_days > max_daily_rate)
    )

    return SpamReport(
        store=store,
        n_users=user_ids.size,
        spam_user_ids=frozenset(user_ids[flagged].tolist()),
        volume_threshold=threshold,
        cadence_threshold=max_daily_rate,
    )
