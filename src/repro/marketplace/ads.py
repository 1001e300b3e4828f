"""Advertising-network catalog and ad-library injection.

Section 6.3 of the paper scans free apps' APKs with a reverse-engineering
tool and finds that roughly 67% embed at least one of the 20 most popular
advertising networks.  We model a catalog of 20 ad networks (synthetic
package prefixes in the style of real SDKs), a popularity distribution over
them, and an injection step that decides which libraries each synthetic APK
embeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.rng import SeedLike, make_rng
from repro.stats.zipf import zipf_weights

# Synthetic package prefixes for the top-20 ad networks.  Names are made up
# but follow the reverse-domain convention real SDKs use, so the scanner in
# repro.analysis.adlib performs realistic prefix matching.
TOP_AD_NETWORKS: Tuple[str, ...] = (
    "com.adrift.sdk",
    "com.mobipop.ads",
    "net.clickwave.android",
    "com.bannerly.core",
    "io.adnest.client",
    "com.pixelpush.ads",
    "org.openadserve.mobile",
    "com.tapspree.sdk",
    "cn.admaster.android",
    "cn.wanggao.ads",
    "com.funnelads.lib",
    "com.skybeam.adkit",
    "net.promotia.sdk",
    "com.viewforge.ads",
    "io.monetix.android",
    "com.adglide.core",
    "org.freepromo.net",
    "com.clickmill.sdk",
    "cn.baitui.mobile",
    "com.sparkads.client",
)

# Non-advertising libraries commonly bundled in APKs; injected as noise so
# the scanner has to discriminate rather than just count libraries.
UTILITY_LIBRARIES: Tuple[str, ...] = (
    "com.google.gson",
    "org.apache.httpcomponents",
    "com.squareline.okclient",
    "org.json.android",
    "com.imageloadr.core",
    "net.sqlcipher.database",
    "com.crashlog.sdk",
    "org.greenbot.eventbus",
)


@dataclass(frozen=True)
class AdEcosystem:
    """The ad-network landscape of a marketplace.

    Parameters
    ----------
    ad_inclusion_rate:
        Probability a free app embeds at least one top-20 ad network
        (the paper measures ~0.67-0.677 on SlideMe).
    paid_ad_rate:
        Probability a *paid* app embeds ad libraries (the paper observes
        very few paid apps declare ads).
    network_skew:
        Zipf exponent over the 20 networks: a few networks dominate.
    max_networks_per_app:
        Upper bound on distinct ad SDKs in one APK.
    """

    ad_inclusion_rate: float = 0.67
    paid_ad_rate: float = 0.03
    network_skew: float = 1.0
    max_networks_per_app: int = 5

    def __post_init__(self) -> None:
        for name in ("ad_inclusion_rate", "paid_ad_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.network_skew < 0:
            raise ValueError("network_skew must be non-negative")
        if self.max_networks_per_app < 1:
            raise ValueError("max_networks_per_app must be >= 1")

    def network_weights(self) -> np.ndarray:
        """Popularity weights over the top-20 networks."""
        return zipf_weights(len(TOP_AD_NETWORKS), self.network_skew)

    def sample_library_sets(
        self, is_free: np.ndarray, seed: SeedLike = None
    ) -> Tuple[List[Tuple[str, ...]], np.ndarray]:
        """Libraries embedded in each of a batch of APKs, and which embed ads.

        APK ``i`` embeds ad networks with probability ``ad_inclusion_rate``
        when ``is_free[i]`` and ``paid_ad_rate`` otherwise: then
        ``1 + Binomial(max_networks_per_app - 1, 0.25)`` of them (at most
        20), without replacement, each next one drawn in proportion to
        its Zipf weight among those left, listed in draw order.  Every
        APK then lists ``Uniform{1..4}`` utility libraries drawn uniformly
        without replacement, so it looks realistic to the scanner.

        Each law is one draw for the whole batch, in this order: the
        inclusion coins, the network counts, an exponential race per
        APK with ads (keys ``E / w``; the first finishers in key order
        are successive weighted sampling), the utility counts, and
        random keys per APK whose sorted prefix is the utility choice.
        Returns the library tuples and the mask of APKs with ads.
        """
        rng = make_rng(seed)
        is_free = np.asarray(is_free, dtype=bool)
        n_apks, n_networks = is_free.size, len(TOP_AD_NETWORKS)
        rates = np.where(is_free, self.ad_inclusion_rate, self.paid_ad_rate)
        has_ads = rng.random(n_apks) < rates
        n_with_ads = int(np.count_nonzero(has_ads))
        counts = np.minimum(
            1 + rng.binomial(self.max_networks_per_app - 1, 0.25, size=n_with_ads),
            n_networks,
        )
        race = rng.standard_exponential((n_with_ads, n_networks))
        networks = np.argsort(race / self.network_weights(), axis=1)
        utility_counts = rng.integers(1, 5, size=n_apks)
        utilities = np.argsort(
            rng.random((n_apks, len(UTILITY_LIBRARIES))), axis=1
        )
        ad_lists: List[Tuple[str, ...]] = [()] * n_apks
        for index, row, count in zip(
            np.flatnonzero(has_ads).tolist(),
            networks[:, : self.max_networks_per_app].tolist(),
            counts.tolist(),
        ):
            ad_lists[index] = tuple(TOP_AD_NETWORKS[i] for i in row[:count])
        libraries = [
            ads + tuple(UTILITY_LIBRARIES[j] for j in row[:count])
            for ads, row, count in zip(
                ad_lists, utilities.tolist(), utility_counts.tolist()
            )
        ]
        return libraries, has_ads


_NETWORK_RANKS = {network: rank for rank, network in enumerate(TOP_AD_NETWORKS)}


def ad_network_of(library: str) -> Optional[str]:
    """The top-20 ad network a library is, or is a sub-package of (e.g.
    "com.adrift.sdk.banner"), or None; the earliest in
    :data:`TOP_AD_NETWORKS` order when several match.

    Checks each dotted prefix of the library, the whole name first.
    """
    best = None
    end = len(library)
    while end >= 0:
        rank = _NETWORK_RANKS.get(library[:end])
        if rank is not None and (best is None or rank < best):
            best = rank
        end = library.rfind(".", 0, end)
    return None if best is None else TOP_AD_NETWORKS[best]


def contains_ad_network(libraries: Sequence[str]) -> bool:
    """Whether a library list contains any top-20 ad network prefix."""
    return any(ad_network_of(library) is not None for library in libraries)
