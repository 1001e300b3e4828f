"""Synthetic appstore marketplace substrate.

The paper's measurements were taken from live crawls of four third-party
Android appstores (Anzhi, AppChina, 1Mobile, SlideMe).  Those traces are
proprietary and the stores have changed beyond recognition, so this package
builds the closest synthetic equivalent: a full marketplace simulator whose
user population exhibits the two behavioural mechanisms the paper
identifies -- *fetch-at-most-once* and the *clustering effect* -- and whose
scale parameters are calibrated per store to Table 1 of the paper.

Layout
------
- :mod:`repro.marketplace.entities` -- the data model (apps, developers,
  versions, APK packages; users and comments are arrays held by the
  store).
- :mod:`repro.marketplace.catalog` -- category taxonomies per store.
- :mod:`repro.marketplace.pricing` -- price assignment for paid apps.
- :mod:`repro.marketplace.ads` -- the ad-network catalog and ad-library
  injection into synthetic APKs.
- :mod:`repro.marketplace.behavior` -- the user download behaviour engine
  (the generative process the APP-CLUSTERING model abstracts).
- :mod:`repro.marketplace.store` -- the live appstore: catalog, download
  ledger, comment log, and day-by-day simulation loop.
- :mod:`repro.marketplace.profiles` -- per-store scale profiles calibrated
  to Table 1.
- :mod:`repro.marketplace.generator` -- builds a ready-to-run store from a
  profile.
"""

from repro.marketplace.catalog import CategoryTaxonomy, default_taxonomy
from repro.marketplace.entities import ApkPackage, App, AppVersion, Developer
from repro.marketplace.generator import build_store
from repro.marketplace.profiles import (
    StoreProfile,
    paper_profiles,
    scaled_profile,
)
from repro.marketplace.store import AppStore

__all__ = [
    "ApkPackage",
    "App",
    "AppStore",
    "AppVersion",
    "CategoryTaxonomy",
    "Developer",
    "StoreProfile",
    "build_store",
    "default_taxonomy",
    "paper_profiles",
    "scaled_profile",
]
