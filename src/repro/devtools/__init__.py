"""Developer tooling for the reproduction: static analysis and CI gates.

Nothing in this package is imported by the simulation or analysis code
(apart from the zero-cost ``@pure`` marker); it exists to keep *them*
honest.  :mod:`repro.devtools.lint` is the one static analyzer
(``repro lint`` / ``make lint``): per-file rules plus the whole-program
passes of :mod:`repro.devtools.flow`.
"""

from __future__ import annotations
