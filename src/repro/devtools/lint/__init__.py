"""The RPL static analyzer (``repro lint`` / ``make lint``).

One run checks the repository's own conventions, per file and across
the whole program:

- every stochastic path is replayable from a single seed: RNG
  discipline per file (``RPL001-004``), Generator provenance and
  clock/hash seed flow through any chain of calls (``RPL101-102``);
- nothing nondeterministic -- set iteration order, the wall clock in
  the virtual-time service -- shapes output (``RPL011``, ``RPL040``);
- nothing that cannot cross a process boundary reaches a worker
  payload (``RPL110-113``), and ``@pure`` kernels keep their contract
  (``RPL120-123``);
- the vectorized modules stay vectorized (``RPL020-021``);
- API hygiene: mutable defaults, float equality, ``__all__`` drift
  (``RPL030-032``).

Public API: :func:`analyze_paths` runs everything over files and
directories; :func:`lint_source` runs the per-file rules on one source
string.  :data:`RULE_TABLE` lists every code, :data:`RULES` the
per-file rule classes, :class:`Finding` is the result type, and
:func:`main` the command line.  Findings on a line are suppressed with
``# repro: noqa=RPLxxx -- justification``.
"""

from __future__ import annotations

from repro.devtools.lint.cli import add_lint_parser, analyze_paths, main, run_lint
from repro.devtools.lint.engine import ModuleInfo, Rule, lint_source
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.rules import RULE_TABLE, RULES

__all__ = [
    "Finding",
    "ModuleInfo",
    "RULES",
    "RULE_TABLE",
    "Rule",
    "add_lint_parser",
    "analyze_paths",
    "lint_source",
    "main",
    "run_lint",
]
