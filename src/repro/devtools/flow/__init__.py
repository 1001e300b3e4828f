"""Whole-program passes of the RPL analyzer (run by ``repro lint``).

Where the per-file rules of :mod:`repro.devtools.lint` see one module at
a time, these passes work on a parsed, cross-linked tree
(:class:`~repro.devtools.flow.program.Program`):

- **RNG provenance** (``RPL101-102``): every Generator's provenance must
  reach :mod:`repro.stats.rng`; no wall-clock/builtin-hash value may
  reach a seed sink through any chain of calls.
- **Process-boundary escape** (``RPL110-113``): nothing that cannot
  survive pickling into a worker -- Generators, mmap-backed store
  handles, open files, ``MetricsRegistry`` -- may be reachable from a
  ``ProcessPoolExecutor.submit``/``map`` payload.
- **Purity contracts** (``RPL120-123``): kernels marked with the
  zero-cost :func:`pure` decorator are statically held to
  "deterministic, side-effect-free modulo explicitly-passed Generator
  arguments".

Only :func:`pure` / :func:`is_pure` are exported here: hot modules
decorate kernels without paying for any analyzer import.
"""

from __future__ import annotations

from repro.devtools.flow.contracts import is_pure, pure

__all__ = [
    "is_pure",
    "pure",
]
