"""Purity contracts checked by the whole-program analyzer.

:func:`pure` is the only runtime artifact of the purity pass: a marker
decorator with **zero call overhead** (it tags the function object and
returns it unchanged), importable from hot modules without dragging any
analyzer machinery along -- this module deliberately imports nothing.

The contract a ``@pure`` function promises, verified statically by
``repro lint`` (``RPL120-123``):

- no writes to globals, closures, ``self``, or any argument -- the only
  mutable state it touches is what it allocates itself;
- no I/O (files, sockets, stdout, logging) and no wall clock;
- every callee is itself ``@pure``, an allowlisted numpy/builtin
  operation, or a method on a value the function owns;
- the one sanctioned effect: draws from a ``numpy.random.Generator``
  passed *explicitly* as a parameter.  The function is "pure modulo its
  arguments": same arguments (including Generator state) in, same
  values out, nothing else observed or changed.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: Attribute set on decorated functions; the analyzer matches the
#: decorator *syntactically*, so this exists only for runtime
#: introspection (``is_pure``) and documentation tooling.
PURE_ATTRIBUTE = "__repro_pure__"


def pure(func: _F) -> _F:
    """Mark a function as a statically-verified pure kernel."""
    setattr(func, PURE_ATTRIBUTE, True)
    return func


def is_pure(func: Callable) -> bool:
    """Whether a callable carries the ``@pure`` contract marker."""
    return getattr(func, PURE_ATTRIBUTE, False) is True
