"""Outside-in instrumentation for the end-to-end benchmark.

Nothing under ``src/`` knows it is being measured: every span is a
wrapper that the benchmark installs over a layer's public entry point
for the length of one repeat and removes afterwards.  A name is patched
where its caller looks it up -- a class attribute for methods, the
importing module's attribute for functions bound by ``from x import y``.

Two instruments share the patching helper:

- :class:`Marks` is the only instrument active in timed repeats: one
  ``perf_counter`` read at the entry of a few stable entry points, which
  cuts the repeat into intervals, and a fixed speed probe timed at every
  ``PROBE_EVERY``-th of them;
- :class:`Tracer` is the traced pass: nested spans with self time,
  call counts and optional unit counts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Patches:
    """Replace attributes for the life of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Install ``make(original)`` as ``owner.attr``; a ``classmethod``
        is unwrapped first and re-wrapped around the replacement.  An
        entry point the program no longer has is left alone: its marks
        are missing and its span metrics read 0."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        replacement = functools.wraps(function)(make(function))
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(replacement) if is_classmethod else replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


PROBE_EVERY = 4
# What one probe takes on a quiet 2-core x86_64 VM (Python 3.11.7), the
# host the bounds of BENCHMARK.json were set on.  It only fixes the scale
# of the corrected times (README.md, "Host speed").
PROBE_REFERENCE_S = 10e-6


def _probe_loop() -> int:
    table: Dict[int, int] = {}
    for i in range(100):
        table[i & 63] = table.get(i & 63, 0) + i
    return len(table)


def probe() -> float:
    """Seconds the fixed probe loop takes now, on its second call (the
    first warms its code and data)."""
    _probe_loop()
    start = perf_counter()
    _probe_loop()
    return perf_counter() - start


class Marks(Patches):
    """Checkpoints that cut a repeat into intervals, and probe the host.

    Each phase :meth:`mark`, and each marked call of an entry point,
    appends ``(label, day, start, end)``; an interval runs from one mark's
    end to the next mark's start and carries the first mark's label and
    day.  ``day`` is the simulated store day the work after the mark
    belongs to; a mark without one keeps the previous mark's.

    Each phase mark and every ``PROBE_EVERY``-th mark times :func:`probe`
    between its start and end, so no interval contains a probe.  The
    marks follow the program's work, so the probes sample the host's
    speed evenly over the work, and :meth:`slowdown` is how many times
    slower than on a quiet host the set-up, or the rest, ran.
    """

    def __init__(self) -> None:
        super().__init__()
        self.marks: List[tuple] = []
        self.probes: List[tuple] = []  # (label, seconds)

    def mark(self, label: str, day: Optional[int] = None) -> None:
        """A phase mark: ``setup`` before each set-up, ``wall`` and ``end``."""
        self._mark(label, day, probing=True)

    def _mark(self, label: str, day: Optional[int], probing: bool) -> None:
        if day is None and self.marks:
            day = self.marks[-1][1]
        start = perf_counter()
        if probing:
            self.probes.append((label, probe()))
        self.marks.append((label, day, start, perf_counter()))

    def at(self, owner, attr: str, label: str,
           day: Optional[Callable] = None, every: int = 1) -> None:
        """Mark the entry of every ``every``-th call of ``owner.attr``;
        ``day(args)`` names the store day the call works on."""
        calls = itertools.count(1)

        def make(function):
            def entry_mark(args) -> None:
                self._mark(label, day(args) if day else None,
                           probing=len(self.marks) % PROBE_EVERY == 0)

            if inspect.iscoroutinefunction(function):
                async def marked_async(*args, **kwargs):
                    entry_mark(args)
                    return await function(*args, **kwargs)
                return marked_async

            def marked(*args, **kwargs):
                if next(calls) % every == 0:
                    entry_mark(args)
                return function(*args, **kwargs)
            return marked

        self.wrap(owner, attr, make)

    def intervals(self) -> List[list]:
        """``[label, day, seconds]`` from each mark to the next."""
        return [[label, day, start - end]
                for (label, day, _, end), (_, _, start, _) in zip(self.marks, self.marks[1:])]

    def slowdown(self, setup: bool) -> float:
        """Mean time of the probes at ``setup`` marks (or at the others)
        over :data:`PROBE_REFERENCE_S`."""
        times = [seconds for label, seconds in self.probes if (label == "setup") == setup]
        return sum(times) / len(times) / PROBE_REFERENCE_S


_NONE = (0, 0.0, 0.0, 0)  # calls, total_s, self_s, units of an unseen span


class Tracer(Marks):
    """Nested wall-clock spans around patched entry points.

    Every span name accumulates ``[calls, total_s, self_s, units]``; a
    span's self time is its duration minus the time its direct child
    spans cover.  Spans opened with ``record=True`` are also kept as
    ``(name, start, end, parent, self_s)`` rows for the trace file; the
    high-frequency ones (a proxy pick, a snapshot write) are aggregated
    only, but still count as children of the span they ran in.

    Coroutine entry points may be traced only when no other traced
    coroutine runs concurrently with them (one service tick at a time);
    synchronous spans opened by interleaved tasks never yield, so the
    span stack stays well nested.  The traced repeat takes its setup and
    wall times from phase marks (:meth:`Marks.mark`) only.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[Optional[dict]] = []
        self._stack: List[list] = []
        self._origin = perf_counter()

    def _open(self, name: str, record: bool) -> None:
        index = None
        if record:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, perf_counter(), 0.0, index])

    def _close(self, units: int) -> None:
        end = perf_counter()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self_s = max(0.0, duration - child_s)
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        entry[3] += units
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            parent = next(
                (frame[3] for frame in reversed(self._stack) if frame[3] is not None),
                None,
            )
            self.spans[index] = {
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
                "self_s": self_s,
            }

    def span(self, owner, attr: str, name: str, record: bool = True,
             units: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""

        def make(function):
            if inspect.iscoroutinefunction(function):
                async def traced_async(*args, **kwargs):
                    self._open(name, record)
                    try:
                        return await function(*args, **kwargs)
                    finally:
                        self._close(0)
                return traced_async

            def traced(*args, **kwargs):
                self._open(name, record)
                try:
                    return function(*args, **kwargs)
                finally:
                    self._close(units(args) if units is not None else 0)
            return traced

        self.wrap(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        def make(function):
            def counted(*args, **kwargs):
                entry[0] += 1
                return function(*args, **kwargs)
            return counted

        self.wrap(owner, attr, make)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, _NONE)[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, _NONE)[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, _NONE)[2]

    def units(self, name: str) -> int:
        return int(self.stats.get(name, _NONE)[3])

    def layers(self) -> Dict[str, dict]:
        """Per-span aggregates, for the record's layer table."""
        return {
            name: {"calls": int(c), "total_s": t, "self_s": s}
            for name, (c, t, s, _) in sorted(self.stats.items())
        }
