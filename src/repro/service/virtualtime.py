"""A deterministic virtual-clock scheduler of generator tasks.

The always-on service simulates months of store time; waiting those
months out on the wall clock would make soak tests (and the service
itself) unrunnable.  A task here is a generator, and it can wait on two
things only:

- ``now = yield delay`` sleeps ``delay`` seconds of virtual time and is
  sent the clock when it wakes;
- ``results = yield [child, ...]`` runs the child generators as tasks
  and is sent their return values, in order, once all have finished.
  When a child raises, its siblings are cancelled (:class:`TaskCancelled`
  is thrown into them) and, once they have finished, the child's
  exception is thrown into the parent.

Whenever no task is ready the clock jumps to the next timer, so an
hour's sleep takes microseconds.  A task that waits only on time or on
its own children can neither deadlock nor leak: every waiting task has a
timer or a live child below it, and a parent outlives its children.

The scheduler resumes tasks in exactly the order an asyncio event loop
on a virtual clock resumes the same program written with
``asyncio.sleep``, ``create_task`` and ``gather`` (with the parent's
cancel-then-gather clean-up on a failed child), so moving the service
off asyncio moved no byte of its output:

- a *pass* runs every entry that was ready when it began, first in first
  out; what they make ready runs in the next pass;
- the timer heap compares due times only, so tied timers leave it in
  the heap's own order, as asyncio's ``TimerHandle`` do;
- the clock moves only at the start of a pass with nothing ready, by
  ``now += when - now`` for the earliest timer, at most 86,400 s a pass;
- a timer due within 1e-9 s of the clock fires in that pass and readies
  its task, which runs one pass later; a delay of zero or less readies
  the task for the next pass;
- a finished child is counted by its parent's group one pass later, and
  the last one readies the parent one pass after that;
- a cancelled sleeper's timer stays on the heap, flagged when the
  sleeper takes its cancellation, until it reaches the top at the start
  of a pass; a heap of more than 100 timers, over half of them flagged,
  is rebuilt without them.

:meth:`Scheduler.run` steps its task at once, as a parent continuing
its own step would, and returns when the task finishes; the clock and
the heap carry over to the next call.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Generator, List, Optional

__all__ = ["Scheduler", "TaskCancelled"]

#: The longest jump of the clock in one pass (asyncio's longest select).
_MAX_JUMP = 86400.0
#: Timers due before ``now`` plus this fire together (asyncio's clock
#: resolution: the monotonic clock's, one nanosecond on Linux).
_RESOLUTION = 1e-9
#: A heap holding more timers than this is rebuilt when over half of
#: them are flagged.
_REBUILD_ABOVE = 100
#: The ``value`` of a task that has not started: its first step sends None.
_START = object()


class TaskCancelled(BaseException):
    """Thrown into a task whose sibling failed, so it stops where it waits.

    A ``BaseException``, like asyncio's ``CancelledError``: an ``except
    Exception`` clause in the task does not swallow it.
    """


class _Task:
    """One generator's scheduling state."""

    __slots__ = (
        "gen", "timer", "value", "error", "must_cancel", "group", "groups",
        "done", "result", "failure",
    )

    def __init__(self, gen: Generator) -> None:
        self.gen = gen
        # The heap entry ``[when, task]`` this task sleeps on.
        self.timer: Optional[list] = None
        # The next step sends ``value`` (the clock when None) or throws
        # ``error``; ``must_cancel`` turns either into a cancellation.
        self.value = _START
        self.error: Optional[BaseException] = None
        self.must_cancel = False
        # The group this task waits on, and the groups waiting on it.
        self.group: Optional[_Group] = None
        self.groups: List[_Group] = []
        self.done = False
        self.result = None
        self.failure: Optional[BaseException] = None

    # Tied heap entries compare their tasks, and neither may come out
    # less: the heap then orders ties as it would timers compared by
    # due time alone.
    def __lt__(self, other) -> bool:
        return False

    __gt__ = __lt__


class _Group:
    """The children a task waits on.

    A fan-out group fails on its first failed child; the clean-up group
    the parent waits on after that counts every child and then hands
    the parent ``failure`` to throw.
    """

    __slots__ = ("waiter", "children", "finished", "done", "cancel_requested",
                 "failure")

    def __init__(
        self,
        waiter: _Task,
        children: List[_Task],
        failure: Optional[BaseException] = None,
    ) -> None:
        self.waiter = waiter
        self.children = children
        self.finished = 0
        self.done = False
        self.cancel_requested = False
        self.failure = failure


class Scheduler:
    """Generator tasks on one virtual clock; see the module docstring.

    ``now`` is the clock, in seconds from 0.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._ready: deque = deque()
        self._timers: List[list] = []
        self._flagged = 0

    def run(self, task: Generator):
        """Run ``task`` to its end and return its value (or raise its
        exception)."""
        root = _Task(task)
        self._step(root)
        while not root.done:
            self._pass()
        if root.failure is not None:
            raise root.failure
        return root.result

    # ------------------------------------------------------------------
    # One pass
    # ------------------------------------------------------------------

    def _pass(self) -> None:
        ready, timers = self._ready, self._timers
        if len(timers) > _REBUILD_ABOVE and self._flagged * 2 > len(timers):
            timers[:] = [entry for entry in timers if entry[1] is not None]
            heapify(timers)
            self._flagged = 0
        else:
            while timers and timers[0][1] is None:
                heappop(timers)
                self._flagged -= 1
        if not ready and timers:
            jump = timers[0][0] - self.now
            if jump > _MAX_JUMP:
                jump = _MAX_JUMP
            if jump > 0:
                self.now += jump
        end = self.now + _RESOLUTION
        fired = []
        while timers and timers[0][0] < end:
            entry = heappop(timers)
            if entry[1] is not None:
                fired.append(entry[1])
                entry[1] = None
        for _ in range(len(ready)):
            entry = ready.popleft()
            if entry.__class__ is _Task:
                self._step(entry)
            else:
                self._child_done(*entry)
        for task in fired:
            # Not if the task was cancelled while its timer was due.
            if task.timer is not None and task.error is None:
                task.timer = None
                ready.append(task)

    def _step(self, task: _Task) -> None:
        error = task.error
        if task.must_cancel:
            task.must_cancel = False
            if not isinstance(error, TaskCancelled):
                error = TaskCancelled()
        if error is not None and not self._take_error(task, error):
            return
        try:
            if error is not None:
                yielded = task.gen.throw(error)
            elif task.value is None:
                yielded = task.gen.send(self.now)
            else:
                value, task.value, task.group = task.value, None, None
                yielded = task.gen.send(None if value is _START else value)
            while yielded.__class__ is list and not yielded:
                yielded = task.gen.send([])
        except StopIteration as stop:
            self._finish(task, stop.value, None)
            return
        except BaseException as failure:
            self._finish(task, None, failure)
            return
        if yielded.__class__ is list:
            children = [_Task(child) for child in yielded]
            group = task.group = _Group(task, children)
            for child in children:
                child.groups.append(group)
                self._ready.append(child)
        elif yielded > 0:
            entry = task.timer = [self.now + yielded, task]
            heappush(self._timers, entry)
        else:
            self._ready.append(task)

    def _take_error(self, task: _Task, error: BaseException) -> bool:
        """Prepare a step that raises ``error`` in ``task``; False when the
        step is the clean-up of a failed fan-out instead."""
        task.error = task.value = None
        entry = task.timer
        if entry is not None:
            # Cancelled asleep: its timer is flagged if still on the heap.
            task.timer = None
            if entry[1] is not None:
                entry[1] = None
                self._flagged += 1
        group = task.group
        if group is None:
            return True
        task.group = None
        if group.failure is not None:
            return True
        # A child failed (or the parent was cancelled): cancel the
        # children, then wait for every one of them to finish.
        children = group.children
        for child in children:
            self._cancel(child)
        cleanup = task.group = _Group(task, children, failure=error)
        for child in children:
            if child.done:
                self._ready.append((cleanup, child))
            else:
                child.groups.append(cleanup)
        return False

    def _finish(self, task: _Task, result, failure) -> None:
        task.done = True
        task.result = result
        task.failure = failure
        for group in task.groups:
            self._ready.append((group, task))
        # Leave no cycle through the groups: a finished day's fan-out is
        # freed by reference counting, not held until a full collection.
        task.groups.clear()

    def _child_done(self, group: _Group, child: _Task) -> None:
        group.finished += 1
        if group.done:
            return
        waiter = group.waiter
        if group.failure is None and child.failure is not None:
            group.done = True
            waiter.error = child.failure
            self._ready.append(waiter)
        elif group.finished == len(group.children):
            group.done = True
            if group.cancel_requested:
                waiter.error = TaskCancelled()
            elif group.failure is not None:
                waiter.error = group.failure
            else:
                waiter.value = [child.result for child in group.children]
            self._ready.append(waiter)

    def _cancel(self, task: _Task) -> bool:
        """Cancel ``task``; False when it has already finished."""
        if task.done:
            return False
        if task.timer is not None and task.error is None:
            # Asleep: it takes the cancellation in the next pass.
            task.error = TaskCancelled()
            self._ready.append(task)
            return True
        group = task.group
        if group is not None and not group.done:
            cancelled = False
            for child in group.children:
                if self._cancel(child):
                    cancelled = True
            if cancelled:
                group.cancel_requested = True
                return True
        task.must_cancel = True
        return True
