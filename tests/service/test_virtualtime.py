"""Tests for the virtual-clock scheduler of generator tasks.

The service's whole test story rests on this substrate: simulated hours
complete instantly, and tasks resume in exactly the order an asyncio
event loop on a virtual clock resumes the same program.  The unit tests
pin the scheduler's rules one by one; the property test runs random
task trees on the scheduler and on :class:`VirtualClockEventLoop`, a
virtual-clock asyncio loop kept here as the reference, and compares
every resume.
"""

import asyncio
import selectors
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.virtualtime import Scheduler, TaskCancelled


class _VirtualSelector:
    """Never blocks: a select timeout moves the loop's clock instead."""

    def __init__(self) -> None:
        self._real = selectors.DefaultSelector()
        self.loop = None

    def register(self, fileobj, events, data=None):
        return self._real.register(fileobj, events, data)

    def unregister(self, fileobj):
        return self._real.unregister(fileobj)

    def modify(self, fileobj, events, data=None):
        return self._real.modify(fileobj, events, data)

    def get_map(self):
        return self._real.get_map()

    def get_key(self, fileobj):
        return self._real.get_key(fileobj)

    def close(self) -> None:
        self._real.close()

    def select(self, timeout=None):
        events = self._real.select(0)
        if events:
            return events
        if timeout is None:
            raise RuntimeError("every task is blocked and no timer is due")
        if timeout > 0:
            self.loop.now += timeout
        return []


class VirtualClockEventLoop(asyncio.SelectorEventLoop):
    """The reference: an asyncio loop whose clock jumps to its next timer."""

    def __init__(self) -> None:
        self.now = 0.0
        selector = _VirtualSelector()
        super().__init__(selector)
        selector.loop = self

    def time(self) -> float:
        return self.now


def run_on_asyncio(main):
    loop = VirtualClockEventLoop()
    try:
        return loop.run_until_complete(main(loop))
    finally:
        loop.close()


def run_children(loop, coroutines):
    """``yield [...]`` in asyncio: gather, and on a failure cancel the
    children and wait for them before raising."""

    async def fan_out():
        tasks = [loop.create_task(coroutine) for coroutine in coroutines]
        try:
            return await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise

    return fan_out()


class TestClockBasics:
    def test_sleep_advances_virtual_time(self):
        """An hour's sleep takes no wall time."""
        scheduler = Scheduler()

        def task():
            now = yield 3600.0
            return now

        started = time.perf_counter()
        assert scheduler.run(task()) == 3600.0
        assert scheduler.now == 3600.0
        assert time.perf_counter() - started < 0.5

    def test_start_offset_is_respected(self):
        """A run starts from the clock the last run left."""
        scheduler = Scheduler()

        def sleep(delay):
            yield delay
            return scheduler.now

        assert scheduler.run(sleep(10.0)) == 10.0
        assert scheduler.run(sleep(5.0)) == 15.0

    def test_a_sleep_longer_than_a_day_ends_on_its_due_time(self):
        # The clock jumps at most a day a pass, by ``now += when - now``.
        scheduler = Scheduler()

        def sleeper():
            now = yield 200_000.3
            return now

        assert scheduler.run(sleeper()) == 200_000.3

    def test_result_is_returned(self):
        scheduler = Scheduler()

        def child(value):
            yield 1.0
            return value

        def parent():
            results = yield [child("a"), child("b")]
            return {"results": results}

        assert scheduler.run(parent()) == {"results": ["a", "b"]}

    def test_zero_sleep_yields_without_advancing_much(self):
        """A zero delay resumes the task one pass later, on the same clock."""
        scheduler = Scheduler()
        order = []

        def waiter(name):
            order.append(f"{name} sleeps")
            yield 0
            order.append(f"{name} wakes")

        def main():
            yield [waiter("a"), waiter("b")]

        scheduler.run(main())
        assert order == ["a sleeps", "b sleeps", "a wakes", "b wakes"]
        assert scheduler.now == 0.0

    def test_advance_rejects_negative(self):
        """A negative delay never moves the clock back: like a zero delay,
        it resumes the task one pass later."""
        scheduler = Scheduler()

        def task():
            yield 5.0
            now = yield -1.0
            return now

        assert scheduler.run(task()) == 5.0
        assert scheduler.now == 5.0


class TestScheduling:
    def test_timers_fire_in_deadline_order(self):
        scheduler = Scheduler()
        order = []

        def sleeper(name, delay):
            now = yield delay
            order.append((now, name))

        def main():
            yield [sleeper("slow", 30.0), sleeper("fast", 5.0), sleeper("mid", 12.0)]

        scheduler.run(main())
        assert order == [(5.0, "fast"), (12.0, "mid"), (30.0, "slow")]

    def test_a_zero_delay_resumes_before_a_due_timer(self):
        """A timer that falls due readies its task for the next pass; a
        zero delay taken in that pass resumes one pass after it."""
        scheduler = Scheduler()
        order = []

        def sleeper():
            yield 1.0
            order.append("timer")

        def zero():
            yield 1.0
            yield 0
            order.append("zero")

        def main():
            yield [zero(), sleeper()]

        scheduler.run(main())
        assert order == ["timer", "zero"]

    def test_equal_due_times_resume_in_asyncios_heap_order(self):
        names = [f"t{index}" for index in range(7)]

        def on_scheduler():
            scheduler = Scheduler()
            order = []

            def sleeper(name):
                yield 5.0
                order.append(name)

            def main():
                yield [sleeper(name) for name in names]

            scheduler.run(main())
            return order

        async def on_asyncio(loop):
            order = []

            async def sleeper(name):
                await asyncio.sleep(5.0)
                order.append(name)

            await run_children(loop, [sleeper(name) for name in names])
            return order

        expected = run_on_asyncio(on_asyncio)
        # The heap does not keep ties first-in first-out...
        assert expected != names
        assert on_scheduler() == expected

    def test_timers_due_within_a_nanosecond_fire_together(self):
        scheduler = Scheduler()
        order = []

        def sleeper(name, delay):
            yield delay
            order.append((name, scheduler.now))

        def main():
            yield [sleeper("late", 1.0 + 5e-10), sleeper("early", 1.0),
                   sleeper("later", 1.0 + 2e-9)]

        scheduler.run(main())
        # "late" fires in the pass of "early"'s timer and never sees its
        # own due time on the clock; "later" waits for its own pass.
        assert order == [("early", 1.0), ("late", 1.0), ("later", 1.0 + 2e-9)]


class TestFailureModes:
    def test_exception_propagates_and_loop_is_closed(self):
        """The exception leaves ``run()``, and the scheduler is left with
        nothing ready, so the next run starts clean."""
        scheduler = Scheduler()

        def failing():
            yield 1.0
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run(failing())

        def again():
            yield 1.0
            return "ok"

        assert scheduler.run(again()) == "ok"
        assert scheduler.now == 2.0

    def test_a_failing_child_cancels_its_siblings_and_their_timers(self):
        scheduler = Scheduler()
        log = []

        def sleeper(name):
            try:
                yield 100.0
            except TaskCancelled:
                log.append((name, "cancelled", scheduler.now))
                raise
            log.append((name, "woke", scheduler.now))

        def failer():
            yield 1.0
            raise LookupError("lost")

        def parent():
            try:
                yield [sleeper("a"), failer(), sleeper("b")]
            except LookupError as error:
                log.append(("parent", str(error), scheduler.now))
            # The siblings' timers at t=100 are flagged: a later sleep
            # wakes on its own due time and nothing else wakes.
            yield 500.0
            log.append(("parent", "slept", scheduler.now))

        scheduler.run(parent())
        assert log == [
            ("a", "cancelled", 1.0),
            ("b", "cancelled", 1.0),
            ("parent", "lost", 1.0),
            ("parent", "slept", 501.0),
        ]
        assert not scheduler._timers

    def test_the_parent_sees_the_first_failure(self):
        scheduler = Scheduler()

        def failer(delay, error):
            yield delay
            raise error

        def parent():
            yield [failer(2.0, KeyError("second")), failer(1.0, KeyError("first"))]

        with pytest.raises(KeyError, match="first"):
            scheduler.run(parent())
        assert scheduler.now == 1.0

    def test_a_heap_mostly_flagged_is_rebuilt_as_asyncio_rebuilds_it(self):
        """150 sleepers cancelled at once leave more than 100 timers on
        the heap, over half of them flagged and below 20 live ones; tied
        timers pushed after that come out in the rebuilt heap's order."""
        delays = [100.0 + index % 7 for index in range(150)]
        live = [f"l{index}" for index in range(20)]
        tied = [f"t{index}" for index in range(9)]

        def on_scheduler():
            scheduler = Scheduler()
            order = []

            def sleeper(delay):
                yield delay

            def failer():
                yield 0.5
                raise LookupError

            def waker(name, delay):
                yield delay
                order.append((name, scheduler.now))

            def branch():
                try:
                    yield [sleeper(delay) for delay in delays] + [failer()]
                except LookupError:
                    pass
                yield [waker(name, 3.0) for name in tied]

            def main():
                yield [branch()] + [waker(name, 50.0) for name in live]

            scheduler.run(main())
            return order

        async def on_asyncio(loop):
            order = []

            async def sleeper(delay):
                await asyncio.sleep(delay)

            async def failer():
                await asyncio.sleep(0.5)
                raise LookupError

            async def waker(name, delay):
                await asyncio.sleep(delay)
                order.append((name, loop.time()))

            async def branch():
                try:
                    await run_children(
                        loop, [sleeper(delay) for delay in delays] + [failer()]
                    )
                except LookupError:
                    pass
                await run_children(loop, [waker(name, 3.0) for name in tied])

            await run_children(
                loop, [branch()] + [waker(name, 50.0) for name in live]
            )
            return order

        assert on_scheduler() == run_on_asyncio(on_asyncio)


# ----------------------------------------------------------------------
# Random task trees: the scheduler against the reference asyncio loop
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


DELAYS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-10, 5e-10, 0.25, 1.0, 1.0, 2.5, 100_000.5]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
LEAF_ACTIONS = st.one_of(st.tuples(st.just("sleep"), DELAYS), st.just(("fail",)))


def _extend(nodes):
    spawn = st.tuples(
        st.just("spawn"), st.lists(nodes, min_size=1, max_size=4), st.booleans()
    )
    return st.lists(st.one_of(LEAF_ACTIONS, spawn), max_size=5)


TREES = st.recursive(st.lists(LEAF_ACTIONS, max_size=4), _extend, max_leaves=24)


def scheduler_resumes(roots):
    scheduler = Scheduler()
    log = []

    def node(name, actions):
        try:
            for step, action in enumerate(actions):
                if action[0] == "sleep":
                    yield action[1]
                    log.append((name, step, scheduler.now))
                elif action[0] == "fail":
                    raise Boom(name)
                else:
                    children = [
                        node(f"{name}.{index}", child)
                        for index, child in enumerate(action[1])
                    ]
                    try:
                        yield children
                    except Boom as error:
                        if not action[2]:
                            raise
                        log.append((name, step, "caught", str(error), scheduler.now))
                    else:
                        log.append((name, step, scheduler.now))
        except TaskCancelled:
            log.append((name, "cancelled", scheduler.now))
            raise

    for index, root in enumerate(roots):
        try:
            scheduler.run(node(str(index), root))
        except Boom as error:
            log.append((str(index), "failed", str(error), scheduler.now))
    return log


def asyncio_resumes(roots):
    log = []

    async def node(loop, name, actions):
        try:
            for step, action in enumerate(actions):
                if action[0] == "sleep":
                    await asyncio.sleep(action[1])
                    log.append((name, step, loop.time()))
                elif action[0] == "fail":
                    raise Boom(name)
                else:
                    children = [
                        node(loop, f"{name}.{index}", child)
                        for index, child in enumerate(action[1])
                    ]
                    try:
                        await run_children(loop, children)
                    except Boom as error:
                        if not action[2]:
                            raise
                        log.append((name, step, "caught", str(error), loop.time()))
                    else:
                        log.append((name, step, loop.time()))
        except asyncio.CancelledError:
            log.append((name, "cancelled", loop.time()))
            raise

    async def main(loop):
        for index, root in enumerate(roots):
            try:
                await node(loop, str(index), root)
            except Boom as error:
                log.append((str(index), "failed", str(error), loop.time()))

    run_on_asyncio(main)
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(TREES, min_size=1, max_size=3))
# The clock lands on ``now + (when - now)``, not on ``when``.
@example(roots=[[("spawn", [[("sleep", 0.9560342718892494)],
                             [("sleep", 3.843482461178048)]], False)]])
# ...and a jump longer than a day goes a day at a time.
@example(roots=[[("spawn", [[("sleep", 0.5709344036440598)],
                             [("sleep", 160797.07262900347)]], False)]])
# A task cancelled while it cleans up after its own failed child takes
# the cancellation, not the child's error, so its catch does not run.
@example(roots=[[(
    "spawn",
    [
        [("spawn", [[("spawn", [[("sleep", 2.0 - 5e-10), ("fail",)],
                                [("sleep", 100.0)]], True),
                     ("sleep", 1.0)]], False)],
        [("sleep", 2.0), ("fail",)],
    ],
    False,
)]])
# A cancelled sleeper's timer is flagged when the sleeper takes the
# cancellation, a pass after it was cancelled, and not before.
@example(roots=[[(
    "spawn",
    [
        [("spawn", [[("sleep", 1.0)], [("fail",)]], True)],
        [("sleep", 0.0), ("sleep", 0.0), ("sleep", 0.0),
         ("spawn", [[("sleep", 5.0)], [("sleep", 2.0)]], True)],
        [("sleep", 5.0)],
    ],
    True,
)]])
def test_random_task_trees_resume_as_on_asyncio(roots):
    assert scheduler_resumes(roots) == asyncio_resumes(roots)


# ----------------------------------------------------------------------
# Import footprint
# ----------------------------------------------------------------------


def test_the_service_does_not_import_asyncio():
    probe = (
        "import sys, repro.service, repro.cli\n"
        "print('asyncio' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "False"
