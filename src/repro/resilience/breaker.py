"""Circuit breaker on the simulated clock.

When a proxy (or any dependency) fails repeatedly, retrying through it
wastes the request budget and simulated time.  The breaker trips after a
run of consecutive failures, short-circuits calls while OPEN, admits a
probe once the reset timeout elapses (HALF_OPEN), and closes again after
enough probe successes.

Like every other time-dependent component in this tree the breaker holds
no clock of its own: callers pass ``now`` (simulated seconds), which
keeps the state machine exactly replayable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.resilience.errors import CircuitOpen


class BreakerState(str, enum.Enum):
    """The three canonical circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe phase.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker.
    reset_timeout:
        Simulated seconds the breaker stays OPEN before admitting probes.
    probe_successes:
        Probe successes required in HALF_OPEN to close the breaker; any
        probe failure re-opens it immediately.
    """

    failure_threshold: int = 3
    reset_timeout: float = 60.0
    probe_successes: int = 1
    _consecutive_failures: int = field(default=0, repr=False)
    _opened_at: float = field(default=float("-inf"), repr=False)
    _is_open: bool = field(default=False, repr=False)
    _probes_succeeded: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")

    @property
    def reopen_at(self) -> float:
        """Clock time at which an OPEN breaker starts admitting probes."""
        return self._opened_at + self.reset_timeout

    @property
    def tripped(self) -> bool:
        """Whether the breaker has tripped and not closed since: OPEN or
        HALF_OPEN, depending on the clock.  A breaker that is not tripped
        admits every call."""
        return self._is_open

    def state(self, now: float) -> BreakerState:
        """The breaker's state as of simulated time ``now``."""
        if not self._is_open:
            return BreakerState.CLOSED
        if now >= self.reopen_at:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now`` (OPEN blocks, others admit)."""
        return self.state(now) is not BreakerState.OPEN

    def check(self, now: float) -> None:
        """Raise :class:`CircuitOpen` when a call must be short-circuited."""
        if not self.allow(now):
            raise CircuitOpen(retry_at=self.reopen_at)

    def record_success(self, now: float) -> None:
        """Register a successful call; may close a HALF_OPEN breaker."""
        if self.state(now) is BreakerState.HALF_OPEN:
            self._probes_succeeded += 1
            if self._probes_succeeded >= self.probe_successes:
                self._close()
        else:
            self._close()

    def record_failure(self, now: float) -> None:
        """Register a failed call; may trip (or re-open) the breaker."""
        if self.state(now) is BreakerState.HALF_OPEN:
            get_registry().counter("breaker.reopened").add(1)
            self._trip(now)
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            get_registry().counter("breaker.opened").add(1)
            self._trip(now)

    def _trip(self, now: float) -> None:
        self._is_open = True
        self._opened_at = now
        self._probes_succeeded = 0

    def _close(self) -> None:
        # State transitions are observable events: OPEN/HALF_OPEN ->
        # CLOSED is counted; a no-op close (already closed) is not.
        if self._is_open:
            get_registry().counter("breaker.closed").add(1)
        self._is_open = False
        self._consecutive_failures = 0
        self._probes_succeeded = 0
