"""Per-source circuit breaker (closed → open → half-open → closed).

A flaky capture source that fails every read must not be hammered with
retries forever: each failed attempt costs backoff time that the monitor
spends blind.  The breaker counts consecutive failures; at the threshold it
*opens* and short-circuits calls (:class:`~repro.errors.CircuitOpenError`)
until a cooldown measured on the simulated clock elapses, then admits a
single *half-open* probe.  A successful probe closes the breaker; a failed
probe re-opens it with the cooldown scaled up (bounded), so a source that
stays dead is probed at a gentle, bounded rate.
"""

from __future__ import annotations

import enum
from typing import Callable

from ..obs import NULL_INSTRUMENTATION, Instrumentation
from .clock import SimulatedClock

__all__ = [
    "FAILURE_THRESHOLD",
    "MAX_RESET_TIMEOUT_S",
    "RESET_BACKOFF_FACTOR",
    "RESET_TIMEOUT_S",
    "BreakerState",
    "CircuitBreaker",
]


class BreakerState(enum.Enum):
    """The three classic breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


# Consecutive failures that trip the breaker.
FAILURE_THRESHOLD = 3
# Cooldown before the first half-open probe.
RESET_TIMEOUT_S = 5.0
# Cooldown multiplier after each failed probe.
RESET_BACKOFF_FACTOR = 2.0
# Cooldown ceiling.
MAX_RESET_TIMEOUT_S = 60.0


class CircuitBreaker:
    """Consecutive-failure breaker timed on the simulated clock.

    Args:
        clock: The service clock cooldowns are measured on.
        on_transition: Optional callback ``(old_state, new_state)`` invoked
            on every state change (the supervisor wires this to the event
            log).
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            counts state transitions into
            ``breaker_transitions_total{from=...,to=...}``.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        on_transition: Callable[[BreakerState, BreakerState], None] | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self._clock = clock
        self._on_transition = on_transition
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_s: float | None = None
        self._current_timeout_s = RESET_TIMEOUT_S

    @property
    def state(self) -> BreakerState:
        """Current breaker state (OPEN may lazily become HALF_OPEN on
        :meth:`allow_call` once the cooldown elapses)."""
        return self._state

    def retry_after_s(self) -> float:
        """Simulated seconds until the next probe is allowed (0 if callable
        now)."""
        if self._state is not BreakerState.OPEN or self._opened_at_s is None:
            return 0.0
        remaining = (
            self._opened_at_s + self._current_timeout_s - self._clock.now_s
        )
        return max(0.0, remaining)

    def allow_call(self) -> bool:
        """Whether a call may proceed right now.

        In OPEN state, returns False until the cooldown elapses, at which
        point the breaker moves to HALF_OPEN and admits one probe.
        """
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.HALF_OPEN:
            return True
        if self.retry_after_s() <= 0.0:
            self._transition(BreakerState.HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        """A call completed: reset the failure streak, close the breaker."""
        self._consecutive_failures = 0
        self._current_timeout_s = RESET_TIMEOUT_S
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)
        self._opened_at_s = None

    def record_failure(self) -> None:
        """A call failed: count it; trip or re-open the breaker as needed."""
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            # Failed probe: re-open with a longer cooldown, bounded.
            self._current_timeout_s = min(
                self._current_timeout_s * RESET_BACKOFF_FACTOR,
                MAX_RESET_TIMEOUT_S,
            )
            self._open()
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._open()

    def _open(self) -> None:
        self._opened_at_s = self._clock.now_s
        self._transition(BreakerState.OPEN)

    def _transition(self, new_state: BreakerState) -> None:
        old_state = self._state
        self._state = new_state
        if old_state is not new_state:
            self._obs.count(
                "breaker_transitions_total",
                labels={
                    "from_state": old_state.value,
                    "to_state": new_state.value,
                },
                help_text="Circuit-breaker state changes.",
            )
        if self._on_transition is not None and old_state is not new_state:
            self._on_transition(old_state, new_state)
