"""Circuit breaker state machine on the simulated clock."""

import pytest

from repro.service import (
    BreakerState,
    CircuitBreaker,
    SimulatedClock,
)
from repro.service.breaker import (
    FAILURE_THRESHOLD,
    MAX_RESET_TIMEOUT_S,
    RESET_BACKOFF_FACTOR,
    RESET_TIMEOUT_S,
)


def make_breaker(clock=None, transitions=None):
    clock = clock if clock is not None else SimulatedClock()
    on_transition = None
    if transitions is not None:
        def on_transition(old, new):
            transitions.append((old.value, new.value))
    return clock, CircuitBreaker(clock, on_transition=on_transition)


def trip(breaker):
    """Record a full streak of failures: the breaker opens."""
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        assert FAILURE_THRESHOLD == 3
        _, breaker = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow_call()

    def test_success_resets_the_streak(self):
        _, breaker = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_opens_at_threshold_and_rejects(self):
        _, breaker = make_breaker()
        trip(breaker)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow_call()
        assert breaker.retry_after_s() == pytest.approx(RESET_TIMEOUT_S)

    def test_half_open_probe_after_cooldown(self):
        clock, breaker = make_breaker()
        trip(breaker)
        assert not breaker.allow_call()
        clock.advance(RESET_TIMEOUT_S)
        assert breaker.allow_call()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_successful_probe_closes(self):
        clock, breaker = make_breaker()
        trip(breaker)
        clock.advance(RESET_TIMEOUT_S)
        assert breaker.allow_call()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.retry_after_s() == 0.0

    def test_failed_probe_reopens_with_scaled_bounded_cooldown(self):
        clock, breaker = make_breaker()
        trip(breaker)
        expected_s = RESET_TIMEOUT_S
        # Failed probes scale the cooldown 5 -> 10 -> 20 -> 40 s, then the
        # 60 s ceiling caps it (twice, to show it stays capped).
        for _ in range(5):
            clock.advance(expected_s)
            assert breaker.allow_call()
            breaker.record_failure()
            expected_s = min(
                expected_s * RESET_BACKOFF_FACTOR, MAX_RESET_TIMEOUT_S
            )
            assert breaker.state is BreakerState.OPEN
            assert breaker.retry_after_s() == pytest.approx(expected_s)
        assert expected_s == MAX_RESET_TIMEOUT_S

    def test_success_resets_the_cooldown_scale(self):
        clock, breaker = make_breaker()
        trip(breaker)
        clock.advance(RESET_TIMEOUT_S)
        breaker.allow_call()
        breaker.record_failure()
        clock.advance(RESET_TIMEOUT_S * RESET_BACKOFF_FACTOR)
        breaker.allow_call()
        breaker.record_success()
        trip(breaker)  # re-trip: cooldown back to the base 5 s
        assert breaker.retry_after_s() == pytest.approx(RESET_TIMEOUT_S)

    def test_transition_callback_sees_full_cycle(self):
        transitions = []
        clock, breaker = make_breaker(transitions=transitions)
        trip(breaker)
        clock.advance(RESET_TIMEOUT_S)
        breaker.allow_call()
        breaker.record_success()
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
