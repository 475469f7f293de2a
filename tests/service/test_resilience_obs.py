"""Resilience corner cases with their observability side effects.

Two paths that earlier tests only brushed past:

* retry exhaustion — a source that never stops failing transiently must
  surface a chained :class:`~repro.errors.SourceUnavailableError` after
  exactly the retry budget, with every attempt mirrored into
  the ``source_transient_errors_total`` counter;
* half-open re-trip — a breaker probe that fails must re-open the breaker
  with a scaled-up cooldown and count both transitions, not silently
  close or stay half-open.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.obs import Instrumentation, MetricsRegistry
from repro.service.breaker import (
    FAILURE_THRESHOLD,
    RESET_BACKOFF_FACTOR,
    RESET_TIMEOUT_S,
    BreakerState,
)
from repro.service.clock import SimulatedClock
from repro.service import sources
from repro.service.sources import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    MAX_RETRIES,
    Packet,
    ResilientSource,
)


class _AlwaysFailingSource:
    """A source whose every read raises a transient error."""

    def __init__(self):
        self.n_reads = 0

    @property
    def exhausted(self) -> bool:
        return False

    def next_packet(self) -> Packet | None:
        self.n_reads += 1
        raise TransientSourceError("scripted permanent flakiness")


def _resilient(clock, registry, *, seed=0):
    inner = _AlwaysFailingSource()
    source = ResilientSource(
        lambda start_at_s: inner,
        clock,
        subject="lab",
        seed=seed,
        instrumentation=Instrumentation(clock=clock, registry=registry),
    )
    return source, inner


class TestRetryExhaustion:
    def test_chains_last_transient_error_with_attempt_count(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        source, inner = _resilient(clock, registry)

        with pytest.raises(SourceUnavailableError) as excinfo:
            source.next_packet()

        # First attempt + three retries, then give up.  The breaker trips
        # on the third failure but does not cut a read's retries short.
        assert excinfo.value.attempts == MAX_RETRIES + 1 == 4
        assert inner.n_reads == 4
        assert isinstance(excinfo.value.__cause__, TransientSourceError)
        assert source.counters["transient_errors"] == 4
        assert source.counters["reads_ok"] == 0

    def test_every_attempt_is_counted_in_obs(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        source, _ = _resilient(clock, registry)

        with pytest.raises(SourceUnavailableError):
            source.next_packet()

        counter = registry.counter(
            "source_transient_errors_total", labels={"subject": "lab"}
        )
        assert counter.value == MAX_RETRIES + 1

    def test_backoff_consumes_simulated_time_between_attempts(self, monkeypatch):
        monkeypatch.setattr(sources, "JITTER_FRACTION", 0.0)
        clock = SimulatedClock()
        registry = MetricsRegistry()
        source, _ = _resilient(clock, registry)

        with pytest.raises(SourceUnavailableError):
            source.next_packet()

        # Three backoff sleeps (0.05, 0.10, 0.20 s with jitter off); the
        # final failing attempt raises without sleeping again.
        assert MAX_RETRIES == 3
        assert BACKOFF_BASE_S == 0.05 and BACKOFF_FACTOR == 2.0
        assert clock.now_s == pytest.approx(0.35)


class TestHalfOpenReTrip:
    def test_failed_probe_reopens_with_scaled_cooldown(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        source, _ = _resilient(clock, registry)

        # One read's failing attempts trip the breaker.
        assert FAILURE_THRESHOLD <= MAX_RETRIES + 1
        with pytest.raises(SourceUnavailableError):
            source.next_packet()
        assert source.breaker.state is BreakerState.OPEN

        # While open, calls are short-circuited without touching the
        # source.
        with pytest.raises(CircuitOpenError):
            source.next_packet()
        assert source.counters["circuit_rejections"] == 1

        # Cooldown elapses; the half-open probe fails and must re-open
        # the breaker with the cooldown doubled.
        # The probe's first attempt fails at once, so the breaker re-opens
        # at probe_s; the read's retries then spend some of the cooldown.
        clock.advance(RESET_TIMEOUT_S)
        probe_s = clock.now_s
        with pytest.raises(SourceUnavailableError):
            source.next_packet()
        assert source.breaker.state is BreakerState.OPEN
        assert source.breaker.retry_after_s() == pytest.approx(
            probe_s + RESET_TIMEOUT_S * RESET_BACKOFF_FACTOR - clock.now_s
        )

        # The event log shows trip -> probe -> re-trip, in order.
        kinds = [k for k in source.events.kinds() if k.startswith("breaker-")]
        assert kinds == ["breaker-open", "breaker-half-open", "breaker-open"]

    def test_transitions_are_counted_by_state_pair(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        source, _ = _resilient(clock, registry)

        with pytest.raises(SourceUnavailableError):
            source.next_packet()
        clock.advance(RESET_TIMEOUT_S)
        with pytest.raises(SourceUnavailableError):
            source.next_packet()

        def transitions(from_state, to_state):
            return registry.counter(
                "breaker_transitions_total",
                labels={"from_state": from_state, "to_state": to_state},
            ).value

        assert transitions("closed", "open") == 1.0
        assert transitions("open", "half-open") == 1.0
        assert transitions("half-open", "open") == 1.0
        rejections = registry.counter(
            "source_circuit_rejections_total", labels={"subject": "lab"}
        )
        assert rejections.value == 0.0
