"""Packet sources: trace replay, scripted faults, and the resilient wrapper."""

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    SourceCrashedError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.service import (
    EventLog,
    FlakySourceAdapter,
    Packet,
    PacketSource,
    ResilientSource,
    SimulatedClock,
    SourceFault,
    TracePacketSource,
)
from repro.service.sources import MAX_RETRIES


@pytest.fixture()
def clock():
    return SimulatedClock()


class TestTracePacketSource:
    def test_is_a_packet_source(self, short_lab_trace, clock):
        source = TracePacketSource(short_lab_trace, clock)
        assert isinstance(source, PacketSource)

    def test_replays_every_packet_and_advances_clock(
        self, short_lab_trace, clock
    ):
        source = TracePacketSource(short_lab_trace, clock)
        count = 0
        while not source.exhausted:
            packet = source.next_packet()
            assert isinstance(packet, Packet)
            assert packet.timestamp_s == pytest.approx(
                float(short_lab_trace.timestamps_s[count])
            )
            count += 1
        assert count == short_lab_trace.n_packets
        assert clock.now_s == pytest.approx(
            float(short_lab_trace.timestamps_s[-1])
        )
        assert source.next_packet() is None

    def test_start_at_skips_the_past(self, short_lab_trace, clock):
        source = TracePacketSource(short_lab_trace, clock, start_at_s=5.0)
        packet = source.next_packet()
        assert packet is not None
        assert packet.timestamp_s >= 5.0


class TestSourceFault:
    def test_validates_kind_and_windows(self):
        with pytest.raises(ConfigurationError):
            SourceFault(kind="meteor", at_s=1.0)
        with pytest.raises(ConfigurationError):
            SourceFault(kind="stall", at_s=1.0)  # needs duration
        with pytest.raises(ConfigurationError):
            SourceFault(kind="hang", at_s=1.0)  # needs hang_s

    def test_end_time(self):
        fault = SourceFault(kind="stall", at_s=2.0, duration_s=3.0)
        assert fault.end_s == pytest.approx(5.0)


class TestFlakySourceAdapter:
    def test_transparent_without_faults(self, short_lab_trace, clock):
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock), clock
        )
        n = sum(1 for _ in iter(source.next_packet, None))
        assert n == short_lab_trace.n_packets

    def test_crash_is_permanent(self, short_lab_trace, clock):
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock),
            clock,
            faults=[SourceFault(kind="crash", at_s=2.0)],
        )
        while clock.now_s < 2.0:
            source.next_packet()
        with pytest.raises(SourceCrashedError):
            source.next_packet()
        with pytest.raises(SourceCrashedError):
            source.next_packet()

    def test_stall_returns_none_and_loses_the_backlog(
        self, short_lab_trace, clock
    ):
        interval = 1.0 / short_lab_trace.sample_rate_hz
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock),
            clock,
            faults=[SourceFault(kind="stall", at_s=2.0, duration_s=1.0)],
            nominal_interval_s=interval,
        )
        stall_polls = 0
        delivered_after = None
        while True:
            packet = source.next_packet()
            if packet is None:
                if source.exhausted:
                    break
                stall_polls += 1
                continue
            if stall_polls and delivered_after is None:
                delivered_after = packet.timestamp_s
        assert stall_polls > 0
        assert source.n_dropped_in_stalls > 0
        # The first packet delivered after the stall is from 'now', not
        # the pre-stall backlog.
        assert delivered_after is not None
        assert delivered_after >= 3.0 - interval

    def test_hang_consumes_simulated_time_once(self, short_lab_trace, clock):
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock),
            clock,
            faults=[SourceFault(kind="hang", at_s=2.0, hang_s=1.5)],
        )
        while clock.now_s < 2.0:
            source.next_packet()
        before = clock.now_s
        source.next_packet()
        assert clock.now_s - before >= 1.5
        # Only one read hangs.
        before = clock.now_s
        source.next_packet()
        assert clock.now_s - before < 1.0

    def test_transient_errors_fire_inside_window_only(
        self, short_lab_trace, clock
    ):
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock),
            clock,
            faults=[
                SourceFault(
                    kind="transient-errors",
                    at_s=2.0,
                    duration_s=1.0,
                    probability=1.0,
                )
            ],
            seed=7,
        )
        errors = 0
        while not source.exhausted:
            try:
                source.next_packet()
            except TransientSourceError:
                errors += 1
                clock.advance(0.05)  # a caller would back off here
        assert errors > 0


def _resilient(trace, clock, faults):
    events = EventLog()
    def factory(start_at_s):
        keep = tuple(
            f for f in faults
            if not (f.kind == "crash" and f.at_s <= start_at_s)
        )
        return FlakySourceAdapter(
            TracePacketSource(trace, clock, start_at_s=start_at_s),
            clock,
            faults=keep,
            seed=3,
            nominal_interval_s=1.0 / trace.sample_rate_hz,
        )
    source = ResilientSource(
        factory, clock, subject="s", events=events, seed=5
    )
    return source, events


class TestResilientSource:
    def test_clean_trace_passes_through(self, short_lab_trace, clock):
        source, events = _resilient(short_lab_trace, clock, ())
        n = 0
        while not source.exhausted:
            if source.next_packet() is not None:
                n += 1
        assert n == short_lab_trace.n_packets
        assert source.counters["reads_ok"] == n
        assert len(events) == 0

    def test_retries_then_unavailable_chains_cause(
        self, short_lab_trace, clock
    ):
        faults = (
            SourceFault(
                kind="transient-errors",
                at_s=0.0,
                duration_s=200.0,
                probability=1.0,
            ),
        )
        source, _ = _resilient(short_lab_trace, clock, faults)
        with pytest.raises(SourceUnavailableError) as excinfo:
            source.next_packet()
        assert excinfo.value.attempts == MAX_RETRIES + 1
        assert isinstance(excinfo.value.__cause__, TransientSourceError)
        assert source.counters["transient_errors"] == MAX_RETRIES + 1
        # Backoff consumed simulated time.
        assert clock.now_s > 0.0

    def test_breaker_opens_then_short_circuits(self, short_lab_trace, clock):
        faults = (
            SourceFault(
                kind="transient-errors",
                at_s=0.0,
                duration_s=200.0,
                probability=1.0,
            ),
        )
        # One read's failed attempts reach the breaker's threshold.
        source, events = _resilient(short_lab_trace, clock, faults)
        with pytest.raises(SourceUnavailableError):
            source.next_packet()
        with pytest.raises(CircuitOpenError) as excinfo:
            source.next_packet()
        assert excinfo.value.retry_after_s > 0.0
        assert source.counters["circuit_rejections"] == 1
        assert "breaker-open" in events.kinds()

    def test_crash_rebuilds_and_resumes_live(self, short_lab_trace, clock):
        faults = (SourceFault(kind="crash", at_s=2.0),)
        source, events = _resilient(short_lab_trace, clock, faults)
        with pytest.raises(SourceCrashedError):
            while True:
                source.next_packet()
        assert source.counters["crashes"] == 1
        assert source.counters["rebuilds"] == 1
        assert events.kinds() == ["source-crash", "source-restart"]
        packet = source.next_packet()
        assert packet is not None and packet.timestamp_s >= 2.0

    def test_hang_past_deadline_is_a_timeout(self, short_lab_trace, clock):
        faults = (SourceFault(kind="hang", at_s=1.0, hang_s=3.0),)
        source, events = _resilient(short_lab_trace, clock, faults)
        with pytest.raises(SourceTimeoutError) as excinfo:
            while True:
                source.next_packet()
        assert excinfo.value.elapsed_s >= 3.0
        assert source.counters["timeouts"] == 1
        assert "source-timeout" in events.kinds()

    def test_backoff_is_seeded_and_replayable(self, short_lab_trace):
        def run():
            clock = SimulatedClock()
            faults = (
                SourceFault(
                    kind="transient-errors",
                    at_s=0.0,
                    duration_s=200.0,
                    probability=1.0,
                ),
            )
            source, _ = _resilient(short_lab_trace, clock, faults)
            with pytest.raises(SourceUnavailableError):
                source.next_packet()
            return clock.now_s

        assert run() == run()


class TestNumpyIndependence:
    def test_wrapper_does_not_touch_global_numpy_state(
        self, short_lab_trace, clock
    ):
        # Seeded jitter must come from the wrapper's own generator; this
        # test pokes the global RNG on purpose to prove it is untouched.
        np.random.seed(0)  # phaselint: disable=PL001
        before = np.random.get_state()[1][:5].copy()  # phaselint: disable=PL001
        source, _ = _resilient(short_lab_trace, clock, ())
        source.next_packet()
        after = np.random.get_state()[1][:5]  # phaselint: disable=PL001
        assert np.array_equal(before, after)
