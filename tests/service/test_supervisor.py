"""MonitorSupervisor: watchdog, restarts, fallback ladder, health."""

import math

import pytest

from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError
from repro.service import (
    FALLBACK_METHODS,
    FlakySourceAdapter,
    MonitorSupervisor,
    SimulatedClock,
    SourceFault,
    SupervisorConfig,
    TracePacketSource,
)

STREAMING = StreamingConfig(window_s=10.0, hop_s=2.5)


def make_supervisor(clock=None):
    clock = clock if clock is not None else SimulatedClock()
    return MonitorSupervisor(
        clock=clock,
        config=SupervisorConfig(checkpoint_interval_s=5.0),
        streaming_config=STREAMING,
        seed=0,
    )


class _CorruptingSource:
    """Delivers the trace but corrupts the CSI shape of chosen packets."""

    def __init__(self, trace, clock, corrupt_indices, *, start_at_s=0.0):
        self._inner = TracePacketSource(trace, clock, start_at_s=start_at_s)
        self._corrupt = set(corrupt_indices)
        self._count = 0

    @property
    def exhausted(self):
        return self._inner.exhausted

    def next_packet(self):
        packet = self._inner.next_packet()
        self._count += 1
        if packet is not None and self._count in self._corrupt:
            return packet._replace(csi=packet.csi[:, :3])
        return packet


class TestBasicRun:
    def test_clean_run_emits_and_stays_healthy(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        supervisor.add_subject(
            "alice",
            lambda t0: TracePacketSource(service_trace, clock, start_at_s=t0),
            service_trace.sample_rate_hz,
        )
        estimates = supervisor.run()
        assert estimates, "no estimates emitted"
        fresh = [e for e in estimates if e.fresh and e.ok]
        assert fresh, "no fresh estimate in a clean run"
        truth = float(service_trace.meta["breathing_rates_bpm"][0])
        for estimate in fresh:
            assert estimate.method == FALLBACK_METHODS[0]
            assert estimate.rate_bpm == pytest.approx(truth, abs=2.0)
        health = supervisor.health_summary()
        assert health["health"] == "healthy"
        assert health["breaker"] == "closed"
        assert supervisor.events.select(kind="checkpoint")

    def test_duplicate_subject_rejected(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)

        def factory(t0):
            return TracePacketSource(service_trace, clock)

        supervisor.add_subject("alice", factory, 100.0)
        # A supervisor holds one subject, under any name.
        for name in ("alice", "bob"):
            with pytest.raises(ConfigurationError, match="one subject"):
                supervisor.add_subject(name, factory, 100.0)

    def test_unknown_name_rejected(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        supervisor.add_subject(
            "alice",
            lambda t0: TracePacketSource(service_trace, clock, start_at_s=t0),
            service_trace.sample_rate_hz,
        )
        for call in (
            lambda: supervisor.tick("other"),
            lambda: supervisor.subject_done("other"),
            lambda: supervisor.estimates_for("other"),
            lambda: supervisor.crash_monitor("other"),
        ):
            with pytest.raises(ConfigurationError, match="unknown subject"):
                call()
        # A rejected name leaves the registered subject untouched.
        assert supervisor.estimates_for("alice") == []
        assert clock.now_s == 0.0

    def test_run_without_a_subject_rejected(self):
        supervisor = make_supervisor()
        with pytest.raises(ConfigurationError):
            supervisor.run()
        with pytest.raises(ConfigurationError):
            supervisor.tick("alice")
        with pytest.raises(ConfigurationError):
            supervisor.health_summary()


class TestWatchdogAndRestarts:
    def test_stall_is_detected_and_source_restarted(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        interval = 1.0 / service_trace.sample_rate_hz
        stall = SourceFault(kind="stall", at_s=12.0, duration_s=4.0)

        def factory(t0):
            faults = (stall,) if stall.end_s > t0 else ()
            return FlakySourceAdapter(
                TracePacketSource(service_trace, clock, start_at_s=t0),
                clock,
                faults=faults,
                nominal_interval_s=interval,
            )

        supervisor.add_subject("alice", factory, service_trace.sample_rate_hz)
        supervisor.run()
        kinds = supervisor.events.kinds()
        assert "stall-detected" in kinds
        assert "source-restart" in kinds
        assert kinds.index("stall-detected") < kinds.index("source-restart")

    def test_monitor_crash_restarts_from_checkpoint(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        # Corrupt one packet well after the first checkpoint (5 s, 100 Hz).
        supervisor.add_subject(
            "alice",
            lambda t0: _CorruptingSource(
                service_trace, clock, {1500}, start_at_s=t0
            ),
            service_trace.sample_rate_hz,
        )
        estimates = supervisor.run()
        kinds = supervisor.events.kinds()
        assert "monitor-crash" in kinds
        restart = supervisor.events.select(kind="monitor-restart")
        assert len(restart) == 1
        assert restart[0].detail["restored"] is True
        health = supervisor.health_summary()
        assert health["monitor_restarts"] == 1
        assert health["health"] == "healthy"
        # The run still produces fresh estimates after the restart.
        assert any(
            e.ok and e.fresh and e.time_s > restart[0].time_s
            for e in estimates
        )

    def test_repeated_monitor_crashes_fail_the_subject(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        # A recurring corrupt packet: each one crashes the (restarted)
        # monitor again until the restart budget runs out.
        recurring = set(range(1200, service_trace.n_packets, 400))
        supervisor.add_subject(
            "alice",
            lambda t0: _CorruptingSource(
                service_trace, clock, recurring, start_at_s=t0
            ),
            service_trace.sample_rate_hz,
        )
        supervisor.run()
        kinds = supervisor.events.kinds()
        assert "subject-failed" in kinds
        health = supervisor.health_summary()
        assert health["health"] == "failed"


class TestFallbackLadder:
    def test_sustained_gaps_escalate_then_recover(self, service_trace):
        # Drop a mid-trace span so several consecutive windows are gated
        # "data-gap", then let clean packets resume.
        from repro.io_.trace import CSITrace

        t = service_trace.timestamps_s
        keep = ~((t >= 12.0) & (t < 16.0))
        gappy = CSITrace(
            csi=service_trace.csi[keep],
            timestamps_s=t[keep],
            sample_rate_hz=service_trace.sample_rate_hz,
            subcarrier_indices=service_trace.subcarrier_indices,
            meta={},
            strict=False,
        )
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        supervisor.add_subject(
            "alice",
            lambda t0: TracePacketSource(gappy, clock, start_at_s=t0),
            gappy.sample_rate_hz,
        )
        estimates = supervisor.run()
        kinds = supervisor.events.kinds()
        assert "fallback-escalated" in kinds
        assert "fallback-recovered" in kinds
        assert kinds.index("fallback-escalated") < kinds.index(
            "fallback-recovered"
        )
        escalated = supervisor.events.select(kind="fallback-escalated")
        assert escalated[0].detail["to_method"] == "csi-ratio"
        # While degraded, health reflected it; the run ends recovered.
        health_values = [
            e.detail["health"]
            for e in supervisor.events.select(kind="health-changed")
        ]
        assert "degraded" in health_values
        health = supervisor.health_summary()
        assert health["health"] == "healthy"
        assert any(e.fallback_level > 0 for e in estimates)


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self, service_trace):
        def run():
            clock = SimulatedClock()
            supervisor = make_supervisor(clock)
            interval = 1.0 / service_trace.sample_rate_hz
            fault = SourceFault(
                kind="transient-errors",
                at_s=12.0,
                duration_s=0.5,
                probability=0.5,
            )

            def factory(t0):
                return FlakySourceAdapter(
                    TracePacketSource(service_trace, clock, start_at_s=t0),
                    clock,
                    faults=(fault,),
                    seed=9,
                    nominal_interval_s=interval,
                )

            supervisor.add_subject(
                "alice", factory, service_trace.sample_rate_hz
            )
            rates = [
                (e.time_s, None if math.isnan(e.rate_bpm) else e.rate_bpm,
                 e.method)
                for e in supervisor.run()
            ]
            return [(e.time_s, e.kind) for e in supervisor.events], rates

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
