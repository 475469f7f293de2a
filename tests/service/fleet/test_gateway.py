"""Fleet gateway: scheduling, isolation, backpressure, shard crashes."""

import pytest

from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError, FleetAdmissionError
from repro.service.clock import SimulatedClock
from repro.service.fleet import FleetConfig, FleetGateway, SessionStatus
from repro.service.chaos import _estimate_stream_bytes
from repro.service.sources import TracePacketSource
from repro.service.supervisor import SupervisorConfig
from tests.service.test_supervisor import _CorruptingSource

_STREAMING = StreamingConfig(window_s=8.0, hop_s=4.0, holdover_s=20.0)


def _gateway(trace, *, config=None, seed=0):
    gateway = FleetGateway(
        clock=SimulatedClock(float(trace.timestamps_s[0])),
        config=config if config is not None else FleetConfig(),
        supervisor_config=SupervisorConfig(checkpoint_interval_s=5.0),
        streaming_config=_STREAMING,
        seed=seed,
    )
    return gateway


def _admit(gateway, trace, session_id, *, priority=0):
    return gateway.admit(
        session_id,
        lambda clock: TracePacketSource(trace, clock),
        trace.sample_rate_hz,
        priority=priority,
    )


class TestAdmission:
    def test_shards_fill_least_loaded_first(self, fleet_trace):
        gateway = _gateway(fleet_trace, config=FleetConfig(n_shards=2))
        shards = [
            _admit(gateway, fleet_trace, f"s{i}") for i in range(4)
        ]
        assert shards == [0, 1, 0, 1]
        assert gateway.sessions_on_shard(0) == ("s0", "s2")

    def test_refusal_is_typed_and_recorded(self, fleet_trace):
        gateway = _gateway(
            fleet_trace, config=FleetConfig(max_sessions=1)
        )
        _admit(gateway, fleet_trace, "s0")
        with pytest.raises(FleetAdmissionError) as excinfo:
            _admit(gateway, fleet_trace, "s1")
        assert excinfo.value.reason == "fleet-full"
        assert "session-rejected" in gateway.events.kinds()

    def test_run_without_sessions_raises(self, fleet_trace):
        with pytest.raises(ConfigurationError):
            _gateway(fleet_trace).run()


class TestScheduling:
    def test_fleet_run_matches_solo_run_byte_for_byte(self, fleet_trace):
        fleet = _gateway(fleet_trace)
        for i in range(3):
            _admit(fleet, fleet_trace, f"s{i}")
        fleet.run(max_duration_s=60.0)

        solo = _gateway(fleet_trace)
        _admit(solo, fleet_trace, "alone")
        solo.run(max_duration_s=60.0)

        reference = _estimate_stream_bytes(solo.estimates("alone"))
        for i in range(3):
            assert fleet.status(f"s{i}") is SessionStatus.FINISHED
            assert (
                _estimate_stream_bytes(fleet.estimates(f"s{i}"))
                == reference
            )

    def test_same_seed_runs_are_byte_identical(self, fleet_trace):
        logs = []
        for _ in range(2):
            gateway = _gateway(fleet_trace, seed=3)
            for i in range(3):
                _admit(gateway, fleet_trace, f"s{i}")
            gateway.run(max_duration_s=60.0)
            logs.append(gateway.events.to_jsonl())
        assert logs[0] == logs[1]

    def test_fresh_emission_times_are_monotone_fleet_times(
        self, fleet_trace
    ):
        gateway = _gateway(fleet_trace)
        _admit(gateway, fleet_trace, "s0")
        gateway.run(max_duration_s=60.0)
        times = gateway.fresh_emission_times("s0")
        assert times == tuple(sorted(times))
        assert len(times) <= len(gateway.estimates("s0"))

    def test_failed_session_leaves_neighbour_intact(self, fleet_trace):
        # Every 100th packet after the first checkpoint carries a
        # truncated CSI row, so each one crashes the session's restarted
        # monitor until its restart budget runs out.
        corrupt = set(range(300, fleet_trace.n_packets, 100))
        fleet = _gateway(fleet_trace)
        fleet.admit(
            "sick",
            lambda clock: _CorruptingSource(fleet_trace, clock, corrupt),
            fleet_trace.sample_rate_hz,
        )
        _admit(fleet, fleet_trace, "well")
        fleet.run(max_duration_s=60.0)

        solo = _gateway(fleet_trace)
        _admit(solo, fleet_trace, "alone")
        solo.run(max_duration_s=60.0)

        failed = [e.subject for e in fleet.events if e.kind == "subject-failed"]
        assert failed == ["sick"]
        assert fleet.fleet_summary()["by_health"]["failed"] == 1
        assert fleet.status("sick") is SessionStatus.FINISHED
        assert fleet.status("well") is SessionStatus.FINISHED
        assert fleet.estimates("well")
        assert _estimate_stream_bytes(
            fleet.estimates("well")
        ) == _estimate_stream_bytes(solo.estimates("alone"))

    def test_summary_counts_finished_sessions(self, fleet_trace):
        gateway = _gateway(fleet_trace)
        for i in range(2):
            _admit(gateway, fleet_trace, f"s{i}")
        gateway.run(max_duration_s=60.0)
        summary = gateway.fleet_summary()
        assert summary["by_status"]["finished"] == 2
        assert summary["n_shed"] == 0


class TestBackpressure:
    def test_slow_consumer_drives_the_pressure_ladder(self, fleet_trace):
        config = FleetConfig(
            queue_capacity_packets=32,
            high_watermark_packets=16,
            low_watermark_packets=4,
            ingest_budget_packets=32,
            drain_budget_packets=32,
            # Shed budget 0: the ladder may throttle and degrade but
            # never shed, so the session must ride the fault out.
            max_shed_sessions=0,
        )
        gateway = _gateway(fleet_trace, config=config)
        _admit(gateway, fleet_trace, "slow")
        _admit(gateway, fleet_trace, "healthy")
        gateway.set_slow_consumer(
            ("slow",), until_s=gateway.clock.now_s + 8.0, drain_factor=0.1
        )
        gateway.run(max_duration_s=60.0)

        throttled = [
            e.subject
            for e in gateway.events
            if e.kind == "session-throttled"
        ]
        assert "slow" in throttled
        assert "healthy" not in throttled
        # Once the fault window closes the session drains out and
        # finishes; the ladder must have stepped back down on the way.
        assert gateway.status("slow") is SessionStatus.FINISHED
        assert "session-pressure-recovered" in gateway.events.kinds()

    def test_fault_hooks_validate_arguments(self, fleet_trace):
        gateway = _gateway(fleet_trace)
        _admit(gateway, fleet_trace, "s0")
        with pytest.raises(ConfigurationError):
            gateway.set_ingest_burst(("s0",), until_s=1.0, ingest_factor=0.5)
        with pytest.raises(ConfigurationError):
            gateway.set_slow_consumer(("s0",), until_s=1.0, drain_factor=0.0)
        with pytest.raises(ConfigurationError):
            gateway.set_source_loss(("ghost",), until_s=1.0)


class TestShardCrash:
    def test_crashed_monitors_restart_and_finish(self, fleet_trace):
        gateway = _gateway(fleet_trace, config=FleetConfig(n_shards=2))
        for i in range(4):
            _admit(gateway, fleet_trace, f"s{i}")
        # Run half the capture, then kill shard 0 (sessions s0, s2).
        for _ in range(20):
            gateway.run_round()
        gateway.crash_shard(0)
        gateway.run(max_duration_s=60.0)

        crashed = {
            e.subject
            for e in gateway.events
            if e.kind == "monitor-crash"
        }
        assert crashed == {"s0", "s2"}
        assert "monitor-restart" in gateway.events.kinds()
        for i in range(4):
            assert gateway.status(f"s{i}") is SessionStatus.FINISHED

    def test_crash_validates_shard_index(self, fleet_trace):
        gateway = _gateway(fleet_trace, config=FleetConfig(n_shards=2))
        _admit(gateway, fleet_trace, "s0")
        with pytest.raises(ConfigurationError):
            gateway.crash_shard(5)
