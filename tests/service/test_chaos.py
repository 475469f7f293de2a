"""Chaos harness: scenario schema, fault filtering, and report invariants."""

import json

import pytest

import repro.service.chaos as chaos
from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError, SourceCrashedError
from repro.service import (
    SCENARIOS,
    Fault,
    FlakySourceAdapter,
    Scenario,
    SimulatedClock,
    TracePacketSource,
    flaky_source_factory,
    load_scenario,
    run_chaos,
    run_fleet_chaos,
)


def _faults(*entries):
    return {"faults": list(entries)}


class TestTimedFault:
    def test_validates_kind(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="asteroid", at_s=1.0)

    def test_degrade_needs_window_and_sane_loss(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="degrade", at_s=1.0)
        with pytest.raises(ConfigurationError):
            Fault(kind="degrade", at_s=1.0, duration_s=2.0,
                       loss_fraction=1.5)

    @pytest.mark.parametrize(
        "document",
        [
            _faults({"kind": "stall", "at_s": 30.0}),
            _faults({"kind": "transient-errors", "at_s": 30.0}),
            _faults({"kind": "hang", "at_s": 30.0}),
            _faults({"kind": "transient-errors", "at_s": 30.0,
                     "duration_s": 2.0, "probability": 0.0}),
            _faults({"kind": "crash", "at_s": -1.0}),
            _faults({"kind": "monitor-crash", "at_s": -1.0}),
            _faults({"kind": "degrade", "at_s": -1.0, "duration_s": 2.0}),
            _faults({"kind": "crash", "at_s": "30"}),
            _faults(5),
            {"faults": [], "use_learned_rung": "false"},
            {"faults": [], "use_learned_rungs": True},
            _faults({"kind": "crash", "at_s": float("nan")}),
            _faults({"kind": "stall", "at_s": 1.0,
                     "duration_s": float("inf")}),
            _faults({"kind": "crash", "at_s": True}),
            _faults({"kind": "correlated-source-loss", "at_s": 1.0,
                     "duration_s": 2.0, "n_sessions": 2.5}),
            _faults({"kind": "shard-crash", "at_s": 1.0, "shard": 1.0}),
            _faults({"kind": "recorder-crash", "at_s": 1.0,
                     "n_sessions": 1, "torn_tail_bytes": 9.5}),
        ],
        ids=[
            "stall-without-duration",
            "errors-without-duration",
            "hang-without-hang-s",
            "zero-probability",
            "negative-crash",
            "negative-monitor-crash",
            "negative-degrade",
            "string-at-s",
            "non-object-fault",
            "string-use-learned-rung",
            "misspelt-scenario-key",
            "nan-at-s",
            "infinite-duration",
            "bool-at-s",
            "fractional-n-sessions",
            "float-shard",
            "fractional-torn-tail-bytes",
        ],
    )
    def test_malformed_fault_rejected_at_load(self, document, tmp_path):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"name": "bad", **document})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "bad", **document}))
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))

    def test_source_fault_mapping(self, short_lab_trace):
        # Only the source kinds reach the source: degrade and monitor-crash
        # entries in the same schedule leave the adapter transparent.
        clock = SimulatedClock()
        source = FlakySourceAdapter(
            TracePacketSource(short_lab_trace, clock),
            clock,
            faults=(
                Fault(kind="degrade", at_s=0.0, duration_s=5.0),
                Fault(kind="monitor-crash", at_s=1.0),
            ),
        )
        n = sum(1 for _ in iter(source.next_packet, None))
        assert n == short_lab_trace.n_packets

    def test_dict_round_trip(self):
        fault = Fault(kind="stall", at_s=5.0, duration_s=2.0)
        assert Fault.from_dict(fault.to_dict()) == fault

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault.from_dict({"kind": "crash", "at_s": 1.0, "wat": 2})


class TestChaosScenario:
    def test_json_round_trip(self, tmp_path):
        scenario = SCENARIOS["degradation-burst"]
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        loaded = load_scenario(str(path))
        assert loaded == scenario

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_json("not json {")
        with pytest.raises(ConfigurationError):
            Scenario.from_json(json.dumps(["a", "list"]))
        with pytest.raises(ConfigurationError):
            Scenario.from_json(json.dumps({"faults": []}))

    def test_last_fault_end(self):
        scenario = Scenario(
            name="x",
            faults=(
                Fault(kind="crash", at_s=10.0),
                Fault(kind="stall", at_s=20.0, duration_s=5.0),
            ),
        )
        assert scenario.last_fault_end_s == pytest.approx(25.0)

    def test_shipped_library_covers_the_fault_domains(self):
        assert set(SCENARIOS) == {
            "source-crash",
            "sustained-stall",
            "transient-errors",
            "checkpoint-restore-loss",
            "degradation-burst",
            "learned-degradation-burst",
            "shard-crash",
            "ingest-burst",
            "slow-consumer",
            "correlated-source-loss",
            "record-crash-resume",
            "overload-shed",
        }
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.faults
            assert scenario.description


class TestScenarioLibrary:
    def test_scenario_names_are_unique(self):
        names = [scenario.name for scenario in SCENARIOS.values()]
        assert len(set(names)) == len(names) == 12
        assert sum(s.is_fleet for s in SCENARIOS.values()) == 6

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_shipped_scenario_round_trips_through_json(self, name):
        scenario = SCENARIOS[name]
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_single_subject_schema_file_still_loads(self, tmp_path):
        # The single-subject schema wrote six fault fields and the flag.
        path = tmp_path / "solo.json"
        path.write_text(json.dumps({
            "name": "checkpoint-restore-loss",
            "description": SCENARIOS["checkpoint-restore-loss"].description,
            "faults": [
                {"kind": "degrade", "at_s": 28.0, "duration_s": 16.0,
                 "probability": 1.0, "hang_s": 0.0, "loss_fraction": 0.5},
                {"kind": "monitor-crash", "at_s": 38.0, "duration_s": 0.0,
                 "probability": 1.0, "hang_s": 0.0, "loss_fraction": 0.6},
            ],
            "use_learned_rung": False,
        }))
        assert load_scenario(str(path)) == SCENARIOS["checkpoint-restore-loss"]

    def test_fleet_schema_file_still_loads(self, tmp_path):
        # The fleet schema wrote eight fault fields and had no flag.
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "name": "record-crash-resume",
            "description": SCENARIOS["record-crash-resume"].description,
            "faults": [
                {"kind": "recorder-crash", "at_s": 5.0, "duration_s": 0.0,
                 "shard": 0, "n_sessions": 3, "ingest_factor": 4.0,
                 "drain_factor": 0.25, "torn_tail_bytes": 96},
                {"kind": "recorder-crash", "at_s": 9.0, "duration_s": 0.0,
                 "shard": 0, "n_sessions": 2, "ingest_factor": 4.0,
                 "drain_factor": 0.25, "torn_tail_bytes": 17},
            ],
        }))
        assert load_scenario(str(path)) == SCENARIOS["record-crash-resume"]

    @pytest.mark.parametrize(
        ("driver", "name"),
        [
            (run_chaos, "shard-crash"),
            (run_chaos, "record-crash-resume"),
            (run_fleet_chaos, "source-crash"),
            (run_fleet_chaos, "checkpoint-restore-loss"),
            (run_fleet_chaos, "learned-degradation-burst"),
        ],
    )
    def test_driver_rejects_the_other_drivers_kinds_before_simulating(
        self, driver, name, monkeypatch
    ):
        def no_capture(*args, **kwargs):
            raise AssertionError("simulated a capture")

        monkeypatch.setattr(chaos, "_capture", no_capture)
        with pytest.raises(ConfigurationError, match="cannot run"):
            driver(SCENARIOS[name])

    def test_fleet_driver_has_no_learned_rung(self):
        scenario = Scenario(name="learned-fleet", faults=(),
                            use_learned_rung=True)
        with pytest.raises(ConfigurationError, match="learned rung"):
            run_fleet_chaos(scenario)


class TestFlakySourceFactory:
    def test_rebuild_filters_fired_crash(self, service_trace):
        clock = SimulatedClock()
        factory = flaky_source_factory(
            service_trace,
            clock,
            (Fault(kind="crash", at_s=2.0),),
            nominal_interval_s=1.0 / service_trace.sample_rate_hz,
        )
        source = factory(0.0)
        with pytest.raises(SourceCrashedError):
            while True:
                source.next_packet()
        # Rebuilt at the crash time: the fault must not fire again.
        rebuilt = factory(clock.now_s)
        assert rebuilt.next_packet() is not None

    def test_rebuild_keeps_ongoing_stall(self, service_trace):
        clock = SimulatedClock()
        clock.advance_to(3.0)
        factory = flaky_source_factory(
            service_trace,
            clock,
            (Fault(kind="stall", at_s=2.0, duration_s=4.0),),
            nominal_interval_s=1.0 / service_trace.sample_rate_hz,
        )
        # Restarting mid-stall does not un-stall the hardware.
        rebuilt = factory(3.0)
        assert rebuilt.next_packet() is None


class TestRunChaos:
    def test_scenario_must_end_before_the_capture(self):
        scenario = Scenario(
            name="too-late", faults=(Fault(kind="crash", at_s=100.0),)
        )
        with pytest.raises(ConfigurationError):
            run_chaos(scenario, duration_s=60.0)

    def test_crash_report_recovers_on_a_small_run(self):
        scenario = Scenario(
            name="small-crash", faults=(Fault(kind="crash", at_s=15.0),)
        )
        report = run_chaos(
            scenario,
            duration_s=40.0,
            sample_rate_hz=100.0,
            seed=0,
            streaming_config=StreamingConfig(
                window_s=10.0, hop_s=2.5, holdover_s=20.0
            ),
        )
        assert report.violations() == []
        assert report.n_post_recovery > 0
        kinds = report.events.kinds()
        assert kinds.index("source-crash") < kinds.index("source-restart")
        jsonable = report.to_jsonable()
        json.dumps(jsonable)  # must be serializable as-is
        assert jsonable["violations"] == []
        assert "pkts" in report.trace_quality

    def test_fault_free_scenario_has_nothing_to_violate(self):
        report = run_chaos(
            Scenario(name="calm", faults=()),
            duration_s=40.0,
            sample_rate_hz=100.0,
            seed=0,
            streaming_config=StreamingConfig(window_s=10.0, hop_s=2.5),
        )
        assert report.violations() == []
        # The faulted pass IS the fault-free pass here; only the window
        # selection differs (post-recovery counts estimates past the
        # first analysis window), so the medians agree to well within
        # the recovery budget.
        assert report.post_recovery_median_error_bpm == pytest.approx(
            report.fault_free_median_error_bpm, abs=0.5
        )
