"""Chaos harness: scenario schema, fault filtering, and report invariants."""

import json

import pytest

from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError, SourceCrashedError
from repro.service import (
    SHIPPED_SCENARIOS,
    ChaosScenario,
    SimulatedClock,
    TimedFault,
    flaky_source_factory,
    load_scenario,
    run_chaos,
)
from repro.service.sources import SourceFault


class TestTimedFault:
    def test_validates_kind(self):
        with pytest.raises(ConfigurationError):
            TimedFault(kind="asteroid", at_s=1.0)

    def test_degrade_needs_window_and_sane_loss(self):
        with pytest.raises(ConfigurationError):
            TimedFault(kind="degrade", at_s=1.0)
        with pytest.raises(ConfigurationError):
            TimedFault(kind="degrade", at_s=1.0, duration_s=2.0,
                       loss_fraction=1.5)

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "stall", "at_s": 30.0},
            {"kind": "transient-errors", "at_s": 30.0},
            {"kind": "hang", "at_s": 30.0},
            {"kind": "transient-errors", "at_s": 30.0, "duration_s": 2.0,
             "probability": 0.0},
            {"kind": "crash", "at_s": -1.0},
            {"kind": "monitor-crash", "at_s": -1.0},
            {"kind": "degrade", "at_s": -1.0, "duration_s": 2.0},
        ],
        ids=[
            "stall-without-duration",
            "errors-without-duration",
            "hang-without-hang-s",
            "zero-probability",
            "negative-crash",
            "negative-monitor-crash",
            "negative-degrade",
        ],
    )
    def test_malformed_fault_rejected_at_load(self, entry, tmp_path):
        with pytest.raises(ConfigurationError):
            TimedFault.from_dict(entry)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "bad", "faults": [entry]}))
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))

    def test_source_fault_mapping(self):
        crash = TimedFault(kind="crash", at_s=3.0)
        assert crash.to_source_fault() == SourceFault(kind="crash", at_s=3.0)
        degrade = TimedFault(kind="degrade", at_s=3.0, duration_s=2.0)
        assert degrade.to_source_fault() is None

    def test_dict_round_trip(self):
        fault = TimedFault(kind="stall", at_s=5.0, duration_s=2.0)
        assert TimedFault.from_dict(fault.to_dict()) == fault

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedFault.from_dict({"kind": "crash", "at_s": 1.0, "wat": 2})


class TestChaosScenario:
    def test_json_round_trip(self, tmp_path):
        scenario = SHIPPED_SCENARIOS["degradation-burst"]
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        loaded = load_scenario(str(path))
        assert loaded == scenario

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario.from_json("not json {")
        with pytest.raises(ConfigurationError):
            ChaosScenario.from_json(json.dumps(["a", "list"]))
        with pytest.raises(ConfigurationError):
            ChaosScenario.from_json(json.dumps({"faults": []}))

    def test_last_fault_end(self):
        scenario = ChaosScenario(
            name="x",
            faults=(
                TimedFault(kind="crash", at_s=10.0),
                TimedFault(kind="stall", at_s=20.0, duration_s=5.0),
            ),
        )
        assert scenario.last_fault_end_s == pytest.approx(25.0)

    def test_shipped_library_covers_the_fault_domains(self):
        assert set(SHIPPED_SCENARIOS) == {
            "source-crash",
            "sustained-stall",
            "transient-errors",
            "checkpoint-restore-loss",
            "degradation-burst",
            "learned-degradation-burst",
        }
        for name, scenario in SHIPPED_SCENARIOS.items():
            assert scenario.name == name
            assert scenario.faults
            assert scenario.description


class TestFlakySourceFactory:
    def test_rebuild_filters_fired_crash(self, service_trace):
        clock = SimulatedClock()
        factory = flaky_source_factory(
            service_trace,
            clock,
            (SourceFault(kind="crash", at_s=2.0),),
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
            (SourceFault(kind="stall", at_s=2.0, duration_s=4.0),),
            nominal_interval_s=1.0 / service_trace.sample_rate_hz,
        )
        # Restarting mid-stall does not un-stall the hardware.
        rebuilt = factory(3.0)
        assert rebuilt.next_packet() is None


class TestRunChaos:
    def test_scenario_must_end_before_the_capture(self):
        scenario = ChaosScenario(
            name="too-late", faults=(TimedFault(kind="crash", at_s=100.0),)
        )
        with pytest.raises(ConfigurationError):
            run_chaos(scenario, duration_s=60.0)

    def test_crash_report_recovers_on_a_small_run(self):
        scenario = ChaosScenario(
            name="small-crash", faults=(TimedFault(kind="crash", at_s=15.0),)
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
            ChaosScenario(name="calm", faults=()),
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
