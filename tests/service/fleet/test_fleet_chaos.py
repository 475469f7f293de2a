"""Fleet chaos harness: fault schema, validation, and small end-to-end."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.service.chaos import (
    SCENARIOS,
    Fault,
    Scenario,
    run_fleet_chaos,
)


class TestFleetFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="meteor-strike", at_s=1.0)

    def test_session_faults_need_targets_and_window(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="ingest-burst", at_s=1.0, duration_s=2.0)
        with pytest.raises(ConfigurationError):
            Fault(kind="ingest-burst", at_s=1.0, n_sessions=2)

    def test_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            Fault(
                kind="ingest-burst",
                at_s=1.0,
                duration_s=2.0,
                n_sessions=1,
                ingest_factor=0.5,
            )
        with pytest.raises(ConfigurationError):
            Fault(
                kind="slow-consumer",
                at_s=1.0,
                duration_s=2.0,
                n_sessions=1,
                drain_factor=1.5,
            )

    def test_dict_round_trip(self):
        fault = Fault(
            kind="slow-consumer",
            at_s=4.0,
            duration_s=6.0,
            n_sessions=3,
            drain_factor=0.5,
        )
        assert Fault.from_dict(fault.to_dict()) == fault

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            Fault.from_dict(
                {"kind": "shard-crash", "at_s": 1.0, "blast_radius": 9}
            )

    def test_recorder_crash_is_instantaneous(self):
        # No duration required: the crash happens between two packets.
        fault = Fault(kind="recorder-crash", at_s=2.0, n_sessions=2)
        assert fault.duration_s == 0.0

    def test_recorder_crash_needs_targets(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="recorder-crash", at_s=2.0)

    def test_torn_tail_bytes_validated(self):
        with pytest.raises(ConfigurationError, match="torn_tail_bytes"):
            Fault(
                kind="recorder-crash", at_s=2.0, n_sessions=1, torn_tail_bytes=-1
            )

    def test_recorder_crash_dict_round_trip(self):
        fault = Fault(
            kind="recorder-crash", at_s=5.0, n_sessions=3, torn_tail_bytes=96
        )
        data = fault.to_dict()
        assert data["torn_tail_bytes"] == 96
        assert Fault.from_dict(data) == fault


class TestFleetScenario:
    def test_json_round_trip(self):
        scenario = SCENARIOS["overload-shed"]
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_json("not json")
        with pytest.raises(ConfigurationError):
            Scenario.from_json("[1, 2]")

    def test_schedule_metadata(self):
        scenario = SCENARIOS["overload-shed"]
        assert scenario.last_fault_end_s == 11.0
        assert scenario.max_targeted_sessions() == 6


class TestRunValidation:
    def test_scenario_needs_a_clean_tail(self):
        late = Scenario(
            name="too-late",
            faults=(Fault(kind="shard-crash", at_s=20.0),),
        )
        with pytest.raises(ConfigurationError, match="clean tail"):
            run_fleet_chaos(late, n_sessions=2, duration_s=24.0)

    def test_fleet_must_cover_targeted_sessions(self):
        wide = Scenario(
            name="too-wide",
            faults=(
                Fault(
                    kind="correlated-source-loss",
                    at_s=4.0,
                    duration_s=2.0,
                    n_sessions=50,
                ),
            ),
        )
        with pytest.raises(ConfigurationError, match="targets"):
            run_fleet_chaos(wide, n_sessions=2, duration_s=24.0)


class TestEndToEnd:
    def test_fault_free_fleet_holds_every_invariant(self):
        scenario = Scenario(name="fault-free", faults=())
        report = run_fleet_chaos(
            scenario,
            n_sessions=4,
            duration_s=20.0,
            seed=0,
            trace_pool_size=2,
            registry=MetricsRegistry(),
        )
        assert report.violations() == []
        assert report.faulted_ids == ()
        assert report.n_estimates_total > 0
        assert report.fleet_summary["by_status"]["finished"] == 4
        # The metrics snapshot is canonical JSON with fleet series.
        assert '"fleet_sessions_active_count"' in report.metrics_json

    def test_same_seed_reports_are_byte_identical(self):
        scenario = SCENARIOS["shard-crash"]
        reports = [
            run_fleet_chaos(
                scenario,
                n_sessions=6,
                duration_s=24.0,
                seed=11,
                trace_pool_size=2,
                registry=MetricsRegistry(),
            )
            for _ in range(2)
        ]
        assert reports[0].events_jsonl == reports[1].events_jsonl
        assert reports[0].metrics_json == reports[1].metrics_json
        assert reports[0].violations() == reports[1].violations() == []

    def test_report_is_json_safe(self):
        import json

        scenario = Scenario(name="fault-free", faults=())
        report = run_fleet_chaos(
            scenario,
            n_sessions=2,
            duration_s=20.0,
            trace_pool_size=1,
        )
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["violations"] == []
        assert payload["n_sessions"] == 2

    def test_recorder_crash_scenario_produces_salvageable_recordings(self):
        report = run_fleet_chaos(
            SCENARIOS["record-crash-resume"],
            n_sessions=4,
            duration_s=24.0,
            seed=0,
            trace_pool_size=2,
            registry=MetricsRegistry(),
        )
        assert report.violations() == []
        # Three sessions are recorded; two of them crash twice.
        assert len(report.recordings) == 3
        for session_id, digest in report.recordings.items():
            salvage = digest["salvage"]
            # Every crash rotates to a new segment on resume.
            assert len(digest["segments"]) >= 2
            assert salvage["n_records_recovered"] > 0
            assert any(
                issue["kind"] == "torn-tail" for issue in salvage["issues"]
            ), session_id
        # Recordings ride in the JSON report, so sanitize byte-compares them.
        payload = report.to_jsonable()
        assert set(payload["recordings"]) == set(report.recordings)

    def test_recorder_crash_is_in_the_event_log(self):
        report = run_fleet_chaos(
            SCENARIOS["record-crash-resume"],
            n_sessions=4,
            duration_s=24.0,
            seed=0,
            trace_pool_size=2,
        )
        crashes = [e for e in report.events if e.kind == "recorder-crash"]
        # One event per crashed session: three at 5 s, then two at 9 s.
        ids = report.faulted_ids
        assert [(e.subject, e.detail) for e in crashes] == [
            (sid, {"torn_tail_bytes": 96}) for sid in ids[:3]
        ] + [(sid, {"torn_tail_bytes": 17}) for sid in ids[:2]]
        assert [e.time_s >= 9.0 for e in crashes] == [False] * 3 + [True] * 2
        assert all(e.time_s >= 5.0 for e in crashes)
