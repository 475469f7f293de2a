"""Tests for corpus loading and replay backtesting."""

from __future__ import annotations

import json
import math

import pytest

from repro import capture_trace, laboratory_scenario
from repro.errors import TraceStoreError
from repro.service.clock import SimulatedClock
from repro.service.sources import TracePacketSource
from repro.store import DirectoryBackend, RecordingTap
from repro.store.backtest import (
    MANIFEST_NAME,
    BacktestReport,
    ScenarioBaseline,
    load_manifest,
    run_backtest,
)
RATE_HZ = 30.0
DURATION_S = 20.0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, lab_person):
    """A one-scenario corpus recorded from a short simulated capture."""
    root = tmp_path_factory.mktemp("corpus")
    scenario = laboratory_scenario([lab_person], clutter_seed=3)
    trace = capture_trace(
        scenario, duration_s=DURATION_S, sample_rate_hz=RATE_HZ, seed=3
    )
    tap = RecordingTap(
        TracePacketSource(trace, SimulatedClock()),
        DirectoryBackend(str(root / "lab")),
        "trace",
        sample_rate_hz=RATE_HZ,
        session_id="corpus-test",
    )
    while not tap.exhausted:
        tap.next_packet()
    tap.close()
    truth_bpm = float(trace.meta["breathing_rates_bpm"][0])
    manifest = {
        "corpus_format_version": 1,
        "stem": "trace",
        "scenarios": {
            "lab": {
                "expected_breathing_bpm": truth_bpm,
                "tolerance_bpm": 6.0,
                "min_estimates": 2,
            }
        },
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return str(root)


class TestManifest:
    def test_load_round_trip(self, corpus_dir):
        stem, baselines = load_manifest(corpus_dir)
        assert stem == "trace"
        assert [b.name for b in baselines] == ["lab"]
        assert baselines[0].min_estimates == 2

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="cannot read corpus manifest"):
            load_manifest(str(tmp_path))

    def test_bad_json_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(TraceStoreError, match="not valid JSON"):
            load_manifest(str(tmp_path))

    def test_unknown_version_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"corpus_format_version": 99, "scenarios": {"a": {}}})
        )
        with pytest.raises(TraceStoreError, match="unsupported corpus manifest"):
            load_manifest(str(tmp_path))

    def test_no_scenarios_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"corpus_format_version": 1, "scenarios": {}})
        )
        with pytest.raises(TraceStoreError, match="declares no scenarios"):
            load_manifest(str(tmp_path))

    def test_unknown_scenario_keys_rejected(self):
        with pytest.raises(TraceStoreError, match="unknown manifest keys"):
            ScenarioBaseline.from_dict(
                "x", {"expected_breathing_bpm": 15.0, "typo_key": 1}
            )

    def test_baseline_validation(self):
        with pytest.raises(TraceStoreError, match="must be positive"):
            ScenarioBaseline(name="x", expected_breathing_bpm=-1.0)
        with pytest.raises(TraceStoreError, match="tolerance_bpm"):
            ScenarioBaseline(
                name="x", expected_breathing_bpm=15.0, tolerance_bpm=0.0
            )


class TestRunBacktest:
    def test_clean_corpus_passes(self, corpus_dir):
        report = run_backtest(corpus_dir, seed=0)
        assert report.passed, report.format_text()
        result = report.results[0]
        assert result.n_records == int(DURATION_S * RATE_HZ)
        assert result.salvage_clean
        assert result.n_estimates >= 2
        assert not math.isnan(result.median_bpm)
        # Replay must beat real time by a wide margin.
        assert report.overall_speedup_ratio > 20.0

    def test_injected_regression_fails_the_gate(self, corpus_dir):
        report = run_backtest(corpus_dir, seed=0, inject_bias_bpm=25.0)
        assert not report.passed
        assert "rate-regression" in report.results[0].failures

    def test_unknown_scenario_selection_raises(self, corpus_dir):
        with pytest.raises(TraceStoreError, match="unknown scenario"):
            run_backtest(corpus_dir, scenarios=["ghost"])

    def test_missing_store_directory_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps(
                {
                    "corpus_format_version": 1,
                    "stem": "trace",
                    "scenarios": {"ghost": {"expected_breathing_bpm": 15.0}},
                }
            )
        )
        with pytest.raises(TraceStoreError, match="does not exist"):
            run_backtest(str(tmp_path))

    def test_report_is_jsonable(self, corpus_dir):
        report = run_backtest(corpus_dir, seed=0)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["passed"] is True
        assert payload["results"][0]["name"] == "lab"
        assert isinstance(report, BacktestReport)
        assert "overall" in report.format_text()
