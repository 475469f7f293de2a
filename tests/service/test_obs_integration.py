"""End-to-end observability: instrumented chaos runs are deterministic.

The acceptance property of the obs subsystem: two identical ``run_chaos``
invocations under :class:`~repro.service.clock.SimulatedClock` with a
fixed seed fill their registries identically, down to the canonical-JSON
bytes.  Alongside determinism, the suite pins the metric families each
layer is contracted to emit and that instrumentation never changes what
the service computes.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, canonical_json, validate_metric_name
from repro.service.chaos import SCENARIOS, Scenario, run_chaos


@pytest.fixture(scope="module")
def crash_run():
    """One instrumented source-crash drill (shared: chaos runs are slow)."""
    registry = MetricsRegistry()
    report = run_chaos(
        SCENARIOS["source-crash"],
        duration_s=40.0,
        registry=registry,
    )
    return registry, report


class TestDeterminism:
    def test_snapshot_is_byte_identical_across_runs(self, crash_run):
        registry, _ = crash_run
        rerun = MetricsRegistry()
        run_chaos(
            SCENARIOS["source-crash"],
            duration_s=40.0,
            registry=rerun,
        )
        assert canonical_json(rerun.snapshot()) == canonical_json(
            registry.snapshot()
        )

    def test_report_unchanged_by_instrumentation(self, crash_run):
        _, instrumented = crash_run
        plain = run_chaos(
            SCENARIOS["source-crash"], duration_s=40.0
        )
        # Serialized comparison: NaN medians (no post-recovery estimates
        # in a short drill) are unequal to themselves as dict values.
        assert json.dumps(plain.to_jsonable(), sort_keys=True) == json.dumps(
            instrumented.to_jsonable(), sort_keys=True
        )


class TestMetricContracts:
    def test_every_exported_name_passes_unit_discipline(self, crash_run):
        registry, _ = crash_run
        for sample in registry.snapshot()["metrics"]:
            validate_metric_name(sample["name"])

    def test_each_layer_reports(self, crash_run):
        registry, _ = crash_run
        names = {s["name"] for s in registry.snapshot()["metrics"]}
        # One family per instrumented layer proves the plumbing reaches it.
        assert "pipeline_stage_duration_s" in names       # core pipeline
        assert "dsp_reclock_gap_fraction" in names        # dsp.reclock
        assert "monitor_fresh_windows_total" in names     # streaming monitor
        assert "source_reads_ok_total" in names           # resilient source
        assert "supervisor_checkpoints_total" in names    # supervisor

    def test_crash_scenario_counts_the_crash(self, crash_run):
        registry, _ = crash_run
        crashes = registry.counter(
            "source_crashes_total", labels={"subject": "subject"}
        )
        rebuilds = registry.counter(
            "source_rebuilds_total", labels={"subject": "subject"}
        )
        assert crashes.value >= 1.0
        assert rebuilds.value >= 1.0

    def test_pipeline_stage_histograms_cover_all_stages(self, crash_run):
        registry, _ = crash_run
        stages = {
            dict(s.labels).get("stage")
            for s in registry
            if s.name == "pipeline_stage_duration_s"
        }
        assert {
            "phase_difference",
            "environment_detection",
            "calibration",
            "subcarrier_selection",
            "dwt",
            "breathing_estimation",
        } <= stages

    def test_reference_run_not_in_snapshot(self, crash_run):
        """Fresh-window count reflects one run, not the faulted run plus
        its fault-free reference (which must stay uninstrumented)."""
        registry, report = crash_run
        fresh = registry.counter("monitor_fresh_windows_total").value
        n_fresh_estimates = sum(1 for e in report.estimates if e.fresh and e.ok)
        assert fresh == pytest.approx(n_fresh_estimates)


class TestBreakerMetrics:
    def test_transient_errors_drive_breaker_transitions(self):
        registry = MetricsRegistry()
        run_chaos(
            SCENARIOS["transient-errors"],
            duration_s=40.0,
            streaming_config=None,
            registry=registry,
        )
        names = {s["name"] for s in registry.snapshot()["metrics"]}
        assert "breaker_transitions_total" in names
        opened = registry.counter(
            "breaker_transitions_total",
            labels={"from_state": "closed", "to_state": "open"},
        )
        closed = registry.counter(
            "breaker_transitions_total",
            labels={"from_state": "half-open", "to_state": "closed"},
        )
        assert opened.value >= 1.0
        assert closed.value >= 1.0


class TestFaultFreeRun:
    def test_no_failure_counters_appear(self):
        registry = MetricsRegistry()
        run_chaos(
            Scenario(name="clean", faults=()),
            duration_s=40.0,
            registry=registry,
        )
        names = {s["name"] for s in registry.snapshot()["metrics"]}
        assert "source_crashes_total" not in names
        assert "breaker_transitions_total" not in names
        assert "supervisor_monitor_restarts_total" not in names
        assert "monitor_fresh_windows_total" in names
