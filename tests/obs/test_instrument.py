"""Instrumentation facade: enabled recording vs the null object."""

import pytest

from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    MetricsRegistry,
)
from repro.service.clock import SimulatedClock


class TestInstrumentation:
    def test_stage_times_into_component_histogram(self):
        clock = SimulatedClock()
        obs = Instrumentation(clock=clock)
        with obs.stage("dwt"):
            clock.advance(0.125)
        hist = obs.registry.histogram(
            "pipeline_stage_duration_s", labels={"stage": "dwt"}
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.125)

    def test_stage_component_prefix(self):
        clock = SimulatedClock()
        obs = Instrumentation(clock=clock)
        with obs.stage("reclock", component="dsp"):
            clock.advance(1.0)
        names = [series.name for series in obs.registry]
        assert names == ["dsp_stage_duration_s"]

    def test_count_gauge_observe_land_in_registry(self):
        obs = Instrumentation(clock=SimulatedClock())
        obs.count("reads_total", labels={"subject": "s1"})
        obs.count("reads_total", amount=2.0, labels={"subject": "s1"})
        obs.gauge_set("depth_packets", 42.0)
        obs.observe("latency_s", 0.3, bucket_bounds=(1.0,))
        reg = obs.registry
        assert reg.counter("reads_total", labels={"subject": "s1"}).value == 3.0
        assert reg.gauge("depth_packets").value == 42.0
        assert reg.histogram("latency_s", bucket_bounds=(1.0,)).count == 1

    def test_shares_registry_when_given_one(self):
        registry = MetricsRegistry()
        obs = Instrumentation(clock=SimulatedClock(), registry=registry)
        obs.count("x_total")
        assert registry.counter("x_total").value == 1.0


class TestNullInstrumentation:
    def test_records_nothing(self):
        with NULL_INSTRUMENTATION.stage("dwt"):
            pass
        NULL_INSTRUMENTATION.count("x_total")
        NULL_INSTRUMENTATION.gauge_set("y_level", 1.0)
        NULL_INSTRUMENTATION.observe("z_s", 1.0)
        assert len(NULL_INSTRUMENTATION.registry) == 0

    def test_disabled_stage_is_shared_null_context(self):
        a = NULL_INSTRUMENTATION.stage("a")
        b = NULL_INSTRUMENTATION.stage("b")
        assert a is b
