"""The learned rung of the supervisor's fallback ladder.

Covers the wiring contract end to end: the 4-rung ladder is only in
effect when a learned estimator is injected, escalation lands on the
learned rung first, a rung that raises (contract violation, degraded
window) degrades to the held-over phase-difference value instead of
poisoning the stream, overload pins span the longer ladder, and the
shipped learned chaos scenario exercises the whole path deterministically.
"""

from __future__ import annotations

import pytest

from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError, ContractError, EstimationError
from repro.io_.trace import CSITrace
from repro.obs import canonical_json
from repro.service import (
    FALLBACK_METHODS,
    MonitorSupervisor,
    SimulatedClock,
    SupervisorConfig,
    TracePacketSource,
)
from repro.service.chaos import SHIPPED_SCENARIOS, run_chaos
from repro.service.supervisor import LEARNED_FALLBACK_METHODS

STREAMING = StreamingConfig(window_s=10.0, hop_s=2.5)


class StubLearned:
    """A scriptable stand-in satisfying the BreathingEstimator protocol."""

    method = "learned"

    def __init__(self, value: float = 15.0, error: Exception | None = None):
        self.value = value
        self.error = error
        self.calls = 0

    def estimate_breathing_bpm(self, trace) -> float:
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.value


def make_supervisor(clock, learned=None):
    return MonitorSupervisor(
        clock=clock,
        config=SupervisorConfig(checkpoint_interval_s=5.0),
        streaming_config=STREAMING,
        seed=0,
        learned_estimator=learned,
    )


def without(trace, drop):
    """The trace minus the packets where ``drop`` is True."""
    keep = ~drop
    return CSITrace(
        csi=trace.csi[keep],
        timestamps_s=trace.timestamps_s[keep],
        sample_rate_hz=trace.sample_rate_hz,
        subcarrier_indices=trace.subcarrier_indices,
        meta={},
        strict=False,
    )


def gappy(trace, start_s=12.0, stop_s=16.0):
    """Drop a mid-trace span so consecutive windows are gated data-gap."""
    t = trace.timestamps_s
    return without(trace, (t >= start_s) & (t < stop_s))


def periodic_gaps(trace, start_s=12.0, stop_s=24.0, every_s=2.0, drop_s=0.6):
    """Drop ``drop_s`` of every ``every_s`` between ``start_s`` and
    ``stop_s``: each window overlapping the span is gated data-gap, enough
    consecutive windows for two escalations at FALLBACK_AFTER_WINDOWS."""
    t = trace.timestamps_s
    span = (t >= start_s) & (t < stop_s)
    return without(trace, span & ((t - start_s) % every_s < drop_s))


def run_with(trace, clock, supervisor, name="alice"):
    supervisor.add_subject(
        name,
        lambda t0: TracePacketSource(trace, clock, start_at_s=t0),
        trace.sample_rate_hz,
    )
    return supervisor.run()


class TestLadderShape:
    def test_default_ladder_has_no_learned_rung(self):
        supervisor = make_supervisor(SimulatedClock())
        assert supervisor.fallback_methods == FALLBACK_METHODS
        assert "learned" not in supervisor.fallback_methods

    def test_injected_estimator_extends_the_ladder(self):
        supervisor = make_supervisor(SimulatedClock(), learned=StubLearned())
        assert supervisor.fallback_methods == LEARNED_FALLBACK_METHODS
        assert supervisor.fallback_methods[1] == "learned"
        # Primary and terminal rungs are unchanged.
        assert supervisor.fallback_methods[0] == FALLBACK_METHODS[0]
        assert supervisor.fallback_methods[-1] == FALLBACK_METHODS[-1]


class TestEscalationServesLearned:
    def test_first_escalation_lands_on_the_learned_rung(self, service_trace):
        clock = SimulatedClock()
        stub = StubLearned(value=15.0)
        supervisor = make_supervisor(clock, learned=stub)
        estimates = run_with(gappy(service_trace), clock, supervisor)

        escalated = supervisor.events.select(kind="fallback-escalated")
        assert escalated[0].detail["to_method"] == "learned"
        served = [e for e in estimates if e.method == "learned"]
        assert served, "learned rung never emitted"
        assert stub.calls > 0
        assert all(e.rate_bpm == pytest.approx(15.0) for e in served)
        # The run still ends recovered and healthy.
        assert supervisor.events.select(kind="fallback-recovered")
        health = supervisor.health_summary()
        assert health["health"] == "healthy"


class TestRungDegradation:
    @pytest.mark.parametrize(
        "error",
        [
            ContractError(
                "matrix_features", "matrix", "float64 2-D", "complex64 3-D"
            ),
            EstimationError("window quality too low"),
        ],
        ids=["contract-error", "low-window-quality"],
    )
    def test_raising_rung_degrades_to_phase_difference(
        self, service_trace, error
    ):
        clock = SimulatedClock()
        stub = StubLearned(error=error)
        supervisor = make_supervisor(clock, learned=stub)
        estimates = run_with(periodic_gaps(service_trace), clock, supervisor)

        assert stub.calls > 0, "learned rung was never consulted"
        # The failing rung must not emit under the learned label: while it
        # is the active rung the supervisor serves the held-over
        # phase-difference value, and sustained gating then walks past it
        # to the classical rungs.
        assert not [e for e in estimates if e.method == "learned"]
        assert [
            e
            for e in estimates
            if e.method == LEARNED_FALLBACK_METHODS[0] and not e.fresh
        ], "no held-over primary emission while the rung was failing"
        escalations = [
            e.detail["to_method"]
            for e in supervisor.events.select(kind="fallback-escalated")
        ]
        assert escalations[0] == "learned"
        assert "csi-ratio" in escalations
        assert supervisor.events.select(kind="fallback-recovered")
        health = supervisor.health_summary()
        assert health["health"] == "healthy"


class TestOverloadPins:
    def test_pin_spans_the_four_rung_ladder(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock, learned=StubLearned())
        supervisor.add_subject(
            "alice",
            lambda t0: TracePacketSource(service_trace, clock, start_at_s=t0),
            service_trace.sample_rate_hz,
        )
        supervisor.set_min_fallback_level("alice", 3, reason="overload")
        escalated = supervisor.events.select(kind="fallback-escalated")
        assert [e.detail["to_method"] for e in escalated] == [
            "learned",
            "csi-ratio",
            "amplitude",
        ]
        with pytest.raises(ConfigurationError, match=r"\[0, 3\]"):
            supervisor.set_min_fallback_level("alice", 4, reason="overload")

    def test_without_learned_the_old_bounds_hold(self, service_trace):
        clock = SimulatedClock()
        supervisor = make_supervisor(clock)
        supervisor.add_subject(
            "alice",
            lambda t0: TracePacketSource(service_trace, clock, start_at_s=t0),
            service_trace.sample_rate_hz,
        )
        with pytest.raises(ConfigurationError, match=r"\[0, 2\]"):
            supervisor.set_min_fallback_level("alice", 3, reason="overload")


class TestLearnedChaosScenario:
    def test_burst_escalates_into_a_real_learned_estimator(self):
        scenario = SHIPPED_SCENARIOS["learned-degradation-burst"]
        assert scenario.use_learned_rung
        report = run_chaos(scenario, seed=2)
        assert report.violations() == []
        escalated = [
            e for e in report.events if e.kind == "fallback-escalated"
        ]
        assert escalated[0].detail["to_method"] == "learned"
        served = [e for e in report.estimates if e.method == "learned"]
        assert served
        # Served values are physiologically plausible, not clamp artifacts.
        for estimate in served:
            assert 6.0 <= estimate.rate_bpm <= 42.0

    @pytest.mark.determinism
    def test_learned_chaos_report_is_byte_reproducible(self):
        scenario = SHIPPED_SCENARIOS["learned-degradation-burst"]
        first = run_chaos(scenario, seed=2)
        second = run_chaos(scenario, seed=2)
        assert canonical_json(first.to_jsonable()) == canonical_json(
            second.to_jsonable()
        )
