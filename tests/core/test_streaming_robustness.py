"""Streaming error paths: packet validation, quality gates, holdover, recovery.

Complements ``test_streaming.py`` (which covers the happy path and the
motion/noise rejections): every structured rejection reason, the holdover /
staleness machinery, automatic recovery after a dropout, and ``push_trace``
over impaired traces.
"""

import numpy as np
import pytest

from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.errors import TraceFormatError
from repro.rf.impairments import BernoulliLoss, DropoutGap, apply_impairments


@pytest.fixture(scope="module")
def long_lab_trace(lab_person):
    """60 s laboratory capture: long enough for a dropout to slide fully
    out of a 20 s analysis window with room to recover."""
    from repro import capture_trace, laboratory_scenario

    scenario = laboratory_scenario([lab_person], clutter_seed=1)
    return capture_trace(scenario, duration_s=60.0, seed=1)


def noise_packet(rng, n_rx=3, n_sub=30):
    return 0.01 * (
        rng.normal(size=(n_rx, n_sub)) + 1j * rng.normal(size=(n_rx, n_sub))
    )


class TestPacketValidation:
    def test_nan_timestamp_dropped_and_counted(self, rng):
        monitor = StreamingMonitor(100.0)
        assert monitor.push_packet(noise_packet(rng), np.nan) is None
        assert monitor.counters["dropped_nonfinite_timestamp"] == 1
        assert len(monitor._times) == 0

    def test_nonfinite_csi_dropped_and_counted(self, rng):
        monitor = StreamingMonitor(100.0)
        packet = noise_packet(rng)
        packet[0, 0] = np.nan
        assert monitor.push_packet(packet, 0.0) is None
        assert monitor.counters["dropped_nonfinite_csi"] == 1

    def test_backward_timestamp_dropped(self, rng):
        monitor = StreamingMonitor(100.0, StreamingConfig(window_s=5.0, hop_s=1.0))
        monitor.push_packet(noise_packet(rng), 0.00)
        monitor.push_packet(noise_packet(rng), 0.01)
        monitor.push_packet(noise_packet(rng), 0.005)  # glitch: behind last
        assert monitor.counters["dropped_backward_timestamp"] == 1
        assert len(monitor._times) == 2

    def test_large_backward_jump_resets_stream(self, rng):
        monitor = StreamingMonitor(100.0, StreamingConfig(window_s=2.0, hop_s=1.0))
        for k in range(50):
            monitor.push_packet(noise_packet(rng), 100.0 + k / 100.0)
        monitor.push_packet(noise_packet(rng), 1.0)  # counter restarted
        assert monitor.counters["stream_resets"] == 1
        assert len(monitor._times) == 1  # only the post-reset packet

    def test_mid_stream_shape_change_rejected(self, rng):
        monitor = StreamingMonitor(100.0)
        monitor.push_packet(noise_packet(rng, n_rx=3), 0.0)
        with pytest.raises(TraceFormatError):
            monitor.push_packet(noise_packet(rng, n_rx=2), 0.01)


class TestTimeBasedWindowing:
    def test_lossy_stream_still_spans_full_window(self, rng):
        # Half the packets missing: a count-based window would cover 2×
        # window_s of wall time; the time-based one must not.  Such windows
        # fail the loss gate, but rejections still report their quality.
        monitor = StreamingMonitor(
            100.0, StreamingConfig(window_s=4.0, hop_s=1.0)
        )
        keep = rng.random(1000) > 0.5
        emitted = []
        for k in range(1000):
            if not keep[k]:
                continue
            out = monitor.push_packet(noise_packet(rng), k / 100.0)
            if out is not None:
                emitted.append(out)
        assert emitted
        for estimate in emitted:
            assert estimate.quality is not None
            assert estimate.quality.duration_s == pytest.approx(4.0, abs=0.1)
            assert estimate.quality.loss_fraction == pytest.approx(0.5, abs=0.1)


class TestQualityGates:
    def test_data_gap_rejection(self, rng):
        monitor = StreamingMonitor(
            100.0, StreamingConfig(window_s=2.0, hop_s=1.0)
        )
        outputs = []
        for k in range(400):
            if 100 <= k < 180:  # a 0.8 s dropout
                continue
            out = monitor.push_packet(noise_packet(rng), k / 100.0)
            if out is not None:
                outputs.append(out)
        assert any(o.rejected_reason == "data-gap" for o in outputs)
        # No rejected window sneaks through as an unflagged estimate.
        for o in outputs:
            assert o.fresh == (o.rejected_reason is None)

    def test_degraded_input_rejection_on_heavy_loss(self, rng):
        monitor = StreamingMonitor(
            100.0,
            StreamingConfig(window_s=2.0, hop_s=1.0),
        )
        outputs = []
        for k in range(0, 600, 3):  # two of three packets lost, no long gap
            out = monitor.push_packet(noise_packet(rng), k / 100.0)
            if out is not None:
                outputs.append(out)
        assert outputs
        assert all(o.rejected_reason == "degraded-input" for o in outputs)

    def test_degraded_input_rejection_on_too_few_packets(self, rng):
        monitor = StreamingMonitor(
            2.0,
            StreamingConfig(window_s=5.0, hop_s=5.0),
        )
        outputs = []
        for k in range(12):  # 0.5 s spacing: spans the window with 11 gaps
            out = monitor.push_packet(noise_packet(rng), 0.5 * k)
            if out is not None:
                outputs.append(out)
        assert outputs
        assert all(o.rejected_reason == "degraded-input" for o in outputs)


class TestHoldover:
    def _fill_good(self, monitor, trace):
        estimates = monitor.push_trace(trace)
        fresh = [e for e in estimates if e.fresh]
        assert fresh, "setup failed: no good estimate from the clean trace"
        return fresh[-1]

    def test_rejected_window_holds_last_good_estimate(self, lab_trace, rng):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0, holdover_s=30.0)
        )
        last_good = self._fill_good(monitor, lab_trace)
        # Continue the stream after a 1 s silence: gap-containing windows
        # must re-emit the held estimate, flagged.
        t0 = float(lab_trace.timestamps_s[-1]) + 1.0
        held = []
        for k in range(4000):
            out = monitor.push_packet(lab_trace.csi[k], t0 + k / 400.0)
            if out is not None:
                held.append(out)
        assert held
        for estimate in held:
            if estimate.rejected_reason == "data-gap":
                assert estimate.held_over and estimate.ok
                assert estimate.result is last_good.result
                assert estimate.staleness_s > 0
                assert not estimate.fresh

    def test_holdover_expires_after_budget(self, lab_trace, rng):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0, holdover_s=8.0)
        )
        self._fill_good(monitor, lab_trace)
        # Sparse packets 0.6 s apart: every window trips the gap gate, so
        # the stream never produces another fresh estimate and staleness
        # keeps growing past the 8 s budget.
        t0 = float(lab_trace.timestamps_s[-1])
        outputs = []
        for k in range(1, 80):
            out = monitor.push_packet(lab_trace.csi[k], t0 + 0.6 * k)
            if out is not None:
                outputs.append(out)
        assert any(o.held_over for o in outputs)
        expired = [o for o in outputs if o.staleness_s == 0 and not o.ok]
        assert expired, "holdover never expired"
        assert all(o.rejected_reason is not None for o in outputs)

    def test_holdover_disabled_with_zero_budget(self, lab_trace):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0, holdover_s=0.0)
        )
        self._fill_good(monitor, lab_trace)
        t0 = float(lab_trace.timestamps_s[-1])
        outputs = []
        for k in range(1, 40):
            out = monitor.push_packet(lab_trace.csi[k], t0 + 0.6 * k)
            if out is not None:
                outputs.append(out)
        assert outputs
        assert all(not o.ok for o in outputs)


class TestImpairedTraceStreaming:
    def test_recovery_after_dropout(self, long_lab_trace):
        impaired = apply_impairments(
            long_lab_trace,
            [BernoulliLoss(0.1), DropoutGap(1.0, start_s=30.0)],
            seed=7,
        )
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0)
        )
        estimates = monitor.push_trace(impaired)
        assert estimates
        gap_windows = [e for e in estimates if e.rejected_reason == "data-gap"]
        assert gap_windows, "the dropout never tripped the gap gate"
        # Impaired windows are never emitted unflagged...
        for e in estimates:
            assert e.fresh == (e.rejected_reason is None)
        # ...and once the gap slides out of the window, estimation resumes.
        t_recovered = max(e.time_s for e in gap_windows)
        resumed = [e for e in estimates if e.time_s > t_recovered and e.fresh]
        assert resumed, "monitor never recovered after the dropout"

    def test_ten_percent_loss_keeps_tracking_truth(self, lab_trace, lab_person):
        impaired = BernoulliLoss(0.1)(lab_trace, seed=3)
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0)
        )
        fresh = [e for e in monitor.push_trace(impaired) if e.fresh]
        assert fresh, "no fresh estimate from a 10%-loss stream"
        for estimate in fresh:
            rate = estimate.result.breathing_rates_bpm[0]
            assert rate == pytest.approx(lab_person.breathing_rate_bpm, abs=1.0)
            assert estimate.result.diagnostics.reclocked

    def test_glitched_trace_streams_without_crash(self, lab_trace):
        from repro.rf.impairments import ClockGlitch

        impaired = ClockGlitch(0.5, at_s=15.0)(lab_trace, seed=1)
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=10.0, hop_s=5.0)
        )
        estimates = monitor.push_trace(impaired)
        assert monitor.counters["dropped_backward_timestamp"] > 0
        assert any(e.fresh for e in estimates)
