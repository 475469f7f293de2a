"""Tests for the realtime sliding-window monitor."""

import numpy as np
import pytest

from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.errors import ConfigurationError


class TestStreamingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(window_s=0.0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(window_s=10.0, hop_s=20.0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(holdover_s=-1.0)


class TestStreamingMonitor:
    def test_no_estimate_before_window_fills(self, lab_trace):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0)
        )
        outputs = [
            monitor.push_packet(lab_trace.csi[k], lab_trace.timestamps_s[k])
            for k in range(100)
        ]
        assert all(o is None for o in outputs)

    def test_emission_cadence(self, lab_trace):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0)
        )
        estimates = monitor.push_trace(lab_trace)
        # 30 s trace, 20 s window, 5 s hop → estimates at ~20, 25, 30 s.
        assert len(estimates) == 3
        times = [e.time_s for e in estimates]
        assert times == sorted(times)
        assert times[0] == pytest.approx(20.0, abs=0.1)

    def test_estimates_track_truth(self, lab_trace, lab_person):
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=20.0, hop_s=5.0)
        )
        estimates = [e for e in monitor.push_trace(lab_trace) if e.ok]
        assert estimates, "no window produced an estimate"
        for estimate in estimates:
            rate = estimate.result.breathing_rates_bpm[0]
            assert rate == pytest.approx(lab_person.breathing_rate_bpm, abs=1.0)

    def test_rejected_window_reports_reason(self, rng):
        # Pure-noise packets: every window is rejected, not crashed on.
        monitor = StreamingMonitor(
            100.0, StreamingConfig(window_s=2.0, hop_s=1.0)
        )
        n = 400
        csi = 0.001 * (
            rng.normal(size=(n, 3, 30)) + 1j * rng.normal(size=(n, 3, 30))
        )
        outputs = []
        for k in range(n):
            out = monitor.push_packet(csi[k], k / 100.0)
            if out is not None:
                outputs.append(out)
        assert outputs
        assert all(not o.ok for o in outputs)
        assert all(
            o.rejected_reason in ("not-stationary", "estimation-failed")
            for o in outputs
        )

    def test_packet_shape_validated(self):
        monitor = StreamingMonitor(100.0)
        with pytest.raises(ConfigurationError):
            monitor.push_packet(np.zeros(30, dtype=complex), 0.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMonitor(0.0)

    def test_rate_without_trailing_windows_rejected(self):
        # Below 0.7 Hz the 5 s trend and 0.125 s denoise windows both clamp
        # to 3 samples, so the trailing engine cannot be built.
        with pytest.raises(ConfigurationError, match="0.7 Hz"):
            StreamingMonitor(0.5)
        StreamingMonitor(0.7)
