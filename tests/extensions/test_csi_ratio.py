"""Tests for the CSI-ratio (FarSense-style) estimator."""

import numpy as np
import pytest

from repro import Person, capture_trace, laboratory_scenario
from repro.errors import ConfigurationError
from repro.dsp.hampel import hampel_filter
from repro.dsp.resample import decimate
from repro.extensions.csi_ratio import (
    CsiRatioConfig,
    CsiRatioEstimator,
    _principal_component_series,
    csi_ratio_series,
)
from repro.rf.hardware import HardwareConfig


class TestRatioSeries:
    def test_shape(self, short_lab_trace):
        ratio = csi_ratio_series(short_lab_trace)
        assert ratio.shape == (short_lab_trace.n_packets, 30)
        assert np.iscomplexobj(ratio)

    def test_cancels_common_hardware_terms(self):
        """With noise off, the ratio of a static scene is packet-constant
        even though the raw phases are scrambled per packet."""
        person = Person(position=(2.2, 3.0, 1.0), heartbeat=None)
        scenario = laboratory_scenario([person], clutter_seed=41)
        hw = HardwareConfig(noise_sigma=0.0, agc_jitter_sigma=0.0, seed=41)
        import dataclasses

        from repro.physio.motion import ActivityScript, ActivityState, MotionEvent

        empty = dataclasses.replace(
            scenario,
            activity=ActivityScript(
                events=(MotionEvent(ActivityState.NO_PERSON, 0.0, 10.0),)
            ),
        )
        trace = capture_trace(empty, duration_s=5.0, seed=41, hardware=hw)
        ratio = csi_ratio_series(trace)
        assert np.max(np.std(ratio.real, axis=0)) < 1e-9
        assert np.max(np.std(ratio.imag, axis=0)) < 1e-9

    def test_validation(self, short_lab_trace):
        with pytest.raises(ConfigurationError):
            csi_ratio_series(short_lab_trace, (1, 1))
        with pytest.raises(ConfigurationError):
            csi_ratio_series(short_lab_trace, (0, 9))


class TestEstimator:
    def test_breathing_rate_on_lab_trace(self, lab_trace, lab_person):
        estimate = CsiRatioEstimator().estimate_breathing_bpm(lab_trace)
        assert estimate == pytest.approx(lab_person.breathing_rate_bpm, abs=0.8)

    def test_null_point_robustness(self):
        """Seed 103 is a known phase-difference null-point trial (the
        PhaseBeat estimate errs by several bpm); the complex-ratio
        principal axis still sees the motion."""
        from repro.eval.harness import default_subject

        rng = np.random.default_rng(103)
        person = default_subject(rng, with_heartbeat=False)
        scenario = laboratory_scenario([person], clutter_seed=103)
        trace = capture_trace(scenario, duration_s=30.0, seed=103)
        estimate = CsiRatioEstimator().estimate_breathing_bpm(trace)
        assert estimate == pytest.approx(person.breathing_rate_bpm, abs=1.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CsiRatioConfig(trend_window_s=0.1, noise_window_s=0.5)
        with pytest.raises(ConfigurationError):
            CsiRatioConfig(target_rate_hz=0.0)

    def test_breathing_series_rate(self, lab_trace):
        series, rate = CsiRatioEstimator().breathing_series(lab_trace)
        assert rate == pytest.approx(20.0)
        assert series.size == lab_trace.n_packets // 20

    @pytest.mark.parametrize("fixture", ["lab_trace", "short_lab_trace"])
    def test_breathing_series_equals_per_column_filtering(
        self, request, fixture
    ):
        """The two matrix Hampel calls equal four 1-D calls per subcarrier,
        byte for byte."""
        trace = request.getfixturevalue(fixture)
        cfg = CsiRatioConfig()
        ratio = csi_ratio_series(trace, cfg.antenna_pair)
        factor = int(round(trace.sample_rate_hz / cfg.target_rate_hz))
        noise = max(3, int(round(cfg.noise_window_s * trace.sample_rate_hz)))
        trend = max(5, int(round(cfg.trend_window_s * trace.sample_rate_hz)))
        best, best_energy = None, -np.inf
        for column in range(ratio.shape[1]):
            real = hampel_filter(ratio[:, column].real, noise, 0.01)
            imag = hampel_filter(ratio[:, column].imag, noise, 0.01)
            parts = np.column_stack(
                [
                    real - hampel_filter(real, trend, 0.01),
                    imag - hampel_filter(imag, trend, 0.01),
                ]
            )
            detrended = decimate(parts, factor, axis=0)
            projected = _principal_component_series(
                detrended[:, 0] + 1j * detrended[:, 1]
            )
            if float(np.var(projected)) > best_energy:
                best, best_energy = projected, float(np.var(projected))

        series, _ = CsiRatioEstimator(cfg).breathing_series(trace)
        assert series.tobytes() == best.tobytes()
