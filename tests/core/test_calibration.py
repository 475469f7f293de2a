"""Unit tests for the detrend/denoise/downsample calibration stage."""

import numpy as np
import pytest

from repro.core.calibration import calibrate
from repro.core.phase_difference import phase_difference
from repro.dsp.fft_utils import magnitude_spectrum
from repro.dsp.resample import decimation_factor
from repro.errors import ConfigurationError


def synthetic_phase_diff(n=10_000, fs=400.0, f_breath=0.25, dc=1.5, noise=0.05):
    rng = np.random.default_rng(0)
    t = np.arange(n) / fs
    base = dc + 0.3 * np.sin(2 * np.pi * f_breath * t)
    return base[:, None] + noise * rng.normal(size=(n, 30))


class TestCalibrate:
    def test_paper_sample_counts(self):
        # 10 000 packets at 400 Hz → 500 samples at 20 Hz (paper Fig. 4).
        data = synthetic_phase_diff()
        out = calibrate(data, 400.0)
        assert out.n_samples == 500
        assert out.sample_rate_hz == pytest.approx(20.0)
        assert out.n_subcarriers == 30

    def test_dc_removed(self):
        out = calibrate(synthetic_phase_diff(dc=5.0), 400.0)
        assert np.abs(out.series.mean(axis=0)).max() < 0.1

    def test_breathing_tone_preserved(self):
        out = calibrate(synthetic_phase_diff(), 400.0)
        freqs, mag = magnitude_spectrum(out.series[:, 0], 20.0)
        peak = freqs[np.argmax(mag)]
        assert peak == pytest.approx(0.25, abs=0.05)

    def test_high_frequency_noise_suppressed(self):
        rng = np.random.default_rng(1)
        n, fs = 8000, 400.0
        t = np.arange(n) / fs
        clean = 0.3 * np.sin(2 * np.pi * 0.25 * t)
        noisy = clean + 0.2 * np.sin(2 * np.pi * 50.0 * t)
        out = calibrate(noisy[:, None] * np.ones((1, 2)), fs)
        freqs, mag = magnitude_spectrum(out.series[:, 0], 20.0)
        breathing_power = mag[np.argmin(np.abs(freqs - 0.25))]
        residual_hf = mag[freqs > 5.0].max()
        assert residual_hf < 0.05 * breathing_power

    def test_windows_scale_with_rate(self):
        # At 20 Hz input the decimation factor collapses to 1 and the trend
        # window shrinks proportionally — calibration must still run.
        data = synthetic_phase_diff(n=600, fs=20.0)
        out = calibrate(data, 20.0)
        assert out.sample_rate_hz == pytest.approx(20.0)
        assert out.n_samples == 600

    def test_on_simulated_trace(self, lab_trace):
        diff = phase_difference(lab_trace)
        out = calibrate(diff, lab_trace.sample_rate_hz)
        assert out.sample_rate_hz == pytest.approx(20.0)
        assert out.n_samples == lab_trace.n_packets // 20

    def test_1d_input_promoted(self):
        data = np.random.default_rng(0).normal(size=4000)
        out = calibrate(data[:, None], 400.0)
        assert out.n_subcarriers == 1


class TestConfig:
    def test_decimation_factor(self):
        assert decimation_factor(400.0) == 20
        assert decimation_factor(600.0) == 30
        assert decimation_factor(20.0) == 1
        assert decimation_factor(10.0) == 1  # floored at 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            decimation_factor(0.0)
        with pytest.raises(ConfigurationError):
            calibrate(synthetic_phase_diff(n=100), 0.0)
