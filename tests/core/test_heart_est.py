"""Unit tests for the FFT + 3-bin heart-rate estimator."""

import numpy as np
import pytest

from repro.core import heart
from repro.core.heart import HEART_SEARCH_BAND_HZ, fft_heart_bpm
from repro.errors import ConfigurationError, EstimationError


def heart_signal(f_heart=1.07, fs=20.0, n=1200, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * f_heart * t) + noise * rng.normal(size=n)


class TestBasicEstimation:
    def test_clean_tone(self):
        rate = fft_heart_bpm(heart_signal(), 20.0)
        assert rate == pytest.approx(64.2, abs=0.5)

    def test_refinement_beats_bin_resolution(self):
        # 30 s window → bin width 2 bpm; the 3-bin method must do better.
        fs, n = 20.0, 600
        truth = 1.071
        refined = fft_heart_bpm(heart_signal(truth, fs, n, noise=0.0), fs)
        assert abs(refined - 60 * truth) < 0.5

    def test_band_respected(self):
        # Strong out-of-band tone must not capture the estimate.
        fs, n = 20.0, 1200
        t = np.arange(n) / fs
        x = 5 * np.sin(2 * np.pi * 3.0 * t) + np.sin(2 * np.pi * 1.1 * t)
        rate = fft_heart_bpm(x, fs)
        assert rate == pytest.approx(66.0, abs=1.0)

    def test_noise_only_raises(self, rng):
        # Noise with a flat magnitude spectrum: no bin stands out.
        phases = rng.uniform(0.0, 2 * np.pi, size=601)
        x = np.fft.irfft(np.exp(1j * phases), 1200)
        with pytest.raises(EstimationError, match="SNR"):
            fft_heart_bpm(x, 20.0)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            fft_heart_bpm(np.zeros((100, 2)), 20.0)

    def test_config_validation(self):
        # The invariants the estimator's constants must keep.
        lo, hi = HEART_SEARCH_BAND_HZ
        assert 0 < lo < hi
        assert heart.MIN_PEAK_SNR >= 1.0
        assert heart.MAX_HARMONIC_ORDER >= 2
        assert heart.HARMONIC_TOLERANCE_HZ > 0


class TestHarmonicSuppression:
    def test_breathing_harmonic_skipped(self):
        # A strong 4th breathing harmonic inside the heart band must not be
        # mistaken for the heart when f_b is provided.
        fs, n = 20.0, 1200
        t = np.arange(n) / fs
        f_b = 0.25
        x = (
            2.0 * np.sin(2 * np.pi * 4 * f_b * t)  # harmonic at 1.0 Hz
            + 1.0 * np.sin(2 * np.pi * 1.4 * t)  # true heart
        )
        rate = fft_heart_bpm(
            x, fs, breathing_rate_hz=f_b
        )
        assert rate == pytest.approx(84.0, abs=1.0)

    def test_without_breathing_rate_harmonic_wins(self):
        fs, n = 20.0, 1200
        t = np.arange(n) / fs
        x = 2.0 * np.sin(2 * np.pi * 1.0 * t) + np.sin(2 * np.pi * 1.4 * t)
        rate = fft_heart_bpm(x, fs)
        assert rate == pytest.approx(60.0, abs=1.0)

    def test_sideband_comb_resolved_to_carrier(self):
        # Carrier with symmetric ±f_b sidebands where one sideband exceeds
        # the carrier: comb-symmetry scoring must still pick the carrier.
        fs, n = 20.0, 2400
        t = np.arange(n) / fs
        f_h, f_b = 1.4, 0.22
        x = (
            0.8 * np.sin(2 * np.pi * f_h * t)
            + 1.2 * np.sin(2 * np.pi * (f_h - f_b) * t + 0.5)
            + 1.1 * np.sin(2 * np.pi * (f_h + f_b) * t + 1.0)
            + 0.5 * np.sin(2 * np.pi * (f_h - 2 * f_b) * t + 1.2)
            + 0.4 * np.sin(2 * np.pi * (f_h + 2 * f_b) * t + 0.3)
        )
        rate = fft_heart_bpm(x, fs, breathing_rate_hz=f_b)
        assert rate == pytest.approx(60 * f_h, abs=1.5)

    def test_masking_whole_band_falls_back(self):
        # A 1 s series has in-band bins at 1 and 2 Hz only, and f_b = 0.5 Hz
        # puts harmonics on both: the estimator must not crash, it falls
        # back to the unmasked peak.
        fs, n = 20.0, 20
        x = heart_signal(1.0, fs, n, noise=0.0)
        rate = fft_heart_bpm(x, fs, breathing_rate_hz=0.5)
        assert 48.0 <= rate <= 120.0


class TestSearchBand:
    def test_default_band_inside_dwt_band(self):
        lo, hi = HEART_SEARCH_BAND_HZ
        assert 0.625 <= lo < hi <= 2.5
