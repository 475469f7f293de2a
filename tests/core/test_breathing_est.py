"""Unit tests for the three breathing-rate estimators."""

import numpy as np
import pytest

from repro.core import breathing
from repro.core.breathing import (
    fft_breathing_bpm,
    music_breathing_bpm,
    peak_breathing_bpm,
)
from repro.errors import ConfigurationError, EstimationError


def tone_mix(freqs, fs=20.0, n=1200, noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = sum(np.sin(2 * np.pi * f * t + i) for i, f in enumerate(freqs))
    return x + noise * rng.normal(size=n)


class TestPeakEstimator:
    def test_clean_tone(self):
        rate = peak_breathing_bpm(tone_mix([0.25], noise=0.0), 20.0)
        assert rate == pytest.approx(15.0, abs=0.2)

    @pytest.mark.parametrize("f", [0.18, 0.25, 0.35, 0.45])
    def test_adaptive_window_covers_rate_range(self, f):
        rate = peak_breathing_bpm(tone_mix([f], noise=0.05, n=1800), 20.0)
        assert rate == pytest.approx(60 * f, abs=0.6)

    def test_flat_signal_raises(self):
        with pytest.raises(EstimationError):
            peak_breathing_bpm(np.zeros(600), 20.0)

    def test_validation(self):
        # The invariants the estimator's constants must keep.
        assert breathing.MIN_PROMINENCE_FACTOR >= 0
        assert breathing.MUSIC_DECIMATION >= 1
        lo, hi = breathing.BREATHING_SEARCH_BAND_HZ
        assert 0 < lo < hi


class TestFFTEstimator:
    def test_single_rate(self):
        rates = fft_breathing_bpm(tone_mix([0.25]), 20.0, 1)
        assert rates[0] == pytest.approx(15.0, abs=0.3)

    def test_two_separated_rates(self):
        rates = fft_breathing_bpm(tone_mix([0.2, 0.3], n=2400), 20.0, 2)
        assert rates.size == 2
        assert rates[0] == pytest.approx(12.0, abs=0.3)
        assert rates[1] == pytest.approx(18.0, abs=0.3)

    def test_matrix_input_uses_strongest_column(self):
        x = tone_mix([0.25], n=1200)
        matrix = np.column_stack([0.01 * np.ones(1200), x])
        rates = fft_breathing_bpm(matrix, 20.0, 1)
        assert rates[0] == pytest.approx(15.0, abs=0.3)

    def test_flat_signal_raises(self):
        with pytest.raises(EstimationError):
            fft_breathing_bpm(np.zeros(600), 20.0, 1)

    def test_n_persons_validation(self):
        with pytest.raises(ConfigurationError):
            fft_breathing_bpm(np.zeros(600), 20.0, 0)


class TestMusicEstimator:
    def test_paper_three_rates(self):
        x = tone_mix([0.1467, 0.2233, 0.2483], n=2400, noise=0.05)
        rates = music_breathing_bpm(x, 20.0, 3)
        assert np.allclose(rates, [8.80, 13.40, 14.90], atol=0.5)

    def test_resolves_pair_fft_cannot(self):
        # 25 s window: FFT resolution 0.04 Hz > the 0.025 Hz gap.
        x = tone_mix([0.2233, 0.2483], n=500, noise=0.01)
        fft_rates = fft_breathing_bpm(x, 20.0, 2)
        music_rates = music_breathing_bpm(x, 20.0, 2)
        music_errors = np.abs(music_rates - [13.40, 14.90]).max()
        assert music_errors < 0.6
        fft_resolved = fft_rates.size == 2 and np.abs(
            fft_rates - [13.40, 14.90]
        ).max() < 0.6
        assert not fft_resolved

    def test_multichannel_matrix(self):
        rng = np.random.default_rng(3)
        base = tone_mix([0.2, 0.3], n=1200, noise=0.0)
        matrix = np.stack(
            [base + 0.1 * rng.normal(size=1200) for _ in range(8)], axis=1
        )
        rates = music_breathing_bpm(matrix, 20.0, 2)
        assert np.allclose(rates, [12.0, 18.0], atol=0.5)

    def test_n_persons_validation(self):
        with pytest.raises(ConfigurationError):
            music_breathing_bpm(np.zeros(600), 20.0, 0)
