"""Unit tests for sliding-window peak detection."""

import numpy as np
import pytest

from repro.dsp.peaks import (
    find_peaks,
    mean_peak_interval,
    peak_rate_bpm,
    robust_peak_interval,
)
from repro.errors import ConfigurationError, EstimationError


def breathing_like(freq=0.25, fs=20.0, n=1200, noise=0.0, rng=None):
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freq * t)
    if noise and rng is not None:
        x = x + noise * rng.normal(size=n)
    return x


class TestFindPeaks:
    def test_clean_sine_peak_count(self):
        # 60 s at 0.25 Hz → 15 cycles → 14 or 15 detected peaks.
        peaks = find_peaks(breathing_like(), window=51)
        assert 13 <= peaks.size <= 16

    def test_peak_positions_near_crests(self):
        fs, f = 20.0, 0.25
        peaks = find_peaks(breathing_like(f, fs), window=51)
        t_peaks = peaks / fs
        # Crests of sin at t = (0.25 + k) / f.
        expected_phase = np.mod(t_peaks * f, 1.0)
        assert np.all(np.abs(expected_phase - 0.25) < 0.05)

    def test_fake_peak_rejected_by_window(self):
        # A small ripple riding a big slow wave: the dominance window must
        # keep only the slow crests.
        fs = 20.0
        t = np.arange(1200) / fs
        x = np.sin(2 * np.pi * 0.2 * t) + 0.1 * np.sin(2 * np.pi * 1.3 * t)
        peaks = find_peaks(x, window=51)
        intervals = np.diff(peaks) / fs
        assert np.all(intervals > 3.0)  # 0.2 Hz → 5 s spacing

    def test_min_prominence_suppresses_flat_noise(self, rng):
        x = 0.01 * rng.normal(size=400)
        with_prominence = find_peaks(x, window=51, min_prominence=1.0)
        assert with_prominence.size == 0

    def test_short_signal_returns_empty(self):
        assert find_peaks(np.array([1.0, 2.0]), window=5).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            find_peaks(np.zeros((10, 2)), window=51)

    def test_rejects_tiny_window(self):
        with pytest.raises(ConfigurationError):
            find_peaks(np.zeros(100), window=2)

    def test_plateau_keeps_single_peak(self):
        x = np.zeros(100)
        x[40:45] = 1.0  # flat-topped crest
        peaks = find_peaks(x, window=21)
        assert peaks.size == 1


class TestIntervals:
    def test_mean_interval_of_clean_sine(self):
        fs, f = 20.0, 0.25
        peaks = find_peaks(breathing_like(f, fs), window=51)
        assert mean_peak_interval(peaks, fs) == pytest.approx(4.0, abs=0.1)

    def test_rate_bpm(self):
        fs, f = 20.0, 0.25
        peaks = find_peaks(breathing_like(f, fs), window=51)
        assert peak_rate_bpm(peaks, fs) == pytest.approx(15.0, abs=0.3)

    def test_single_peak_raises(self):
        with pytest.raises(EstimationError):
            mean_peak_interval(np.array([5]), 20.0)

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_peak_interval(np.array([1, 2]), 0.0)


class TestRobustInterval:
    def test_matches_mean_on_clean_peaks(self):
        peaks = np.array([0, 80, 160, 240, 320])
        assert robust_peak_interval(peaks, 20.0) == pytest.approx(
            mean_peak_interval(peaks, 20.0)
        )

    def test_trims_one_fake_peak(self):
        # Clean spacing of 80 samples plus one fake peak splitting an
        # interval into 20 + 60.
        peaks = np.array([0, 80, 160, 180, 240, 320, 400])
        period = robust_peak_interval(peaks, 20.0)
        assert period == pytest.approx(80 / 20.0, abs=0.3)

    def test_trims_one_missed_peak(self):
        # One interval doubled by a missed peak.
        peaks = np.array([0, 80, 160, 320, 400, 480])
        period = robust_peak_interval(peaks, 20.0)
        assert period == pytest.approx(4.0, abs=0.2)

    def test_all_trimmed_falls_back_to_full_mean(self):
        # Pathological spacing where the trim band around the median is
        # empty must not crash.
        peaks = np.array([0, 10, 200, 210])
        assert robust_peak_interval(peaks, 20.0) > 0

    def test_fewer_than_two_peaks_raises(self):
        with pytest.raises(EstimationError):
            robust_peak_interval(np.array([3]), 20.0)
