"""Unit tests for Hampel filtering and trend extraction."""

import numpy as np
import pytest

from repro.dsp.hampel import hampel_filter, rolling_median
from repro.errors import ConfigurationError


class TestRollingMedian:
    def test_constant_input_unchanged(self):
        x = np.full(50, 2.5)
        assert np.allclose(rolling_median(x, 5), x)

    def test_median_of_step(self):
        x = np.concatenate([np.zeros(10), np.ones(10)])
        out = rolling_median(x, 3)
        # Away from the step the median tracks the level exactly.
        assert np.all(out[:8] == 0.0)
        assert np.all(out[-8:] == 1.0)

    def test_window_longer_than_signal_is_clipped(self):
        x = np.arange(5.0)
        out = rolling_median(x, 100)
        assert out.shape == x.shape

    def test_rejects_3d(self):
        # A 2-D input is a column matrix; anything deeper is an error.
        with pytest.raises(ConfigurationError):
            rolling_median(np.zeros((3, 3, 3)), 3)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            rolling_median(np.zeros(10), 0)


class TestHampelFilter:
    def test_replaces_isolated_spike(self):
        x = np.zeros(101)
        x[50] = 100.0
        out = hampel_filter(x, 11, threshold=3.0)
        assert out[50] == 0.0
        assert np.allclose(out, 0.0)

    def test_preserves_clean_signal_with_large_threshold(self):
        # A smooth sine stays essentially intact: any replaced sample is
        # replaced by a local median that is itself close to the signal.
        t = np.arange(400) / 20.0
        x = np.sin(2 * np.pi * 0.25 * t)
        out = hampel_filter(x, 11, threshold=50.0)
        assert np.allclose(out, x, atol=0.05)

    def test_tiny_threshold_degenerates_to_rolling_median(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        out = hampel_filter(x, 25, threshold=0.01)
        med = rolling_median(x, 25)
        # With threshold 0.01 essentially every sample is replaced.
        assert np.mean(out == med) > 0.95

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            hampel_filter(np.zeros(10), 3, threshold=-1.0)

    def test_output_is_copy(self):
        x = np.ones(20)
        out = hampel_filter(x, 5, 1.0)
        out[0] = 99.0
        assert x[0] == 1.0


class TestHampelTrend:
    # The paper's detrending use: a large window and a tiny threshold turn
    # the filter into the series' slow trend.
    def test_recovers_slow_trend_under_fast_oscillation(self):
        t = np.arange(4000) / 400.0
        trend = 0.5 * t  # slow ramp
        x = trend + 0.3 * np.sin(2 * np.pi * 2.0 * t)
        estimated = hampel_filter(x, 801, 0.01)
        # Away from the edges the trend estimate tracks the ramp.
        interior = slice(500, -500)
        assert np.max(np.abs(estimated[interior] - trend[interior])) < 0.2

    def test_detrending_removes_dc(self):
        t = np.arange(4000) / 400.0
        x = 5.0 + np.sin(2 * np.pi * 0.25 * t)
        detrended = x - hampel_filter(x, 2001, 0.01)
        assert abs(np.mean(detrended[400:-400])) < 0.1
