"""Tests for the TensorBeat multi-person estimator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.extensions.tensorbeat import hankel_tensor, tensorbeat_breathing_bpm


def mixed_channels(freqs, fs=20.0, n=1200, n_channels=12, noise=0.1, seed=1):
    """Tones mixed with per-channel random weights (subcarrier diversity)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    tones = [np.sin(2 * np.pi * f * t + i) for i, f in enumerate(freqs)]
    return np.stack(
        [
            sum(rng.uniform(0.3, 1.0) * tone for tone in tones)
            + noise * rng.normal(size=n)
            for _ in range(n_channels)
        ],
        axis=1,
    )


class TestHankelTensor:
    def test_shape(self):
        m = np.arange(20.0).reshape(10, 2)
        tensor = hankel_tensor(m, 4)
        assert tensor.shape == (4, 7, 2)

    def test_hankel_structure(self):
        m = np.arange(8.0)[:, None]
        tensor = hankel_tensor(m, 3)
        # Anti-diagonal constancy: T[i, j] = x[i + j].
        for i in range(3):
            for j in range(6):
                assert tensor[i, j, 0] == i + j

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hankel_tensor(np.zeros(10), 3)
        with pytest.raises(ConfigurationError):
            hankel_tensor(np.zeros((10, 2)), 10)


class TestTensorBeatEstimator:
    def test_two_separated_rates(self):
        m = mixed_channels([0.20, 0.30])
        rates = tensorbeat_breathing_bpm(m, 20.0, 2)
        assert np.allclose(rates, [12.0, 18.0], atol=0.3)

    def test_three_rates_with_close_pair(self):
        # The paper's Fig. 8 rates including the 0.025 Hz-close pair.
        m = mixed_channels([0.1467, 0.2233, 0.2483])
        rates = tensorbeat_breathing_bpm(m, 20.0, 3)
        assert np.allclose(rates, [8.80, 13.40, 14.90], atol=0.3)

    def test_single_person(self):
        m = mixed_channels([0.25])
        rates = tensorbeat_breathing_bpm(m, 20.0, 1)
        assert rates[0] == pytest.approx(15.0, abs=0.3)

    def test_on_simulated_csi(self):
        from repro import (
            Person,
            SinusoidalBreathing,
            capture_trace,
            laboratory_scenario,
        )
        from repro.core.pipeline import prepare_calibrated_matrix

        persons = [
            Person(
                position=pos,
                heartbeat=None,
                breathing=SinusoidalBreathing(
                    frequency_hz=f, amplitude_m=3e-3, phase=0.7 * i
                ),
            )
            for i, (f, pos) in enumerate(
                [(0.1467, (0.8, 5.5, 1.0)), (0.2483, (3.8, 5.8, 1.0))]
            )
        ]
        scenario = laboratory_scenario(persons, clutter_seed=2)
        trace = capture_trace(scenario, duration_s=60.0, seed=2)
        matrix, quality, rate = prepare_calibrated_matrix(trace)
        usable = matrix[:, quality] if quality.any() else matrix
        estimates = tensorbeat_breathing_bpm(usable, rate, 2)
        assert np.allclose(estimates, [8.80, 14.90], atol=0.5)

    def test_reproducible_for_seed(self):
        # CP-ALS restarts draw from the fixed module SEED.
        m = mixed_channels([0.2, 0.3])
        a = tensorbeat_breathing_bpm(m, 20.0, 2)
        b = tensorbeat_breathing_bpm(m, 20.0, 2)
        assert np.array_equal(a, b)

    def test_n_persons_validation(self):
        with pytest.raises(ConfigurationError):
            tensorbeat_breathing_bpm(np.zeros((100, 3)), 20.0, 0)

    def test_too_short_series_rejected(self):
        # 20 samples decimate to 2, shorter than the minimum 3-sample
        # Hankel window.
        with pytest.raises(ConfigurationError):
            tensorbeat_breathing_bpm(np.zeros((20, 3)), 20.0, 1)
