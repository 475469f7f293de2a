"""Feature extractor: determinism, refusals, and spectral sanity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.learn import FEATURE_NAMES, matrix_features, window_features
from repro.learn.features import MIN_ELIGIBLE_FRACTION

RATE_HZ = 25.0


def make_breathing_matrix(
    frequency_hz: float = 0.25,
    *,
    n_samples: int = 500,
    n_columns: int = 12,
    noise: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """A clean multi-column breathing-like matrix at RATE_HZ."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / RATE_HZ
    gains = rng.uniform(0.5, 1.5, size=n_columns)
    phases = rng.uniform(0, 2 * np.pi, size=n_columns)
    clean = np.sin(
        2 * np.pi * frequency_hz * t[:, None] + phases[None, :]
    ) * gains[None, :]
    return clean + noise * rng.standard_normal((n_samples, n_columns))


class TestMatrixFeatures:
    def test_vector_aligns_with_catalogue(self):
        vector = matrix_features(make_breathing_matrix(), RATE_HZ)
        assert vector.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(vector))

    def test_peak_features_track_the_breathing_frequency(self):
        for frequency_hz in (0.2, 0.3, 0.4):
            vector = matrix_features(
                make_breathing_matrix(frequency_hz), RATE_HZ
            )
            named = dict(zip(FEATURE_NAMES, vector))
            assert named["pooled_peak_hz"] == pytest.approx(
                frequency_hz, abs=0.03
            )
            assert named["vote_median_hz"] == pytest.approx(
                frequency_hz, abs=0.05
            )

    def test_featurization_is_byte_deterministic(self):
        matrix = make_breathing_matrix()
        first = matrix_features(matrix, RATE_HZ)
        second = matrix_features(matrix.copy(), RATE_HZ)
        assert first.tobytes() == second.tobytes()

    def test_context_features_carry_window_geometry(self):
        matrix = make_breathing_matrix(n_samples=300)
        named = dict(zip(FEATURE_NAMES, matrix_features(matrix, RATE_HZ)))
        assert named["window_duration_s"] == pytest.approx(300 / RATE_HZ)
        assert named["window_rate_hz"] == pytest.approx(RATE_HZ)
        assert named["eligible_fraction"] == pytest.approx(1.0)

    def test_short_window_refused(self):
        matrix = make_breathing_matrix(n_samples=32)
        with pytest.raises(EstimationError, match="too short"):
            matrix_features(matrix, RATE_HZ)

    def test_degraded_window_refused(self):
        matrix = make_breathing_matrix()
        quality = np.zeros(matrix.shape[1], dtype=bool)
        with pytest.raises(EstimationError, match="quality too low"):
            matrix_features(matrix, RATE_HZ, quality=quality)

    def test_constant_columns_are_ineligible(self):
        # Flat columns carry no motion: one moving column in 40 is below
        # the eligible-fraction floor.
        matrix = make_breathing_matrix(n_columns=40)
        matrix[:, :39] = 1.0
        assert 1 / 40 < MIN_ELIGIBLE_FRACTION
        with pytest.raises(EstimationError, match="quality too low"):
            matrix_features(matrix, RATE_HZ)

    def test_quality_mask_shape_checked(self):
        matrix = make_breathing_matrix(n_columns=8)
        with pytest.raises(ConfigurationError, match="quality mask"):
            matrix_features(
                matrix, RATE_HZ, quality=np.ones(5, dtype=bool)
            )

    def test_quiet_run_sees_an_apneic_pause(self):
        matrix = make_breathing_matrix(n_samples=750)
        paused = matrix.copy()
        start = int(15.0 * RATE_HZ)
        stop = int(25.0 * RATE_HZ)
        paused[start:stop] *= 0.02
        quiet_index = FEATURE_NAMES.index("quiet_run_s")
        active = matrix_features(matrix, RATE_HZ)[quiet_index]
        apneic = matrix_features(paused, RATE_HZ)[quiet_index]
        assert apneic > active + 4.0


class TestWindowFeatures:
    def test_trace_front_half_round_trip(self, short_lab_trace):
        vector = window_features(short_lab_trace)
        assert vector.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(vector))
        # 15 bpm ground truth = 0.25 Hz; the pooled peak should be close.
        named = dict(zip(FEATURE_NAMES, vector))
        assert named["pooled_peak_hz"] == pytest.approx(0.25, abs=0.05)
