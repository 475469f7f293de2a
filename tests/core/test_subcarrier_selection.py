"""Unit tests for MAD-based subcarrier selection."""

import numpy as np
import pytest

from repro.core.subcarrier_selection import (
    K_CANDIDATES,
    select_subcarrier,
    subcarrier_sensitivities,
)
from repro.errors import ConfigurationError


def series_with_mads(mads, n=500, seed=0):
    """Columns of uniform noise scaled so column i has MAD ≈ mads[i]."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(n, len(mads)))
    base -= base.mean(axis=0)
    current = np.mean(np.abs(base), axis=0)
    return base * (np.asarray(mads) / current)


class TestSensitivities:
    def test_values(self):
        series = series_with_mads([0.1, 0.5, 0.3])
        mads = subcarrier_sensitivities(series)
        assert np.allclose(mads, [0.1, 0.5, 0.3], rtol=1e-6)

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            subcarrier_sensitivities(np.zeros(10))


class TestSelection:
    def test_median_of_top3(self):
        # MADs: top-3 are columns 4 (0.9), 2 (0.8), 0 (0.7); median → col 2.
        series = series_with_mads([0.7, 0.1, 0.8, 0.2, 0.9])
        assert K_CANDIDATES == 3
        result = select_subcarrier(series)
        assert result.candidates == (4, 2, 0)
        assert result.selected == 2

    def test_paper_example_shape(self):
        # Mirror of the paper's narrative: 19 has the max MAD, {19, 18, 2}
        # are the candidates, 18 is selected.
        mads = np.full(30, 0.1)
        mads[19] = 0.9
        mads[18] = 0.8
        mads[2] = 0.7
        result = select_subcarrier(series_with_mads(mads))
        assert result.candidates == (19, 18, 2)
        assert result.selected == 18

    def test_k1_takes_max(self):
        # One eligible column: it is the only candidate.
        series = series_with_mads([0.2, 0.9, 0.4])
        mask = np.array([False, True, False])
        result = select_subcarrier(series, mask=mask)
        assert result.selected == 1

    def test_even_k_lower_median(self):
        # Two eligible columns: candidates (0, 1) MAD-descending; the lower
        # median is column 1.
        series = series_with_mads([0.9, 0.8, 0.7, 0.6, 0.1])
        mask = np.array([True, True, False, False, False])
        result = select_subcarrier(series, mask=mask)
        assert result.candidates == (0, 1)
        assert result.selected == 1

    def test_k_larger_than_columns_clipped(self):
        series = series_with_mads([0.5, 0.3])
        result = select_subcarrier(series)
        assert len(result.candidates) == 2

    def test_mask_excludes_columns(self):
        series = series_with_mads([0.9, 0.5, 0.4, 0.3])
        mask = np.array([False, True, True, True])
        result = select_subcarrier(series, mask=mask)
        assert 0 not in result.candidates
        assert result.selected == 2  # median of (1, 2, 3) by MAD order

    def test_empty_mask_falls_back_to_all(self):
        series = series_with_mads([0.9, 0.5, 0.4])
        result = select_subcarrier(
            series, mask=np.zeros(3, dtype=bool)
        )
        assert result.selected in (0, 1, 2)

    def test_wrong_mask_shape_rejected(self):
        series = series_with_mads([0.9, 0.5, 0.4])
        with pytest.raises(ConfigurationError):
            select_subcarrier(series, mask=np.ones(5, dtype=bool))

    def test_on_simulated_trace(self, lab_trace):
        from repro.core.calibration import calibrate
        from repro.core.phase_difference import phase_difference

        calibrated = calibrate(
            phase_difference(lab_trace), lab_trace.sample_rate_hz
        )
        result = select_subcarrier(calibrated.series)
        assert 0 <= result.selected < 30
        assert result.selected in result.candidates
        assert result.sensitivities.shape == (30,)
