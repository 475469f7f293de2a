"""Unit tests for the DWT band-splitting stage."""

import numpy as np
import pytest

from repro.core.dwt_stage import DWTConfig, decompose
from repro.errors import ConfigurationError


def mixed_signal(fs=20.0, n=1200, f_breath=0.25, f_heart=1.07):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * f_breath * t) + 0.1 * np.sin(2 * np.pi * f_heart * t)


class TestDecompose:
    def test_paper_bands(self):
        bands = decompose(mixed_signal(), 20.0)
        assert bands.breathing_band_hz == (0.0, 0.625)
        assert bands.heart_band_hz == (0.625, 2.5)

    def test_band_split_energies(self):
        fs = 20.0
        n = 2400
        t = np.arange(n) / fs
        breath = np.sin(2 * np.pi * 0.25 * t)
        heart = 0.1 * np.sin(2 * np.pi * 1.07 * t)
        bands = decompose(breath + heart, fs)
        # Breathing band: dominated by the 0.25 Hz tone.
        breath_corr = np.corrcoef(bands.breathing, breath)[0, 1]
        assert breath_corr > 0.99
        # Heart band: correlates with the heart tone, not breathing.
        heart_corr = np.corrcoef(bands.heart, heart)[0, 1]
        assert heart_corr > 0.8
        assert abs(np.corrcoef(bands.heart, breath)[0, 1]) < 0.1

    def test_reconstruction_lengths(self):
        signal = mixed_signal(n=777)
        bands = decompose(signal, 20.0)
        assert bands.breathing.size == 777
        assert bands.heart.size == 777

    def test_custom_level_and_wavelet(self):
        config = DWTConfig(wavelet="db2", level=3, heart_detail_levels=(2, 3))
        bands = decompose(mixed_signal(), 20.0, config)
        assert bands.breathing_band_hz == (0.0, 1.25)
        assert bands.decomposition.level == 3

    def test_rejects_3d(self):
        # A 2-D input is a column matrix; anything deeper is an error.
        with pytest.raises(ConfigurationError):
            decompose(np.zeros((100, 2, 2)), 20.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DWTConfig(level=0)
        with pytest.raises(ConfigurationError):
            DWTConfig(level=3, heart_detail_levels=(4,))
