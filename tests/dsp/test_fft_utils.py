"""Unit tests for spectrum helpers and frequency refinement."""

import numpy as np
import pytest

from repro.dsp.fft_utils import (
    band_mask,
    dominant_frequency,
    magnitude_spectrum,
    quadratic_peak_interpolation,
    spectral_peaks,
    three_bin_phase_frequency,
)
from repro.errors import ConfigurationError, EstimationError, SignalTooShortError


def tone(freq, fs, n, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


class TestMagnitudeSpectrum:
    def test_shapes(self):
        freqs, mag = magnitude_spectrum(tone(1.0, 20.0, 200), 20.0)
        assert freqs.shape == mag.shape == (101,)
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(10.0)

    def test_tone_peaks_at_right_bin(self):
        freqs, mag = magnitude_spectrum(tone(2.0, 20.0, 400), 20.0)
        assert freqs[np.argmax(mag)] == pytest.approx(2.0)

    def test_detrend_removes_dc(self):
        x = tone(2.0, 20.0, 400) + 100.0
        _, mag = magnitude_spectrum(x, 20.0, detrend=True)
        assert mag[0] == pytest.approx(0.0, abs=1e-6)

    def test_zero_padding(self):
        freqs, _ = magnitude_spectrum(tone(1.0, 20.0, 100), 20.0, nfft=1000)
        assert freqs.size == 501

    def test_nfft_shorter_than_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            magnitude_spectrum(np.zeros(100), 20.0, nfft=50)

    def test_too_short_rejected(self):
        with pytest.raises(SignalTooShortError):
            magnitude_spectrum(np.zeros(1), 20.0)

    def test_rejects_3d(self):
        with pytest.raises(ConfigurationError):
            magnitude_spectrum(np.zeros((100, 2, 2)), 20.0)

    def test_peak_pickers_take_one_series(self):
        # The spectrum takes a column matrix; the pickers built on it do not.
        matrix = np.column_stack([tone(1.0, 20.0, 200), tone(2.0, 20.0, 200)])
        with pytest.raises(ConfigurationError):
            dominant_frequency(matrix, 20.0)
        with pytest.raises(ConfigurationError):
            spectral_peaks(matrix, 20.0, 2)


class TestBandMask:
    def test_none_selects_everything(self):
        freqs = np.linspace(0, 10, 11)
        assert band_mask(freqs, None).all()

    def test_inclusive_bounds(self):
        freqs = np.array([0.0, 1.0, 2.0, 3.0])
        mask = band_mask(freqs, (1.0, 2.0))
        assert mask.tolist() == [False, True, True, False]

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigurationError):
            band_mask(np.array([1.0]), (2.0, 1.0))


class TestDominantFrequency:
    def test_exact_bin(self):
        f = dominant_frequency(tone(2.0, 20.0, 400), 20.0)
        assert f == pytest.approx(2.0, abs=1e-6)

    def test_off_bin_interpolation(self):
        # 0.273 Hz falls between bins for a 30 s window; interpolation
        # must land within a tenth of the bin width.
        f = dominant_frequency(tone(0.273, 20.0, 600), 20.0, band=(0.1, 0.7))
        assert f == pytest.approx(0.273, abs=0.01)

    def test_band_restriction_skips_stronger_out_of_band_tone(self):
        x = tone(0.25, 20.0, 600) + 5.0 * tone(3.0, 20.0, 600)
        f = dominant_frequency(x, 20.0, band=(0.1, 0.7))
        assert f == pytest.approx(0.25, abs=0.01)

    def test_empty_band_raises(self):
        with pytest.raises(EstimationError):
            dominant_frequency(tone(1.0, 20.0, 100), 20.0, band=(9.99, 9.995))


class TestQuadraticInterpolation:
    def test_symmetric_peak_gives_zero_offset(self):
        assert quadratic_peak_interpolation(1.0, 2.0, 1.0) == 0.0

    def test_skewed_peak_shifts_toward_larger_neighbor(self):
        assert quadratic_peak_interpolation(1.0, 2.0, 1.5) > 0
        assert quadratic_peak_interpolation(1.5, 2.0, 1.0) < 0

    def test_flat_triple_returns_zero(self):
        assert quadratic_peak_interpolation(2.0, 2.0, 2.0) == 0.0

    def test_offset_clipped_to_half_bin(self):
        assert abs(quadratic_peak_interpolation(0.0, 1.0, 1.0 - 1e-12)) <= 0.5


class TestThreeBinPhaseFrequency:
    def test_beats_bin_resolution(self):
        fs, n = 20.0, 600  # bin width 1/30 s = 0.033 Hz
        true_f = 1.071
        f = three_bin_phase_frequency(tone(true_f, fs, n), fs, band=(0.625, 2.5))
        assert f == pytest.approx(true_f, abs=0.005)

    def test_with_noise(self, rng):
        fs, n = 20.0, 1200
        x = tone(1.07, fs, n) + 0.2 * rng.normal(size=n)
        f = three_bin_phase_frequency(x, fs, band=(0.625, 2.5))
        assert f == pytest.approx(1.07, abs=0.02)

    def test_too_short_rejected(self):
        with pytest.raises(SignalTooShortError):
            three_bin_phase_frequency(np.zeros(4), 20.0, band=(0.5, 2.0))

    def test_empty_band_rejected(self):
        with pytest.raises(EstimationError):
            three_bin_phase_frequency(
                tone(1.0, 20.0, 100), 20.0, band=(9.99, 9.999)
            )


class TestSpectralPeaks:
    def test_finds_two_separated_tones(self):
        x = tone(0.2, 20.0, 1200) + tone(0.3, 20.0, 1200)
        peaks = spectral_peaks(x, 20.0, 2, band=(0.1, 0.7))
        assert peaks.size == 2
        assert peaks[0] == pytest.approx(0.2, abs=0.01)
        assert peaks[1] == pytest.approx(0.3, abs=0.01)

    def test_rayleigh_limited_merge(self):
        # Two tones 0.02 Hz apart over a 25 s window (resolution 0.04 Hz)
        # appear as one peak — the Fig. 8 failure mode.
        fs, n = 20.0, 500
        x = tone(0.22, fs, n) + tone(0.24, fs, n)
        peaks = spectral_peaks(x, fs, 2, band=(0.1, 0.7))
        assert peaks.size < 2 or abs(peaks[1] - peaks[0]) > 0.05

    def test_min_separation_merges_close_candidates(self):
        x = tone(0.2, 20.0, 2400) + tone(0.22, 20.0, 2400)
        unconstrained = spectral_peaks(x, 20.0, 2, band=(0.1, 0.7))
        constrained = spectral_peaks(
            x, 20.0, 2, band=(0.1, 0.7), min_separation_hz=0.05
        )
        assert unconstrained.size == 2
        assert constrained.size == 1 or (constrained[1] - constrained[0]) >= 0.05

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            spectral_peaks(np.zeros(100), 20.0, 0)

    def test_returns_sorted(self):
        x = 2 * tone(0.4, 20.0, 1200) + tone(0.2, 20.0, 1200)
        peaks = spectral_peaks(x, 20.0, 2, band=(0.1, 0.7))
        assert np.all(np.diff(peaks) > 0)
