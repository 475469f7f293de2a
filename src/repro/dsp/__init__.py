"""Signal-processing substrate for the PhaseBeat reproduction.

Everything in this package is WiFi-agnostic: robust statistics, Hampel
filtering, decimation, peak detection, FFT helpers, a from-scratch Daubechies
DWT, and root-MUSIC.  The :mod:`repro.core` pipeline composes these into the
paper's processing chain.
"""

from .fft_utils import (
    dominant_frequency,
    fundamental_frequency,
    magnitude_spectrum,
    quadratic_peak_interpolation,
    spectral_peaks,
    three_bin_phase_frequency,
)
from .hampel import hampel_filter, rolling_median
from .music import estimate_frequencies as root_music_estimate
from .peaks import find_peaks, mean_peak_interval, peak_rate_bpm
from .resample import ReclockedSeries, decimate, downsampled_rate, reclock
from .stft import Spectrogram, stft_bandpass, stft_spectrogram, track_rate
from .stats import (
    angular_sector_width,
    circular_mean,
    circular_resultant_length,
    circular_std,
    circular_variance,
    mean_absolute_deviation,
    median_absolute_deviation,
)
from .wavelet import (
    Wavelet,
    WaveletDecomposition,
    coefficient_band,
    daubechies_filter,
    dwt,
    dwt_max_level,
    idwt,
    make_wavelet,
    reconstruct_band,
    wavedec,
    waverec,
)

__all__ = [
    "angular_sector_width",
    "circular_mean",
    "circular_resultant_length",
    "circular_std",
    "circular_variance",
    "coefficient_band",
    "daubechies_filter",
    "decimate",
    "dominant_frequency",
    "downsampled_rate",
    "fundamental_frequency",
    "dwt",
    "dwt_max_level",
    "estimate_frequencies",
    "find_peaks",
    "hampel_filter",
    "idwt",
    "magnitude_spectrum",
    "make_wavelet",
    "mean_absolute_deviation",
    "mean_peak_interval",
    "median_absolute_deviation",
    "peak_rate_bpm",
    "quadratic_peak_interpolation",
    "reclock",
    "ReclockedSeries",
    "reconstruct_band",
    "rolling_median",
    "root_music_estimate",
    "spectral_peaks",
    "Spectrogram",
    "stft_bandpass",
    "stft_spectrogram",
    "three_bin_phase_frequency",
    "track_rate",
    "wavedec",
    "waverec",
    "Wavelet",
    "WaveletDecomposition",
]

from .music import estimate_frequencies  # noqa: E402  (re-export under full name)
