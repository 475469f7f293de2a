"""Breathing Rate Estimation (paper Section III-C).

Three estimators:

* :func:`peak_breathing_bpm` — the paper's single-person method: peak
  detection on the DWT approximation, rate = 60 / mean peak-to-peak
  interval.  Chosen over FFT because the FFT bin width at realistic window
  lengths is coarser than the accuracy target.
* :func:`fft_breathing_bpm` — the multi-person baseline of Fig. 8: one
  rate per spectral peak; fails when rates are closer than the Rayleigh
  resolution.
* :func:`music_breathing_bpm` — the paper's multi-person method:
  root-MUSIC over the calibrated subcarrier matrix (Eq. 11–12), resolving
  rates the FFT cannot.
"""

from __future__ import annotations

import numpy as np

from ..contracts import FloatArray
from ..dsp.fft_utils import fundamental_frequency, spectral_peaks
from ..dsp.music import estimate_frequencies
from ..dsp.peaks import find_peaks, robust_peak_interval
from ..errors import ConfigurationError, EstimationError

__all__ = [
    "BREATHING_SEARCH_BAND_HZ",
    "MIN_PROMINENCE_FACTOR",
    "MUSIC_DECIMATION",
    "fft_breathing_bpm",
    "music_breathing_bpm",
    "peak_breathing_bpm",
]

#: Admissible breathing band (Hz): the paper cites 0.17–0.62 Hz for adult
#: breathing; the search band is slightly wider to avoid clipping estimates
#: at the edges.
BREATHING_SEARCH_BAND_HZ = (0.1, 0.7)
#: Peaks must rise above the window median by this fraction of the series'
#: overall standard deviation; damps fake peaks on near-flat segments.
MIN_PROMINENCE_FACTOR = 0.2
#: Post-analytic decimation before root-MUSIC's subspace step: at a 20 Hz
#: processing rate a factor of 10 stretches the subspace aperture enough to
#: split rates 0.025 Hz apart.
MUSIC_DECIMATION = 10


def _check_n_persons(n_persons: int) -> None:
    if n_persons < 1:
        raise ConfigurationError(f"n_persons must be >= 1, got {n_persons}")


def peak_breathing_bpm(breathing_signal: FloatArray, sample_rate_hz: float) -> float:
    """Single-person breathing rate (breaths/min) from the DWT breathing band.

    The dominance window is matched to a coarse FFT pre-estimate of the
    breathing period, so fast breathers don't lose true peaks to an
    over-long window and slow breathers don't admit fake ones — the final
    rate still comes from peak-to-peak timing, which is what beats the raw
    FFT resolution.

    Raises:
        EstimationError: If fewer than two true peaks are found.
    """
    breathing_signal = np.asarray(breathing_signal, dtype=float)
    f0 = fundamental_frequency(
        breathing_signal, sample_rate_hz, band=BREATHING_SEARCH_BAND_HZ
    )
    # 1.2× the pre-estimated period: the dominance radius (half the window)
    # then exceeds half a period, so the secondary crest a strong 2nd
    # harmonic adds mid-cycle is suppressed, while true peaks one full
    # period apart always survive.
    period_samples = sample_rate_hz / max(f0, 1e-6)
    window = int(np.clip(round(1.2 * period_samples) | 1, 25, 121))
    prominence = MIN_PROMINENCE_FACTOR * float(np.std(breathing_signal))
    peaks = find_peaks(breathing_signal, window=window, min_prominence=prominence)
    period = robust_peak_interval(peaks, sample_rate_hz)
    return 60.0 / period


def fft_breathing_bpm(
    signal: FloatArray, sample_rate_hz: float, n_persons: int
) -> FloatArray:
    """Breathing rates (bpm, ascending) from FFT magnitude peaks (the foil).

    May return fewer rates than requested when the spectrum shows fewer
    peaks — exactly the failure mode of Fig. 8's three-person panel.  A
    matrix input is read through its strongest column.
    """
    _check_n_persons(n_persons)
    signal = np.asarray(signal, dtype=float)
    if signal.ndim == 2:
        signal = signal[:, int(np.argmax(np.std(signal, axis=0)))]
    freqs = spectral_peaks(
        signal, sample_rate_hz, n_persons, band=BREATHING_SEARCH_BAND_HZ
    )
    if freqs.size == 0:
        raise EstimationError("no spectral peaks inside the breathing band")
    return 60.0 * freqs


def music_breathing_bpm(
    series: FloatArray, sample_rate_hz: float, n_persons: int
) -> FloatArray:
    """Breathing rates (bpm, ascending) via root-MUSIC (paper Eq. 11–12).

    Args:
        series: Either the full calibrated subcarrier matrix
            ``(n_samples, 30)`` — the paper's 30-subcarrier variant — or
            a single series (the single-subcarrier ablation of Fig. 14).
        sample_rate_hz: Rate of the series.
        n_persons: Number of rates to recover.
    """
    _check_n_persons(n_persons)
    freqs = estimate_frequencies(
        series,
        n_persons,
        sample_rate_hz,
        band=BREATHING_SEARCH_BAND_HZ,
        decimation=MUSIC_DECIMATION,
    )
    if freqs.size == 0:
        raise EstimationError("root-MUSIC returned no admissible rates")
    return 60.0 * freqs
