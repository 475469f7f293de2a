"""Heart Rate Estimation (paper Section III-D).

The heart signal is orders of magnitude weaker than breathing and sits under
breathing harmonics, so the estimator works on the DWT detail band β₃+β₄
(0.625–2.5 Hz at 20 Hz), which excludes both the breathing fundamental
(0.17–0.62 Hz) and high-frequency noise.  The rate is read from the FFT
peak, refined with the Vital-Radio 3-bin inverse-FFT phase method to beat
the raw bin resolution.
"""

from __future__ import annotations

import numpy as np

from ..contracts import BoolArray, FloatArray
from ..dsp.fft_utils import (
    band_mask,
    magnitude_spectrum,
    quadratic_peak_interpolation,
    three_bin_phase_frequency,
)
from ..errors import ConfigurationError, EstimationError

__all__ = [
    "HARMONIC_TOLERANCE_HZ",
    "HEART_SEARCH_BAND_HZ",
    "MAX_HARMONIC_ORDER",
    "MIN_PEAK_SNR",
    "fft_heart_bpm",
]

#: Admissible heart band: the DWT detail band is 0.625–2.5 Hz; resting human
#: heart rates occupy 0.8–2.0 Hz, and restricting the peak search to that
#: range keeps residual breathing harmonics (2·f_b ≤ 1.24 Hz is
#: unavoidable, but 0.7 Hz thirds are excluded) from capturing the peak.
HEART_SEARCH_BAND_HZ = (0.8, 2.0)
#: Minimum ratio of the peak magnitude to the median in-band magnitude;
#: below it the band is declared signal-free.
MIN_PEAK_SNR = 1.5
#: Half-width of the notch skipped around each breathing harmonic k·f_b.
HARMONIC_TOLERANCE_HZ = 0.04
#: Highest breathing harmonic order k the notches cover.
MAX_HARMONIC_ORDER = 6


def fft_heart_bpm(
    heart_signal: FloatArray,
    sample_rate_hz: float,
    *,
    breathing_rate_hz: float | None = None,
) -> float:
    """Heart rate in beats/min from the DWT heart band.

    The band-limited FFT peak is refined with the 3-bin inverse-FFT
    phase-slope method.

    Args:
        heart_signal: The β₃+β₄ reconstruction.
        sample_rate_hz: Its sample rate.
        breathing_rate_hz: The (already estimated) breathing frequency.
            When given, bins near the breathing harmonics k·f_b
            (k = 2…:data:`MAX_HARMONIC_ORDER`) are skipped and the
            remaining peaks are scored by comb symmetry (see
            :func:`_masked_peak`).  The phase-of-sum nonlinearity puts a
            comb of breathing harmonics into the heart band that can exceed
            the weak heart peak; knowing f_b precisely makes them
            avoidable.  (Known failure mode, shared with the paper: a heart
            rate within the notch of a breathing harmonic is lost — this is
            where the paper's ~10 bpm worst-case errors live.)

    Raises:
        EstimationError: If no sufficiently dominant peak exists in the
            band (e.g. omnidirectional TX at long range, where the paper
            does not attempt heart estimation either).
    """
    heart_signal = np.asarray(heart_signal, dtype=float)
    if heart_signal.ndim != 1:
        raise ConfigurationError(
            f"expected the 1-D heart-band series, got {heart_signal.shape}"
        )
    freqs, mag = magnitude_spectrum(heart_signal, sample_rate_hz)
    in_band = band_mask(freqs, HEART_SEARCH_BAND_HZ)
    if not in_band.any():
        raise EstimationError(
            f"no FFT bins inside the heart band {HEART_SEARCH_BAND_HZ}"
        )
    floor = float(np.median(mag[in_band]))
    peak = float(mag[in_band].max())
    if floor > 0 and peak / floor < MIN_PEAK_SNR:
        raise EstimationError(
            f"heart band peak SNR {peak / floor:.2f} below "
            f"{MIN_PEAK_SNR}; no detectable heartbeat"
        )
    peak_hz = _masked_peak(freqs, mag, in_band, breathing_rate_hz)
    # Refine only in a narrow window around the chosen peak, so the 3-bin
    # step cannot jump back onto a masked harmonic.
    narrow = (max(HEART_SEARCH_BAND_HZ[0], peak_hz - 0.08), peak_hz + 0.08)
    freq = three_bin_phase_frequency(heart_signal, sample_rate_hz, band=narrow)
    return 60.0 * float(freq)


def _masked_peak(
    freqs_hz: FloatArray,
    mag: FloatArray,
    in_band: BoolArray,
    breathing_rate_hz: float | None,
) -> float:
    """Heart carrier frequency from the in-band FFT peaks.

    Bins near breathing harmonics (k·f_b) are skipped; the remaining
    candidate peaks are then scored by *comb symmetry*.  Chest motion
    phase-modulates the heart tone with the breathing waveform, so the
    spectrum around the heart carrier is an AM/PM comb ``f_h ± k·f_b``
    whose sidebands can exceed the carrier at high modulation index —
    the naive "largest peak" then returns a sideband, off by a multiple
    of the breathing rate (exactly the failure that produces ~30 bpm
    errors).  Sidebands sit *symmetrically* around the carrier and
    asymmetrically around each other, so the candidate maximizing
    ``mag(f) + Σ_k min(mag(f+k·f_b), mag(f−k·f_b))`` is the carrier.

    Falls back to the plain masked peak when no breathing rate is
    available, and to the unmasked peak when masking empties the band.
    """
    bin_width = freqs_hz[1] - freqs_hz[0]
    mask = in_band.copy()
    f_b = breathing_rate_hz if breathing_rate_hz else None
    if f_b:
        for k in range(2, MAX_HARMONIC_ORDER + 1):
            f_h = k * f_b
            if f_h > HEART_SEARCH_BAND_HZ[1] + HARMONIC_TOLERANCE_HZ:
                break
            mask &= np.abs(freqs_hz - f_h) > HARMONIC_TOLERANCE_HZ
    if not mask.any():
        mask = in_band
    idx = np.flatnonzero(mask)

    def refine(k: int) -> float:
        delta = 0.0
        if 0 < k < mag.size - 1:
            delta = quadratic_peak_interpolation(mag[k - 1], mag[k], mag[k + 1])
        return float(freqs_hz[k] + delta * bin_width)

    if not f_b:
        return refine(idx[np.argmax(mag[idx])])

    def mag_near(f: float) -> float:
        lo = np.searchsorted(freqs_hz, f - 1.5 * bin_width)
        hi = np.searchsorted(freqs_hz, f + 1.5 * bin_width) + 1
        if lo >= mag.size or hi <= 0 or lo >= hi:
            return 0.0
        return float(mag[lo:hi].max())

    # Candidate peaks: local maxima among the masked in-band bins.
    local = np.zeros(mag.size, dtype=bool)
    local[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidates = idx[local[idx]]
    if candidates.size == 0:
        candidates = idx
    order = candidates[np.argsort(mag[candidates])[::-1][:6]]
    best_k, best_score = None, -np.inf
    for k in order:
        f = float(freqs_hz[k])
        score = float(mag[k])
        for m in (1, 2):
            score += min(mag_near(f + m * f_b), mag_near(f - m * f_b))
        if score > best_score:
            best_score = score
            best_k = k
    return refine(int(best_k))
