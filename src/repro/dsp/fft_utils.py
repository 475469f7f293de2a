"""FFT spectrum helpers and the Vital-Radio-style 3-bin frequency refinement.

PhaseBeat uses the FFT three ways:

* plain magnitude spectra for multi-person breathing estimation (Fig. 8);
* a band-limited peak search for the heart band (0.625–2.5 Hz);
* the frequency-refinement trick of Adib et al. (Vital-Radio): after locating
  the FFT peak, keep the peak bin and its two neighbours, inverse-FFT those
  three bins back to a complex time-domain signal, and read the frequency off
  the slope of its unwrapped phase.  That beats the raw bin resolution
  ``fs / N`` by an order of magnitude for a clean sinusoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..contracts import BoolArray, FloatArray
from ..errors import ConfigurationError, EstimationError, SignalTooShortError

__all__ = [
    "RfftPlan",
    "rfft_plan",
    "magnitude_spectrum",
    "band_mask",
    "dominant_frequency",
    "fundamental_frequency",
    "quadratic_peak_interpolation",
    "three_bin_phase_frequency",
    "spectral_peaks",
]


@dataclass(frozen=True)
class RfftPlan:
    """Cached per-(length, rate) rFFT bookkeeping.

    The streaming monitor computes a spectrum per hop over a fixed-length
    window at a fixed rate; the frequency grid never changes, yet the
    original path rebuilt it with ``np.fft.rfftfreq`` on every call.  A plan
    freezes the grid (the array is marked read-only — treat it as shared)
    and the derived constants.
    """

    n_fft: int
    sample_rate_hz: float
    freqs_hz: FloatArray

    @property
    def n_bins(self) -> int:
        """Number of one-sided spectrum bins (``n_fft // 2 + 1``)."""
        return self.freqs_hz.size


@lru_cache(maxsize=128)
def rfft_plan(n_fft: int, sample_rate_hz: float) -> RfftPlan:
    """The (cached) rFFT plan for ``n_fft`` samples at ``sample_rate_hz``.

    Keyed by (window length, sample rate) so hopped-window spectra reuse the
    frequency grid across hops instead of recomputing it.
    """
    if n_fft < 1:
        raise ConfigurationError(f"nfft must be >= 1, got {n_fft}")
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    freqs.flags.writeable = False
    return RfftPlan(n_fft=n_fft, sample_rate_hz=float(sample_rate_hz), freqs_hz=freqs)


def magnitude_spectrum(
    x: FloatArray, sample_rate_hz: float, *, nfft: int | None = None, detrend: bool = True
) -> tuple[FloatArray, FloatArray]:
    """One-sided FFT magnitude spectrum of a real series or of every column.

    A matrix is transformed along axis 0 in one ``np.fft.rfft`` call.  Its
    columns equal 1-D calls on them to float rounding, not bitwise: the
    vectorized transform takes a different code path.

    Args:
        x: 1-D real series or ``[n_samples × n_series]`` real matrix.
        sample_rate_hz: Sample rate in Hz.
        nfft: FFT length; defaults to ``n_samples`` (no zero padding).
        detrend: Subtract each series' mean first, so the DC bin does not
            mask low-frequency breathing peaks.

    Returns:
        ``(freqs, magnitude)``: ``nfft // 2 + 1`` frequencies and the
        magnitudes, ``[n_bins]`` for a series or ``[n_bins × n_series]`` for
        a matrix.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ConfigurationError(
            f"expected a 1-D series or 2-D matrix, got shape {x.shape}"
        )
    n_samples = x.shape[0]
    if n_samples < 2:
        raise SignalTooShortError(2, n_samples, "FFT input")
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    if detrend:
        x = x - x.mean(axis=0)
    n = int(nfft) if nfft is not None else n_samples
    if n < n_samples:
        raise ConfigurationError(f"nfft ({n}) shorter than the signal ({n_samples})")
    spectrum = np.fft.rfft(x, n=n, axis=0)
    freqs = rfft_plan(n, float(sample_rate_hz)).freqs_hz
    return freqs, np.abs(spectrum)


def _series_spectrum(
    x: FloatArray, sample_rate_hz: float, nfft: int | None
) -> tuple[FloatArray, FloatArray]:
    """:func:`magnitude_spectrum` of a 1-D series, for the peak pickers."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"expected a 1-D series, got shape {x.shape}")
    return magnitude_spectrum(x, sample_rate_hz, nfft=nfft)


def band_mask(
    freqs_hz: FloatArray, band: tuple[float, float] | None
) -> BoolArray:
    """Boolean mask selecting frequencies inside ``band`` (inclusive)."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    if band is None:
        return np.ones(freqs_hz.shape, dtype=bool)
    lo, hi = band
    if lo < 0 or hi <= lo:
        raise ConfigurationError(f"band must satisfy 0 <= lo < hi, got {band}")
    return (freqs_hz >= lo) & (freqs_hz <= hi)


def dominant_frequency(
    x: FloatArray,
    sample_rate_hz: float,
    *,
    band: tuple[float, float] | None = None,
    nfft: int | None = None,
    interpolate: bool = True,
) -> float:
    """Frequency of the largest spectral peak, optionally band-limited.

    With ``interpolate=True`` the raw bin frequency is refined by quadratic
    interpolation over the peak bin and its neighbours.
    """
    freqs, mag = _series_spectrum(x, sample_rate_hz, nfft)
    mask = band_mask(freqs, band)
    if not mask.any():
        raise EstimationError(f"no FFT bins inside the band {band}")
    idx = np.flatnonzero(mask)
    k = idx[np.argmax(mag[idx])]
    if not interpolate or k == 0 or k == mag.size - 1:
        return float(freqs[k])
    delta = quadratic_peak_interpolation(mag[k - 1], mag[k], mag[k + 1])
    bin_width = freqs[1] - freqs[0]
    return float(freqs[k] + delta * bin_width)


def fundamental_frequency(
    x: FloatArray,
    sample_rate_hz: float,
    *,
    band: tuple[float, float],
    nfft: int | None = None,
    subharmonic_ratio: float = 0.25,
) -> float:
    """Dominant frequency with octave-error (subharmonic) correction.

    The phase-of-sum nonlinearity can make the *second harmonic* of the
    breathing signal the tallest spectral line at unlucky static operating
    points.  As in pitch estimation, the cure is to check half the peak
    frequency: when the spectrum at ``f/2`` holds at least
    ``subharmonic_ratio`` of the peak magnitude (and lies in the band), the
    subharmonic is taken as the fundamental.  Applied recursively, so a
    dominant 4th harmonic also resolves down.

    Args:
        x: 1-D real series.
        sample_rate_hz: Sample rate in Hz.
        band: Admissible fundamental band.
        nfft: FFT length.
        subharmonic_ratio: Relative magnitude at f/2 that triggers the
            octave-down correction.

    Returns:
        The corrected fundamental frequency in Hz.
    """
    freqs, mag = _series_spectrum(x, sample_rate_hz, nfft)
    mask = band_mask(freqs, band)
    if not mask.any():
        raise EstimationError(f"no FFT bins inside the band {band}")
    idx = np.flatnonzero(mask)
    k = idx[np.argmax(mag[idx])]
    bin_width = freqs[1] - freqs[0]

    def local_peak(f: float) -> tuple[float, float]:
        """(peak frequency, 3-bin RMS energy) around ``f``.

        The energy is summed over ±1.5 bins so an off-grid line — whose
        single-bin magnitude is scalloped by up to ~36% — compares fairly
        against an on-grid one.
        """
        # ±1 bin: a true subharmonic sits at f/2 to sub-bin accuracy (the
        # worst case is a line split across two adjacent bins); any wider
        # and the search can adopt an unrelated nearby peak.
        lo = np.searchsorted(freqs, f - 1.02 * bin_width)
        hi = min(np.searchsorted(freqs, f + 1.02 * bin_width) + 1, mag.size)
        if lo >= hi:
            return f, 0.0
        j = lo + int(np.argmax(mag[lo:hi]))
        # The candidate must be a genuine spectral line, not the decaying
        # leakage skirt of a stronger line nearby: require a local maximum.
        if 0 < j < mag.size - 1 and not (
            mag[j] >= mag[j - 1] and mag[j] >= mag[j + 1]
        ):
            return float(freqs[j]), 0.0
        energy = float(np.sqrt(np.sum(mag[lo:hi] ** 2)))
        return float(freqs[j]), energy

    f_peak = float(freqs[k])
    _, peak_energy = local_peak(f_peak)
    # Noise floor: median 3-bin energy across the band, so a subharmonic
    # candidate must be a genuine line, not the local noise level.
    in_band_bins = np.flatnonzero(mask)
    floor_samples = [
        local_peak(float(freqs[j]))[1] for j in in_band_bins[:: max(1, in_band_bins.size // 16)]
    ]
    noise_floor = float(np.median(floor_samples)) if floor_samples else 0.0
    for _ in range(2):  # at most two octave corrections (4th harmonic)
        f_half, energy_half = local_peak(f_peak / 2.0)
        if (
            f_half >= band[0]
            and energy_half >= subharmonic_ratio * peak_energy
            and energy_half >= 2.0 * noise_floor
        ):
            f_peak, peak_energy = f_half, energy_half
        else:
            break
    # Final sub-bin refinement around the chosen line.
    j = int(np.argmin(np.abs(freqs - f_peak)))
    if 0 < j < mag.size - 1:
        delta = quadratic_peak_interpolation(mag[j - 1], mag[j], mag[j + 1])
        return float(freqs[j] + delta * bin_width)
    return float(freqs[j])


def quadratic_peak_interpolation(left: float, center: float, right: float) -> float:
    """Sub-bin peak offset in (-0.5, 0.5) from three magnitude samples.

    Fits a parabola through the three points and returns the abscissa of its
    vertex relative to the center bin.  Returns 0 for a degenerate (flat)
    triple.
    """
    denom = left - 2.0 * center + right
    if denom == 0.0:  # phaselint: disable=PL004 -- exact degenerate-parabola sentinel
        return 0.0
    delta = 0.5 * (left - right) / denom
    return float(np.clip(delta, -0.5, 0.5))


def three_bin_phase_frequency(
    x: FloatArray,
    sample_rate_hz: float,
    *,
    band: tuple[float, float],
    nfft: int | None = None,
) -> float:
    """Frequency estimate via the 3-bin inverse-FFT phase-slope method.

    Implements the refinement PhaseBeat borrows from Vital-Radio for heart
    rate (Section III-D1): locate the FFT peak inside ``band``, zero every
    bin except the peak and its two adjacent bins, inverse-FFT to obtain a
    complex (analytic-like) time-domain signal, and estimate the frequency
    from the mean slope of its unwrapped phase.

    Args:
        x: 1-D real series (e.g. the β₃+β₄ heart-band reconstruction).
        sample_rate_hz: Sample rate in Hz.
        band: Search band in Hz; mandatory because the method is only
            meaningful around an isolated peak.
        nfft: FFT length, defaulting to ``len(x)``.

    Returns:
        The refined peak frequency in Hz.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"expected a 1-D series, got shape {x.shape}")
    if x.size < 8:
        raise SignalTooShortError(8, x.size, "3-bin refinement input")
    n = int(nfft) if nfft is not None else x.size
    spectrum = np.fft.fft(x - x.mean(), n=n)
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    positive = freqs > 0
    mask = positive & band_mask(np.abs(freqs), band)
    if not mask.any():
        raise EstimationError(f"no FFT bins inside the band {band}")
    idx = np.flatnonzero(mask)
    k = idx[np.argmax(np.abs(spectrum[idx]))]
    lo = max(k - 1, 1)
    hi = min(k + 2, n)

    narrow = np.zeros(n, dtype=complex)
    narrow[lo:hi] = spectrum[lo:hi]
    s = np.fft.ifft(narrow)
    phase = np.unwrap(np.angle(s))
    slope = np.polyfit(np.arange(n), phase, 1)[0]
    return float(slope * sample_rate_hz / (2.0 * np.pi))


def spectral_peaks(
    x: FloatArray,
    sample_rate_hz: float,
    count: int,
    *,
    band: tuple[float, float] | None = None,
    nfft: int | None = None,
    min_separation_hz: float = 0.0,
) -> FloatArray:
    """Frequencies of the ``count`` largest local spectral maxima.

    The multi-person FFT baseline of Fig. 8 reads one breathing rate per
    spectral peak; ``min_separation_hz`` mimics its inability to resolve
    closely spaced rates by merging nearby candidates.

    Returns:
        Peak frequencies sorted ascending; may contain fewer than ``count``
        entries when the spectrum has fewer local maxima.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    freqs, mag = _series_spectrum(x, sample_rate_hz, nfft)
    mask = band_mask(freqs, band)
    # A local maximum that also lies in the band.
    local = np.zeros(mag.size, dtype=bool)
    local[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidates = np.flatnonzero(local & mask & (mag > 0))
    if candidates.size == 0:
        return np.empty(0, dtype=float)
    order = candidates[np.argsort(mag[candidates])[::-1]]
    chosen: list[int] = []
    for k in order:
        if len(chosen) == count:
            break
        if all(abs(freqs[k] - freqs[j]) >= min_separation_hz for j in chosen):
            chosen.append(k)
    bin_width = freqs[1] - freqs[0]
    refined = []
    for k in chosen:
        if 0 < k < mag.size - 1:
            delta = quadratic_peak_interpolation(mag[k - 1], mag[k], mag[k + 1])
        else:
            delta = 0.0
        refined.append(freqs[k] + delta * bin_width)
    return np.sort(np.asarray(refined, dtype=float))
