"""Deterministic per-window features for the learned estimator track.

One CSI window becomes one fixed-length real vector.  The catalogue mixes
three kinds of evidence the classical chain uses only partially:

* **pooled spectral evidence** — the classical chain estimates from a few
  *selected* subcarriers; pooling magnitude spectra across *all* eligible
  columns is markedly more robust when heavy packet loss or through-wall
  attenuation makes any single subcarrier unreliable;
* **cross-subcarrier agreement** — the median and spread of per-column
  peak frequencies tell the model when the spectral vote is unanimous
  (trust the peak) versus scattered (fall back on pooled/autocorrelation
  evidence);
* **envelope statistics** — breathing-envelope depth and quiet-run length,
  the apnea cues :mod:`repro.core.apnea` thresholds by hand.

Everything is computed with the batched DSP kernels from
:mod:`repro.dsp.fft_utils` (one vectorized FFT per window, cached plans)
and is a pure function of the input window — no RNG, no wall clock — so a
feature matrix is byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from ..contracts import BoolArray, FloatArray, check_matrix, check_trace
from ..core.breathing import BREATHING_SEARCH_BAND_HZ
from ..core.pipeline import prepare_calibrated_matrix
from ..dsp.fft_utils import band_mask, magnitude_spectrum
from ..errors import ConfigurationError, EstimationError
from ..io_.trace import CSITrace

__all__ = [
    "FEATURE_NAMES",
    "MIN_ELIGIBLE_FRACTION",
    "MIN_SAMPLES",
    "QUIET_THRESHOLD_FRACTION",
    "matrix_features",
    "window_features",
]

# The fixed feature catalogue, in output order.  docs/learned.md documents
# each entry; the serialized model bundle embeds this tuple so an artifact
# trained against one catalogue refuses to serve another.
FEATURE_NAMES: tuple[str, ...] = (
    "pooled_peak_hz",
    "octave_peak_hz",
    "pooled_prominence_ratio",
    "vote_median_hz",
    "vote_spread_hz",
    "weighted_peak_hz",
    "harmonic_ratio",
    "subharmonic_ratio",
    "autocorr_peak_hz",
    "band_power_fraction",
    "spectral_entropy_norm",
    "motion_level",
    "motion_top_fraction",
    "envelope_min_ratio",
    "envelope_low_fraction",
    "quiet_run_s",
    "eligible_fraction",
    "window_duration_s",
    "window_rate_hz",
)

# Minimum FFT length (see _nfft_for).
_NFFT_MIN = 1024
# Sliding-RMS window of the breathing envelope.
_ENVELOPE_WINDOW_S = 4.0
# Minimum calibrated samples per window; shorter windows raise
# EstimationError so the serving rung degrades instead of guessing.
MIN_SAMPLES = 64
# Minimum fraction of quality-eligible subcarrier columns; below it the
# window counts as too degraded to featurize.
MIN_ELIGIBLE_FRACTION = 0.05
# Envelope fraction of its median below which a sample counts as "quiet"
# (apnea cue).
QUIET_THRESHOLD_FRACTION = 0.3


def _nfft_for(n_samples: int) -> int:
    """FFT length: next power of two >= both the window and ``_NFFT_MIN``."""
    n = max(_NFFT_MIN, int(n_samples))
    return 1 << (n - 1).bit_length()


def _moving_rms(x: FloatArray, window_samples: int) -> FloatArray:
    """Sliding-RMS envelope via cumulative sums (same length as ``x``)."""
    w = max(1, min(int(window_samples), x.size))
    padded = np.concatenate([np.zeros(1), np.cumsum(x * x)])
    # Right-aligned window, clamped at the left edge.
    hi = np.arange(1, x.size + 1)
    lo = np.maximum(hi - w, 0)
    return np.sqrt((padded[hi] - padded[lo]) / (hi - lo))


def _longest_true_run(mask: BoolArray) -> int:
    """Length of the longest consecutive ``True`` run."""
    best = 0
    run = 0
    for flag in mask.tolist():
        run = run + 1 if flag else 0
        if run > best:
            best = run
    return best


def _interp_peak_hz(
    freqs_hz: FloatArray, magnitude: FloatArray, peak_index: int
) -> float:
    """Quadratic-interpolated frequency of a spectral peak bin."""
    k = int(peak_index)
    if k <= 0 or k >= magnitude.size - 1:
        return float(freqs_hz[k])
    left, center, right = (
        float(magnitude[k - 1]),
        float(magnitude[k]),
        float(magnitude[k + 1]),
    )
    denominator = left - 2.0 * center + right
    if denominator >= 0.0:
        return float(freqs_hz[k])
    delta = 0.5 * (left - right) / denominator
    bin_width = float(freqs_hz[1] - freqs_hz[0])
    return float(freqs_hz[k] + delta * bin_width)


def _autocorr_peak_hz(
    pooled: FloatArray, sample_rate_hz: float, band_hz: tuple[float, float]
) -> float:
    """Breathing-rate candidate from the first autocorrelation peak."""
    x = pooled - pooled.mean()
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, n=nfft)
    ac = np.fft.irfft(spectrum * np.conj(spectrum), n=nfft)[:n]
    lo_lag = max(1, int(round(sample_rate_hz / band_hz[1])))
    hi_lag = min(n - 1, int(round(sample_rate_hz / band_hz[0])))
    if hi_lag <= lo_lag:
        return 0.0
    lags = np.arange(lo_lag, hi_lag + 1)
    k = int(lags[np.argmax(ac[lo_lag : hi_lag + 1])])
    if ac[k] <= 0:
        return 0.0
    return float(sample_rate_hz / k)


@check_matrix("matrix")
def matrix_features(
    matrix: FloatArray,
    sample_rate_hz: float,
    *,
    quality: BoolArray | None = None,
) -> FloatArray:
    """Featurize one calibrated ``[n_samples x n_columns]`` window.

    Args:
        matrix: Calibrated phase-difference (or synthetic) series, one
            column per subcarrier stream.
        sample_rate_hz: Post-calibration sample rate.
        quality: Optional per-column eligibility mask (ineligible columns
            are excluded from every statistic).

    Returns:
        A 1-D float vector aligned with :data:`FEATURE_NAMES`.

    Raises:
        EstimationError: When the window is too short or too degraded to
            featurize (the serving rung treats this as "no estimate").
    """
    n_samples, n_columns = matrix.shape
    if n_samples < MIN_SAMPLES:
        raise EstimationError(
            f"window too short for learned features: {n_samples} samples "
            f"< {MIN_SAMPLES}"
        )
    if sample_rate_hz <= 0:
        raise ConfigurationError(
            f"sample rate must be positive, got {sample_rate_hz}"
        )
    if quality is None:
        eligible = np.ones(n_columns, dtype=bool)
    else:
        if quality.shape != (n_columns,):
            raise ConfigurationError(
                f"quality mask shape {quality.shape} does not match "
                f"{n_columns} columns"
            )
        eligible = np.asarray(quality, dtype=bool).copy()
    eligible &= np.all(np.isfinite(matrix), axis=0)
    eligible &= matrix.std(axis=0) > 0
    eligible_fraction = float(eligible.mean())
    if eligible_fraction < MIN_ELIGIBLE_FRACTION or not eligible.any():
        raise EstimationError(
            f"window quality too low for learned features: only "
            f"{eligible_fraction:.0%} of columns eligible"
        )

    columns = matrix[:, eligible]
    nfft = _nfft_for(n_samples)
    freqs, mags = magnitude_spectrum(columns, sample_rate_hz, nfft=nfft)
    in_band = band_mask(freqs, BREATHING_SEARCH_BAND_HZ)
    if not in_band.any():
        raise EstimationError(
            f"no FFT bins inside the breathing band {BREATHING_SEARCH_BAND_HZ}"
        )
    band_indices = np.flatnonzero(in_band)
    band_freqs = freqs[band_indices]
    band_mags = mags[band_indices, :]

    # Robust per-column motion scale (median absolute deviation).
    deviations = np.abs(columns - np.median(columns, axis=0, keepdims=True))
    sensitivities = np.median(deviations, axis=0)
    total_sensitivity = float(sensitivities.sum())
    if total_sensitivity <= 0:
        raise EstimationError("window carries no motion energy")
    weights = sensitivities / total_sensitivity

    pooled_full = mags.mean(axis=1)
    pooled = pooled_full[band_indices]
    peak_band_index = int(np.argmax(pooled))
    peak_index = int(band_indices[peak_band_index])
    peak_magnitude = float(pooled[peak_band_index])
    pooled_peak_hz = _interp_peak_hz(freqs, pooled_full, peak_index)
    median_band = float(np.median(pooled))
    pooled_prominence_ratio = peak_magnitude / max(median_band, 1e-12)

    # Octave correction: chest-motion spectra are often harmonic-dominant
    # (the path-length nonlinearity pumps energy into 2f), so when half
    # the peak frequency still lies in-band and carries substantial
    # energy, the subharmonic is the better fundamental candidate.
    octave_peak_hz = pooled_peak_hz
    half_hz = 0.5 * pooled_peak_hz
    if half_hz >= BREATHING_SEARCH_BAND_HZ[0]:
        half_magnitude = float(np.interp(half_hz, freqs, pooled_full))
        if half_magnitude >= 0.25 * peak_magnitude:
            octave_peak_hz = half_hz

    votes_hz = band_freqs[np.argmax(band_mags, axis=0)]
    vote_median_hz = float(np.median(votes_hz))
    q75, q25 = np.percentile(votes_hz, [75.0, 25.0])
    vote_spread_hz = float(q75 - q25)

    weighted = band_mags @ weights
    weighted_peak_index = int(band_indices[int(np.argmax(weighted))])
    weighted_peak_hz = _interp_peak_hz(
        freqs, mags @ weights, weighted_peak_index
    )

    harmonic_ratio = float(
        np.interp(2.0 * pooled_peak_hz, freqs, pooled_full)
        / max(peak_magnitude, 1e-12)
    )
    subharmonic_ratio = float(
        np.interp(0.5 * pooled_peak_hz, freqs, pooled_full)
        / max(peak_magnitude, 1e-12)
    )

    pooled_series = columns @ weights
    autocorr_peak_hz = _autocorr_peak_hz(
        pooled_series, sample_rate_hz, BREATHING_SEARCH_BAND_HZ
    )

    spectral_power = pooled_full[1:]  # exclude DC
    band_power_fraction = float(
        pooled.sum() / max(float(spectral_power.sum()), 1e-12)
    )
    probabilities = pooled / max(float(pooled.sum()), 1e-12)
    nonzero = probabilities[probabilities > 0]
    spectral_entropy_norm = float(
        -(nonzero * np.log(nonzero)).sum() / np.log(max(pooled.size, 2))
    )

    motion_level = float(sensitivities.mean())
    motion_top_fraction = float(sensitivities.max() / total_sensitivity)

    envelope = _moving_rms(
        pooled_series - pooled_series.mean(),
        int(round(_ENVELOPE_WINDOW_S * sample_rate_hz)),
    )
    envelope_median = float(np.median(envelope))
    envelope_min_ratio = float(
        np.percentile(envelope, 5.0) / max(envelope_median, 1e-12)
    )
    quiet = envelope < QUIET_THRESHOLD_FRACTION * envelope_median
    envelope_low_fraction = float(quiet.mean())
    quiet_run_s = _longest_true_run(quiet) / float(sample_rate_hz)

    vector = np.array(
        [
            pooled_peak_hz,
            octave_peak_hz,
            pooled_prominence_ratio,
            vote_median_hz,
            vote_spread_hz,
            weighted_peak_hz,
            harmonic_ratio,
            subharmonic_ratio,
            autocorr_peak_hz,
            band_power_fraction,
            spectral_entropy_norm,
            motion_level,
            motion_top_fraction,
            envelope_min_ratio,
            envelope_low_fraction,
            quiet_run_s,
            eligible_fraction,
            n_samples / float(sample_rate_hz),
            float(sample_rate_hz),
        ],
        dtype=float,
    )
    if not np.all(np.isfinite(vector)):
        raise EstimationError("non-finite feature value in window")
    return vector


@check_trace()
def window_features(trace: CSITrace) -> FloatArray:
    """Featurize one CSI trace window end to end.

    Runs the shared classical front half
    (:func:`repro.core.pipeline.prepare_calibrated_matrix`: phase
    difference, Hampel calibration, amplitude quality mask) and featurizes
    the calibrated matrix.

    Args:
        trace: The CSI window.

    Returns:
        A 1-D float vector aligned with :data:`FEATURE_NAMES`.
    """
    matrix, quality, rate_hz = prepare_calibrated_matrix(trace)
    return matrix_features(matrix, rate_hz, quality=quality)
