"""Sliding-window peak detection for the single-person breathing estimator.

The DWT approximation coefficient still contains *fake peaks* — local maxima
produced by residual noise rather than by breathing cycles.  PhaseBeat
(Section III-C1) rejects them with a sliding window sized to the maximum
human breathing period (51 samples at 20 Hz ≈ 2.5 s half-window): a candidate
is a true peak only if it dominates every other sample in its window.

:func:`find_peaks` implements that rule plus an optional prominence floor,
and :func:`mean_peak_interval` turns the surviving peaks into a breathing
period estimate.
"""

from __future__ import annotations

import numpy as np

from ..contracts import FloatArray, IntArray
from ..errors import ConfigurationError, EstimationError

__all__ = [
    "find_peaks",
    "mean_peak_interval",
    "peak_rate_bpm",
    "robust_peak_interval",
]


def find_peaks(
    x: FloatArray,
    window: int,
    *,
    min_prominence: float = 0.0,
) -> IntArray:
    """Indices of true peaks under the sliding-window dominance rule.

    A sample ``x[i]`` is a peak when it is strictly greater than its
    immediate neighbours and is the maximum of the centered window of
    ``window`` samples around it (clipped at the edges).  Setting
    ``min_prominence`` additionally requires the peak to rise at least that
    far above the window median, which suppresses ripples on a flat series.

    Args:
        x: 1-D series (typically the DWT approximation coefficient α₄).
        window: Full window length in samples; the paper uses 51.
        min_prominence: Minimum height above the local window median.

    Returns:
        Sorted integer indices of the detected peaks (possibly empty).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"find_peaks expects a 1-D series, got {x.shape}")
    if window < 3:
        raise ConfigurationError(f"window must be >= 3, got {window}")
    n = x.size
    if n < 3:
        return np.empty(0, dtype=int)
    half = window // 2

    interior = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])) + 1
    peaks = []
    for i in interior:
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        segment = x[lo:hi]
        if x[i] < segment.max():
            continue
        if min_prominence > 0.0 and x[i] - np.median(segment) < min_prominence:
            continue
        peaks.append(i)

    if len(peaks) < 2:
        return np.asarray(peaks, dtype=int)
    # The dominance rule can keep two samples of one wide crest (plateaus and
    # equal maxima inside overlapping windows); enforce a minimum separation
    # of half a window, keeping the taller of any colliding pair.
    kept: list[int] = []
    for i in peaks:
        if kept and i - kept[-1] < half:
            if x[i] > x[kept[-1]]:
                kept[-1] = i
        else:
            kept.append(i)
    return np.asarray(kept, dtype=int)


def robust_peak_interval(
    peaks: IntArray,
    sample_rate_hz: float,
    *,
    trim_band: tuple[float, float] = (0.6, 1.4),
) -> float:
    """Mean peak-to-peak interval after trimming outlier intervals.

    A single fake (or missed) peak injects one or two wildly short (long)
    intervals that drag the plain mean; trimming every interval outside
    ``trim_band`` × the median interval before averaging removes exactly
    those, while leaving the honest jitter of real breathing untouched.

    Args:
        peaks: Sorted peak indices from :func:`find_peaks`.
        sample_rate_hz: Sample rate of the series the peaks index into (Hz).
        trim_band: Multiplicative (low, high) band around the median
            interval that survives trimming.

    Returns:
        The trimmed-mean interval in seconds.

    Raises:
        EstimationError: If fewer than two peaks were supplied.
    """
    peaks = np.asarray(peaks)
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    if peaks.size < 2:
        raise EstimationError(
            f"need at least two peaks to measure a period, got {peaks.size}"
        )
    intervals = np.diff(peaks).astype(float)
    median = float(np.median(intervals))
    lo, hi = trim_band
    kept = intervals[(intervals >= lo * median) & (intervals <= hi * median)]
    if kept.size == 0:
        kept = intervals
    return float(np.mean(kept) / sample_rate_hz)


def mean_peak_interval(peaks: IntArray, sample_rate_hz: float) -> float:
    """Average peak-to-peak interval in seconds.

    Args:
        peaks: Sorted peak indices from :func:`find_peaks`.
        sample_rate_hz: Sample rate of the series the peaks index into (Hz).

    Returns:
        The mean interval between consecutive peaks, in seconds.

    Raises:
        EstimationError: If fewer than two peaks were supplied.
    """
    peaks = np.asarray(peaks)
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    if peaks.size < 2:
        raise EstimationError(
            f"need at least two peaks to measure a period, got {peaks.size}"
        )
    return float(np.mean(np.diff(peaks)) / sample_rate_hz)


def peak_rate_bpm(peaks: IntArray, sample_rate_hz: float) -> float:
    """Rate in beats (breaths) per minute: ``60 / mean interval``."""
    return 60.0 / mean_peak_interval(peaks, sample_rate_hz)
