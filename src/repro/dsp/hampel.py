"""Hampel filtering, used by PhaseBeat for detrending and denoising.

The classic Hampel filter slides a window over the series, computes the local
median and the local median absolute deviation (MAD), and replaces any sample
farther than ``threshold`` robust standard deviations from the local median
with that median.

PhaseBeat (Section III-B2) uses the filter twice, both with a *tiny*
threshold of 0.01 so that essentially every sample is replaced by its local
median:

* window 2000 samples @ 400 Hz (5 s) → the output is the slow *trend* of the
  series; subtracting it removes the DC component (detrending);
* window 50 samples (0.125 s) → the output is a median-smoothed series with
  high-frequency noise removed (denoising).

:func:`hampel_filter` is the filter and :func:`rolling_median` its building
block.  Both take a 1-D series or an ``[n_samples × n_series]`` matrix whose
columns are filtered independently, so calibration runs every subcarrier of
every antenna pair through one call.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import median_filter

from ..contracts import FloatArray
from ..errors import ConfigurationError
from .stats import MAD_TO_SIGMA

__all__ = [
    "HAMPEL_THRESHOLD",
    "NOISE_WINDOW_S",
    "TREND_WINDOW_S",
    "rolling_median",
    "hampel_filter",
]

# The paper's calibration windows and threshold (Section III-B2), in
# seconds so captures at other rates are calibrated consistently: 2000 and
# 50 samples at 400 Hz.  The batch calibration stage, the streaming engine
# and the CSI-ratio rung all read these.
TREND_WINDOW_S = 5.0
NOISE_WINDOW_S = 0.125
# Small enough that the filter degenerates to a rolling median, which is the
# intent.
HAMPEL_THRESHOLD = 0.01


def _validate_window(x: FloatArray, window: int) -> FloatArray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ConfigurationError(
            f"Hampel filtering expects a 1-D series or 2-D matrix, got shape {x.shape}"
        )
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return x


def rolling_median(x: FloatArray, window: int) -> FloatArray:
    """Centered rolling median with edge replication.

    The window is clipped at the signal edges (``mode='nearest'``), so the
    first and last samples are medians of partially replicated windows rather
    than zero-padded ones — zero padding would fabricate a trend step at the
    boundaries, which then leaks into the detrended vital-sign band.  The
    window is clamped to the series length.

    A matrix is filtered column by column in one scipy call: the columns are
    laid end to end, each preceded by ``window // 2`` copies of its first row
    and followed by ``(window - 1) // 2`` copies of its last row, so every
    kept output's window lies inside its own column and sees the same
    replicated edges as a 1-D call on that column.  The outputs equal
    per-column 1-D calls in value; among tied ``+0.0`` and ``-0.0`` samples
    the sign of the zero returned can depend on the layout.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Centered window length in samples.

    Returns:
        The rolling median, same shape as ``x``.
    """
    x = _validate_window(x, window)
    n = x.shape[0]
    window = min(window, n)
    if x.ndim == 1:
        return median_filter(x, size=window, mode="nearest")
    k = x.shape[1]
    before = window // 2
    seg = np.empty((k, before + n + (window - 1) // 2))
    seg[:, :before] = x[0][:, np.newaxis]
    seg[:, before : before + n] = x.T
    seg[:, before + n :] = x[-1][:, np.newaxis]
    med = median_filter(seg.ravel(), size=window, mode="nearest")
    return med.reshape(k, -1)[:, before : before + n].T


def hampel_filter(
    x: FloatArray,
    window: int,
    threshold: float,
    *,
    scale: float = MAD_TO_SIGMA,
) -> FloatArray:
    """Apply a Hampel filter and return the filtered series.

    A sample ``x[i]`` is replaced by the local median ``m[i]`` when
    ``|x[i] - m[i]| > threshold * scale * mad[i]``.  With the paper's
    ``threshold=0.01`` virtually every sample fails the test, so the output
    collapses to the rolling median — that degenerate regime is exactly how
    PhaseBeat extracts trends and smooths noise.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix (columns are
            filtered independently).
        window: Window length in samples.
        threshold: Number of robust standard deviations beyond which a sample
            is declared an outlier and replaced.
        scale: MAD-to-sigma factor (Gaussian-consistent by default).

    Returns:
        The filtered array, same shape as ``x``.
    """
    x = _validate_window(x, window)
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    med = rolling_median(x, window)
    mad = rolling_median(np.abs(x - med), window)
    outlier = np.abs(x - med) > threshold * scale * mad
    out = x.copy()
    out[outlier] = med[outlier]
    return out
