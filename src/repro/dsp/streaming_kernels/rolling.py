"""Trailing and batched rolling-median kernels.

Two families live here:

* **Trailing (causal) kernels** — the filtered value at index ``i`` is an
  order statistic of the trailing window ``[i - w + 1, i]`` with the left
  edge replicated (``x[0]`` stands in for negative indices).  Trailing
  values are frozen once computed, which is what makes incremental streaming
  exact: extending the series never changes past outputs.  The vectorized
  implementations ride on ``scipy.ndimage.median_filter`` with a positive
  ``origin`` — ``origin=(w - 1) // 2`` shifts the centered footprint fully
  to the left, which equals the naive trailing median (verified against a
  naive implementation in the test suite, including ties and even windows).
  A whole ``[n × k]`` matrix goes through *one* 1-D scipy call: the columns
  are laid end to end, each prefixed with copies of its own first row, so
  every kept output's window lies inside its own column.

* **Batched centered kernels** — per-column application of the 1-D
  centered kernels from :mod:`repro.dsp.hampel` over a ``[window × series]``
  matrix, with the elementwise outlier logic vectorized across the matrix.
  Output is bitwise equal to looping :func:`repro.dsp.hampel.hampel_filter`
  over columns; :mod:`repro.core.calibration` uses this to calibrate all
  subcarriers of all antenna pairs in one call.

scipy's 1-D rank filter is the fast path for both families.  A 2-D
``median_filter`` with a ``(w, 1)`` footprint computes the same order
statistics but takes scipy's generic n-D path, which is about a hundred
times slower at the engine's trend shape (docs/performance.md).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import median_filter

from ...contracts import FloatArray
from ...errors import ConfigurationError
from ..stats import MAD_TO_SIGMA

__all__ = [
    "trailing_median",
    "trailing_mad",
    "trailing_hampel",
    "batched_rolling_median",
    "batched_hampel_filter",
]


def _validate(x: FloatArray, window: int) -> FloatArray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ConfigurationError(
            f"rolling kernels expect a 1-D series or 2-D matrix, got shape {x.shape}"
        )
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return x


def trailing_origin(window: int) -> int:
    """The ``scipy.ndimage`` origin that turns a centered footprint trailing.

    A positive origin shifts the footprint left; ``(window - 1) // 2`` is
    both the shift that lands the footprint on ``[i - w + 1, i]`` and the
    maximum shift scipy allows.
    """
    return (window - 1) // 2


def trailing_median(
    x: FloatArray, window: int, *, last: int | None = None
) -> FloatArray:
    """Trailing rolling median (window ``[i - w + 1, i]``, left edge replicated).

    The reported median is the rank ``window // 2`` order statistic of the
    window — the same convention as ``scipy.ndimage.median_filter`` and
    therefore as :func:`repro.dsp.hampel.rolling_median`.  2-D input is
    filtered column by column (columns are independent series), all columns
    in one scipy call.

    Outputs equal the naive trailing median in value.  They are bitwise
    equal too, except that among tied ``+0.0`` and ``-0.0`` samples the
    sign of the zero returned depends on the filter's history, so it can
    differ with ``last`` or with the column layout.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Trailing window length in samples.  May exceed the series
            length; the replicated left edge covers the deficit.
        last: Return only the last ``last`` rows (default: all).  Rows
            before them are read only as window context, so asking for the
            rows a caller keeps saves the work on the rest.

    Returns:
        Filtered array: ``x``'s shape, or ``last`` rows of it.
    """
    x = _validate(x, window)
    n = x.shape[0]
    if last is None:
        last = n
    if not 0 <= last <= n:
        raise ConfigurationError(f"last must lie in [0, {n}], got {last}")
    cols = x if x.ndim == 2 else x[:, np.newaxis]
    k = cols.shape[1]
    if last == 0 or k == 0:
        return np.empty((last,) + x.shape[1:])
    # Each column becomes one segment of ``window - 1 + last`` samples: the
    # window context of its kept rows, left-padded with its first row where
    # the series is shorter than that.
    start = max(0, n - last - (window - 1))
    pad = max(0, window - 1 - (n - last))
    seg = np.empty((k, pad + n - start))
    seg[:, :pad] = cols[0][:, np.newaxis]
    seg[:, pad:] = cols[start:].T
    med = median_filter(
        seg.ravel(), size=window, mode="nearest", origin=trailing_origin(window)
    )
    out = med.reshape(k, -1)[:, window - 1 :].T
    return out.reshape((last,) + x.shape[1:])


def trailing_mad(
    x: FloatArray, window: int, *, median: FloatArray | None = None
) -> FloatArray:
    """Trailing rolling MAD about the trailing rolling median.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Trailing window length in samples.
        median: The trailing median of ``x`` over the same window, when the
            caller has already computed it; omitted, it is recomputed.

    Returns:
        Trailing MAD array, same shape as ``x``.
    """
    x = _validate(x, window)
    med = trailing_median(x, window) if median is None else np.asarray(median, float)
    return trailing_median(np.abs(x - med), window)


def trailing_hampel(
    x: FloatArray,
    window: int,
    threshold: float,
    *,
    scale: float = MAD_TO_SIGMA,
) -> FloatArray:
    """Causal Hampel filter: trailing-window variant of ``hampel_filter``.

    Identical outlier rule to :func:`repro.dsp.hampel.hampel_filter` —
    replace ``x[i]`` with the local median when it sits more than
    ``threshold * scale * mad[i]`` away — but the local statistics come
    from the trailing window, so outputs are frozen once computed and the
    filter can run incrementally.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Trailing window length in samples.
        threshold: Robust standard deviations beyond which a sample is
            replaced by the local median.
        scale: MAD-to-sigma factor (Gaussian-consistent by default).

    Returns:
        Filtered array, same shape as ``x``.
    """
    x = _validate(x, window)
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    med = trailing_median(x, window)
    mad = trailing_median(np.abs(x - med), window)
    outlier = np.abs(x - med) > threshold * scale * mad
    out = x.copy()
    out[outlier] = med[outlier]
    return out


def batched_rolling_median(matrix: FloatArray, window: int) -> FloatArray:
    """Centered rolling median applied independently to each column.

    Bitwise equal to calling :func:`repro.dsp.hampel.rolling_median` on
    every column (same scipy kernel, same ``min(window, n)`` clamp).
    """
    matrix = _validate(matrix, window)
    if matrix.ndim == 1:
        matrix = matrix[:, np.newaxis]
    window = min(window, matrix.shape[0])
    out = np.empty_like(matrix)
    for col in range(matrix.shape[1]):
        out[:, col] = median_filter(matrix[:, col], size=window, mode="nearest")
    return out


def batched_hampel_filter(
    matrix: FloatArray,
    window: int,
    threshold: float,
    *,
    scale: float = MAD_TO_SIGMA,
) -> FloatArray:
    """Centered Hampel filter applied independently to each column.

    The per-column medians reuse the 1-D scipy kernel; the outlier mask and
    replacement are vectorized across the whole matrix.  Bitwise equal to
    looping :func:`repro.dsp.hampel.hampel_filter` over columns.

    Args:
        matrix: ``[n_samples × n_series]`` matrix (1-D input is treated as
            a single column and returned 2-D).
        window: Centered window length in samples (clamped to the series
            length, matching the 1-D filter).
        threshold: Robust standard deviations beyond which a sample is
            replaced by the local median.
        scale: MAD-to-sigma factor.

    Returns:
        Filtered ``[n_samples × n_series]`` matrix.
    """
    matrix = _validate(matrix, window)
    if matrix.ndim == 1:
        matrix = matrix[:, np.newaxis]
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    med = batched_rolling_median(matrix, window)
    mad = batched_rolling_median(np.abs(matrix - med), window)
    outlier = np.abs(matrix - med) > threshold * scale * mad
    out = matrix.copy()
    out[outlier] = med[outlier]
    return out
