"""Trailing (causal) rolling-median kernels.

The filtered value at index ``i`` is an order statistic of the trailing
window ``[i - w + 1, i]`` with the left edge replicated (``x[0]`` stands in
for negative indices).  Trailing values are frozen once computed, which is
what makes incremental streaming exact: extending the series never changes
past outputs.  The implementations ride on ``scipy.ndimage.median_filter``
with a positive ``origin`` — ``origin=(w - 1) // 2`` shifts the centered
footprint fully to the left, which equals the naive trailing median
(verified against a naive implementation in the test suite, including ties
and even windows).  A whole ``[n × k]`` matrix goes through *one* 1-D scipy
call: the columns are laid end to end, each prefixed with copies of its own
first row, so every kept output's window lies inside its own column.

When only the last ``m`` rows are kept, their context is complete and ``m``
is small against the window (a streaming hop), the rows every kept window
shares (the *core*) are first cut down to the ``m`` values that can still be
a median, so each column is filtered over ``3m - 2`` rows instead of
``w - 1 + m`` (docs/performance.md §7).

scipy's 1-D rank filter is the fast path.  A 2-D ``median_filter`` with a
``(w, 1)`` footprint computes the same order statistics but takes scipy's
generic n-D path, which is about a hundred times slower at the engine's
trend shape (docs/performance.md).  The centered counterparts live in
:mod:`repro.dsp.hampel`.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import median_filter

from ...contracts import FloatArray
from ...errors import ConfigurationError
from ..stats import MAD_TO_SIGMA

__all__ = ["trailing_median", "trailing_hampel"]


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

    A call that keeps ``last`` rows with a full window of real context
    behind each, and ``5 * last <= 2 * window``, filters the core-
    compressed layout of :func:`_core_compressed_median`; every other call
    filters the rows' whole window context.

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
    start = max(0, n - last - (window - 1))
    pad = max(0, window - 1 - (n - last))
    if pad == 0 and 5 * last <= 2 * window:
        # The compressed layout is faster up to about last = 0.45 * window
        # (docs/performance.md §7); 2/5 stays below that and inside the
        # layout's own limit, last <= window - window // 2.
        out = _core_compressed_median(cols, window, last)
    else:
        # Each column becomes one segment of ``window - 1 + last`` samples:
        # the window context of its kept rows, left-padded with its first
        # row where the series is shorter than that.
        seg = np.empty((k, pad + n - start))
        seg[:, :pad] = cols[0][:, np.newaxis]
        seg[:, pad:] = cols[start:].T
        med = median_filter(
            seg.ravel(), size=window, mode="nearest", origin=trailing_origin(window)
        )
        out = med.reshape(k, -1)[:, window - 1 :].T
    return out.reshape((last,) + x.shape[1:])


def _core_compressed_median(cols: FloatArray, window: int, m: int) -> FloatArray:
    """The last ``m`` trailing medians of full-context ``[n × k]`` columns.

    With ``s = n - m - (window - 1)``, the kept windows are
    ``[s + j, s + j + window - 1]`` for ``j < m``, and all of them contain
    the *core* rows ``[s + m - 1, s + window - 1]`` (``window - m + 1``
    rows).  A window's median is its rank-``r`` value, ``r = window // 2``;
    only ``m - 1`` of its rows lie outside the core, so its median is at
    least the core's rank-``(r - m + 1)`` value and at most the core's
    rank-``r`` value.  Dropping the ``r - m + 1`` core values ranked below
    that band and the ``window - m - r`` ranked above it therefore drops
    values on either side of every kept window's median, and leaves each
    window ``2m - 1`` values whose rank-``(m - 1)`` value — a median again —
    is the same.  The kept ``m`` core values sit between the ``m - 1`` head
    and ``m - 1`` tail rows, and one scipy call filters those ``3m - 2``
    rows per column.  Requires ``1 <= m <= window - window // 2``.
    """
    n, k = cols.shape
    s = n - m - (window - 1)
    lo = window // 2 - m + 1
    core = np.ascontiguousarray(cols[s + m - 1 : s + window].T)
    core.partition((lo, lo + m - 1), axis=1)
    seg = np.empty((k, 3 * m - 2))
    seg[:, : m - 1] = cols[s : s + m - 1].T
    seg[:, m - 1 : 2 * m - 1] = core[:, lo : lo + m]
    seg[:, 2 * m - 1 :] = cols[s + window :].T
    short = 2 * m - 1
    med = median_filter(
        seg.ravel(), size=short, mode="nearest", origin=trailing_origin(short)
    )
    return med.reshape(k, -1)[:, short - 1 :].T


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
