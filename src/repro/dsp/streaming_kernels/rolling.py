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

Hampel's MAD is read only through the test ``y > t * mad``, so
:func:`trailing_exceeds` answers that test without a filter where it can.
On such a hop the same layout's band ends bound every kept MAD and settle
all but about 1 % of the rows; the rest are partitioned exactly.  Rows a
decimation keeps gather their own windows.  Non-finite input takes the
filter (docs/performance.md §9).

scipy's 1-D rank filter is the fast path.  A 2-D ``median_filter`` with a
``(w, 1)`` footprint computes the same order statistics but takes scipy's
generic n-D path, which is about a hundred times slower at the engine's
trend shape (docs/performance.md).  The centered counterparts live in
:mod:`repro.dsp.hampel`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import median_filter

from ...contracts import BoolArray, FloatArray, IntArray
from ...errors import ConfigurationError
from ..stats import MAD_TO_SIGMA

__all__ = ["trailing_median", "trailing_exceeds", "trailing_hampel"]


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
    if _compressible(n, last, window):
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


def _compressible(n: int, last: int, window: int) -> bool:
    """Whether the last ``last`` of ``n`` rows take the compressed layout.

    They need a full window of real context, and ``5 * last <= 2 * window``:
    the compressed layout is faster up to about ``last = 0.45 * window``
    (docs/performance.md §7); 2/5 stays below that and inside the layout's
    own limit, ``last <= window - window // 2``.
    """
    return n - last >= window - 1 and 5 * last <= 2 * window


def _core_segments(cols: FloatArray, window: int, m: int) -> FloatArray:
    """The core-compressed layout of full-context ``[n × k]`` columns.

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
    is the same.

    Returns ``[k × (3m - 2)]`` segments: the ``m - 1`` head rows, the
    ``m`` band values, the ``m - 1`` tail rows.  Kept row ``j``'s window is
    ``segments[:, j : j + 2m - 1]``.  The band is partitioned, so its first
    value (column ``m - 1``) is the core's rank-``(r - m + 1)`` value and
    its last (column ``2m - 2``) the core's rank-``r`` value: the bounds of
    every kept median.  Requires ``1 <= m <= window - window // 2``.
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
    return seg


def _segment_medians(seg: FloatArray, m: int) -> FloatArray:
    """``[m × k]`` medians of :func:`_core_segments` output, one scipy call."""
    short = 2 * m - 1
    med = median_filter(
        seg.ravel(), size=short, mode="nearest", origin=trailing_origin(short)
    )
    return med.reshape(seg.shape[0], -1)[:, short - 1 :].T


def _core_compressed_median(cols: FloatArray, window: int, m: int) -> FloatArray:
    """The last ``m`` trailing medians of full-context ``[n × k]`` columns,
    filtered over the ``3m - 2`` rows per column of :func:`_core_segments`."""
    return _segment_medians(_core_segments(cols, window, m), m)


def trailing_exceeds(
    y: FloatArray,
    window: int,
    threshold: float,
    *,
    last: int | None = None,
    step: int = 1,
    first: int = 0,
) -> BoolArray:
    """Hampel's outlier test against the trailing median, on kept rows only.

    Returns ``y[-last:][first::step] > threshold * trailing_median(y,
    window, last=last)[first::step]`` bitwise, without filtering every kept
    row where that can be avoided:

    * ``step == 1``, full context and ``5 * last <= 2 * window`` (a
      streaming trend hop): the band ends of :func:`_core_segments` bound
      every kept median, ``L <= med <= U``.  Rounding is monotone and
      ``threshold >= 0``, so ``y > fl(threshold * U)`` proves an outlier and
      ``y <= fl(threshold * L)`` proves none.  Only the rows in between need
      their median: the rank-``(last - 1)`` value of their ``2 * last - 1``
      compressed values, gathered and partitioned in one call (or one filter
      over the segments when that is the cheaper).
    * ``step > 1`` (the rows a decimation keeps): each kept row's window
      is gathered, its left edge replicated, and partitioned at rank
      ``window // 2`` in one call.

    Both order the values the way the filter does only when every value is
    finite, so a series holding NaN or an infinity takes the filter, as does
    a padded ``step == 1`` call or one with ``5 * last > 2 * window``.

    Args:
        y: 1-D series or ``[n_samples × n_series]`` matrix (Hampel's
            absolute deviations from the local median).
        window: Trailing window length in samples.
        threshold: Non-negative factor on the trailing median.
        last: Test only the last ``last`` rows (default: all).
        step: Test every ``step``-th of those rows ...
        first: ... starting at this one.

    Returns:
        Boolean array of the tested rows (leading axis) by ``y``'s columns.
    """
    y = _validate(y, window)
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    if step < 1 or first < 0:
        raise ConfigurationError(
            f"step must be >= 1 and first >= 0, got {step} and {first}"
        )
    n = y.shape[0]
    if last is None:
        last = n
    if not 0 <= last <= n:
        raise ConfigurationError(f"last must lie in [0, {n}], got {last}")
    kept = y[n - last :][first::step]
    if kept.size == 0:
        return np.zeros(kept.shape, dtype=bool)
    cols = y if y.ndim == 2 else y[:, np.newaxis]
    bounded = step == 1 and _compressible(n, last, window)
    if (bounded or step > 1) and np.isfinite(cols).all():
        if bounded:
            seg = _core_segments(cols, window, last)
            return _bounded_exceeds(seg, kept, threshold)
        rows = np.arange(n - last + first, n, step)
        mad = _gathered_medians(cols, window, rows)
        return kept > threshold * mad.reshape(kept.shape)
    return kept > threshold * trailing_median(y, window, last=last)[first::step]


def _bounded_exceeds(seg: FloatArray, kept: FloatArray, t: float) -> BoolArray:
    """:func:`trailing_exceeds` decided by the band ends of ``seg``."""
    k, width = seg.shape
    m = (width + 2) // 3
    y = kept.reshape(m, k)
    out = y > t * seg[:, 2 * m - 2]
    rows, cols = np.nonzero(~out & (y > t * seg[:, m - 1]))
    short = 2 * m - 1
    # A partition costs about ``short`` steps per undecided row, the filter
    # about ``log2(short)`` per segment value; take the cheaper.
    if rows.size * short > seg.size * math.log2(short):
        out = y > t * _segment_medians(seg, m)
    elif rows.size:
        windows = seg[cols[:, np.newaxis], rows[:, np.newaxis] + np.arange(short)]
        windows.partition(m - 1, axis=1)
        out[rows, cols] = y[rows, cols] > t * windows[:, m - 1]
    return out.reshape(kept.shape)


def _gathered_medians(cols: FloatArray, window: int, rows: IntArray) -> FloatArray:
    """``[len(rows) × k]`` trailing medians at ``rows``, left edge replicated."""
    index = np.maximum(rows[:, np.newaxis] + np.arange(1 - window, 1), 0)
    windows = np.ascontiguousarray(cols.T)[:, index]
    windows.partition(window // 2, axis=2)
    return windows[:, :, window // 2].T


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
