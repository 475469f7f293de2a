"""Resampling: decimation for the calibration stage, reclocking for faults.

PhaseBeat captures packets at 400 Hz and, after smoothing, keeps every 20th
sample to obtain a 20 Hz series (Section III-B2).  Plain decimation is safe
*only because* the Hampel denoising stage has already removed energy above
the new Nyquist rate; :func:`decimate` therefore also offers an optional
anti-alias guard for callers that decimate unsmoothed data.

Both decimation and every FFT/DWT stage downstream additionally assume the
samples are *uniformly spaced in time*.  A real frame capture violates that
the moment a packet drops: index-based decimation then warps the time axis
and every spectral estimate lands at the wrong frequency.  :func:`reclock`
is the repair step — it maps a series with irregular (lossy, jittered, even
glitched) timestamps onto a uniform grid by linear interpolation, flagging
the samples it had to fabricate inside long gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import decimate as _scipy_decimate

from ..contracts import BoolArray, FloatArray
from ..errors import ConfigurationError, DataGapError, SignalTooShortError
from ..obs import NULL_INSTRUMENTATION, Instrumentation

__all__ = [
    "TARGET_RATE_HZ",
    "ReclockedSeries",
    "decimate",
    "decimation_factor",
    "downsampled_rate",
    "reclock",
]

# The paper's processing rate after calibration (400 Hz / 20).
TARGET_RATE_HZ = 20.0

# Histogram bounds for gap fractions (dimensionless, 0..1).
_FRACTION_BUCKETS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)


def decimate(
    x: FloatArray, factor: int, *, anti_alias: bool = False, axis: int = 0
) -> FloatArray:
    """Keep every ``factor``-th sample of ``x`` along ``axis``.

    Args:
        x: Input array.
        factor: Decimation factor (the paper uses 20).
        anti_alias: When True, apply a zero-phase low-pass filter before
            decimating (via :func:`scipy.signal.decimate`) instead of raw
            slicing.  PhaseBeat's pipeline leaves this False because the
            Hampel denoiser has already band-limited the series.
        axis: Axis along which to decimate.

    Returns:
        The decimated array.
    """
    if factor < 1:
        raise ConfigurationError(f"decimation factor must be >= 1, got {factor}")
    x = np.asarray(x, dtype=float)
    if factor == 1:
        return x.copy()
    if x.shape[axis] < factor:
        raise ConfigurationError(
            f"cannot decimate {x.shape[axis]} samples by a factor of {factor}"
        )
    if anti_alias:
        return _scipy_decimate(x, factor, axis=axis, zero_phase=True)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(None, None, factor)
    return x[tuple(slicer)].copy()


@dataclass(frozen=True)
class ReclockedSeries:
    """Output of :func:`reclock`.

    Attributes:
        series: Samples on the uniform grid, shape ``(n_out, ...)``.
        times_s: The uniform grid itself, shape ``(n_out,)``.
        sample_rate_hz: Grid rate (the requested target rate).
        gap_mask: Boolean ``(n_out,)``; True where the output sample lies
            inside an input gap longer than ``gap_flag_s`` — i.e. where the
            value is an interpolation across missing data, not a measurement.
        n_dropped: Input samples discarded for non-finite or backward
            timestamps before interpolation.
    """

    series: FloatArray
    times_s: FloatArray
    sample_rate_hz: float
    gap_mask: BoolArray
    n_dropped: int

    @property
    def gap_fraction(self) -> float:
        """Fraction of output samples fabricated inside gaps."""
        return float(self.gap_mask.mean()) if self.gap_mask.size else 0.0


def reclock(
    x: FloatArray,
    timestamps_s: FloatArray,
    target_rate_hz: float,
    *,
    max_gap_s: float | None = None,
    gap_flag_s: float | None = None,
    instrumentation: Instrumentation | None = None,
) -> ReclockedSeries:
    """Interpolate irregularly-timestamped samples onto a uniform grid.

    The fault-tolerant front door for everything downstream that assumes
    uniform sampling (decimation, Hampel windows in seconds, DWT, FFT).
    Samples with non-finite or backward timestamps (clock glitches) are
    dropped first, then the remaining series is linearly interpolated at
    ``target_rate_hz`` over its own span.

    Args:
        x: Input samples, shape ``(n, ...)`` with time along axis 0
            (real-valued; interpolate phase series, not raw complex CSI).
        timestamps_s: Per-sample capture times, shape ``(n,)``.
        target_rate_hz: Rate of the output grid.
        max_gap_s: When given, raise :class:`DataGapError` if any
            inter-sample gap exceeds this budget instead of interpolating
            across it.
        gap_flag_s: Gap length above which output samples inside the gap
            are flagged in ``gap_mask``; defaults to three target-grid
            intervals.
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            records the ``dsp.reclock`` stage duration, samples dropped,
            and the fabricated-gap fraction.

    Returns:
        A :class:`ReclockedSeries`.

    Raises:
        ConfigurationError: Bad rate or mismatched shapes.
        SignalTooShortError: Fewer than two usable samples survive.
        DataGapError: A gap exceeds ``max_gap_s``.
    """
    obs = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    with obs.stage("reclock", component="dsp"):
        result = _reclock(
            x, timestamps_s, target_rate_hz,
            max_gap_s=max_gap_s, gap_flag_s=gap_flag_s,
        )
    obs.count(
        "dsp_reclock_dropped_samples_total",
        amount=result.n_dropped,
        help_text="Input samples dropped for non-finite/backward timestamps.",
    )
    obs.observe(
        "dsp_reclock_gap_fraction",
        result.gap_fraction,
        help_text="Fraction of output samples fabricated inside input gaps.",
        bucket_bounds=_FRACTION_BUCKETS,
    )
    return result


def _reclock(
    x: FloatArray,
    timestamps_s: FloatArray,
    target_rate_hz: float,
    *,
    max_gap_s: float | None = None,
    gap_flag_s: float | None = None,
) -> ReclockedSeries:
    if target_rate_hz <= 0:
        raise ConfigurationError(
            f"target rate must be positive, got {target_rate_hz}"
        )
    x = np.asarray(x, dtype=float)
    t = np.asarray(timestamps_s, dtype=float).ravel()
    if x.shape[0] != t.size:
        raise ConfigurationError(
            f"{x.shape[0]} samples but {t.size} timestamps"
        )

    # Drop clock-glitch victims: non-finite stamps, then anything that does
    # not advance past the running maximum (a backward jump re-covers time
    # that was already measured; the first measurement wins).
    keep = np.isfinite(t)
    t_f = np.where(keep, t, -np.inf)
    running = np.maximum.accumulate(t_f)
    advances = np.empty(t.size, dtype=bool)
    advances[:1] = True
    advances[1:] = t_f[1:] > running[:-1]
    keep &= advances
    n_dropped = int(t.size - keep.sum())
    t = t[keep]
    x = x[keep]
    if t.size < 2:
        raise SignalTooShortError(2, int(t.size), what="reclock input")

    gaps = np.diff(t)
    if max_gap_s is not None and gaps.size and gaps.max() > max_gap_s:
        k = int(np.argmax(gaps))
        raise DataGapError(float(gaps[k]), max_gap_s, at_s=float(t[k]))

    interval = 1.0 / target_rate_hz
    n_out = int(np.floor((t[-1] - t[0]) * target_rate_hz)) + 1
    grid = t[0] + np.arange(n_out) * interval

    # Vectorized linear interpolation across all columns at once (the
    # per-column ``np.interp`` loop this replaces dominated reclock cost on
    # wide matrices).  The grid lies inside [t[0], t[-1]] by construction,
    # so no extrapolation clamp is needed beyond the index clip; grid
    # points that coincide with an input stamp get that sample exactly
    # (weight 0 against the left sample).
    flat = x.reshape(x.shape[0], -1)
    left = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
    t0 = t[left]
    weight = ((grid - t0) / (t[left + 1] - t0))[:, np.newaxis]
    y0 = flat[left]
    out = y0 + weight * (flat[left + 1] - y0)
    series = out.reshape((n_out,) + x.shape[1:])

    if gap_flag_s is None:
        gap_flag_s = 3.0 * interval
    # An output sample falls in input interval [t[j-1], t[j]] with
    # j = searchsorted(t, grid); flag it when that interval is a long gap.
    j = np.clip(np.searchsorted(t, grid), 1, t.size - 1)
    gap_mask = gaps[j - 1] > gap_flag_s

    return ReclockedSeries(
        series=series,
        times_s=grid,
        sample_rate_hz=float(target_rate_hz),
        gap_mask=gap_mask,
        n_dropped=n_dropped,
    )


def decimation_factor(input_rate_hz: float) -> int:
    """Integer factor that brings ``input_rate_hz`` down to about 20 Hz.

    ``round(input_rate / TARGET_RATE_HZ)``, floored at 1 so low-rate
    captures pass through unchanged.
    """
    if input_rate_hz <= 0:
        raise ConfigurationError(
            f"input rate must be positive, got {input_rate_hz}"
        )
    return max(1, int(round(input_rate_hz / TARGET_RATE_HZ)))


def downsampled_rate(sample_rate_hz: float, factor: int) -> float:
    """Sample rate after decimating by ``factor`` (400 Hz / 20 → 20 Hz)."""
    if factor < 1:
        raise ConfigurationError(f"decimation factor must be >= 1, got {factor}")
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    return sample_rate_hz / factor
