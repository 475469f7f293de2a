"""Incremental trailing calibration engine for the streaming hot path.

The batch calibration stage (:func:`repro.core.calibration.calibrate`)
detrends and denoises with *centered* Hampel windows, so every hop of a
sliding window changes every output sample and forces a full recompute.
The engine here uses the *trailing* kernels from
:mod:`~repro.dsp.streaming_kernels.rolling`: each calibrated sample is a
pure function of the trailing ``trend_window + noise_window`` raw samples,
is computed exactly once, and never changes.  Per hop, only the new packets
are filtered: one scipy call per median over the new rows and their window
context (cut down to the values that can still be a median once the context
is full), instead of a full-window pass.  The per-packet caches are
:class:`~repro.dsp.streaming_kernels.row_store.RowStore` buffers, so a hop
writes its rows in place instead of copying the whole cache.

**Exactness model.**  Every cached value is either (a) an order statistic
of a fixed slice of the raw series (the trailing scipy kernels — slice
continuation is bitwise equal to a full pass, but for the sign of a zero
median among tied ``+0.0`` and ``-0.0``) or (b) an exactly associative
integer operation (the cycle counter of
:mod:`~repro.dsp.streaming_kernels.unwrap`).  Consequently an engine
rebuilt from a buffered suffix of the stream produces bit-identical caches
to the engine that ran incrementally — no replay machinery — *provided*
the same integer cycle anchor is used.  The anchor (cycles at the first
buffered packet) is path history a truncated buffer cannot reproduce, so
the streaming monitor carries it in checkpoints; everything float is
rebuilt from the buffer.

:func:`trailing_calibrate` is the stateless from-scratch reference the
equivalence suite gates the engine against.  The monitor does not call it:
windows the engine cannot serve (degraded or non-uniform timing) go through
the batch :meth:`repro.core.pipeline.PhaseBeat.process`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...contracts import FloatArray, IntArray
from ...errors import ConfigurationError
from ..hampel import HAMPEL_THRESHOLD, NOISE_WINDOW_S, TREND_WINDOW_S
from ..resample import decimate, downsampled_rate
from ..stats import MAD_TO_SIGMA
from .rolling import trailing_hampel, trailing_median
from .row_store import RowStore
from .unwrap import cycle_unwrap

__all__ = [
    "TrailingHampelState",
    "TrailingCalibration",
    "trailing_calibrate",
    "trailing_window_samples",
    "StreamingCalibrator",
]


def trailing_window_samples(window_s: float, sample_rate_hz: float) -> int:
    """Window length in samples for a trailing Hampel stage.

    Same formula as the batch calibration stage (``max(3, round(w * rate))``)
    minus the per-call clamp to the series length — a trailing window longer
    than the data so far is simply left-edge replicated, which keeps the
    window size constant over the life of a stream.
    """
    if window_s <= 0:
        raise ConfigurationError(f"window must be positive, got {window_s}")
    if sample_rate_hz <= 0:
        raise ConfigurationError(
            f"sample rate must be positive, got {sample_rate_hz}"
        )
    return max(3, int(round(window_s * sample_rate_hz)))


def _stage_windows(sample_rate_hz: float) -> tuple[int, int]:
    """Detrend and denoise window lengths in samples at ``sample_rate_hz``.

    Both come from the batch stage's :data:`~repro.dsp.hampel.TREND_WINDOW_S`
    and :data:`~repro.dsp.hampel.NOISE_WINDOW_S`; at rates so low that both
    clamp to the 3-sample floor the cascade is refused.
    """
    trend_w = trailing_window_samples(TREND_WINDOW_S, sample_rate_hz)
    noise_w = trailing_window_samples(NOISE_WINDOW_S, sample_rate_hz)
    if noise_w >= trend_w:
        raise ConfigurationError(
            "denoise window must be shorter than the trend window"
        )
    return trend_w, noise_w


class TrailingHampelState:
    """Incremental trailing Hampel filter over a growing multi-series matrix.

    :meth:`extend` filters each new block and returns it; outputs are
    bitwise equal to running :func:`~repro.dsp.streaming_kernels.rolling.trailing_hampel`
    over the whole concatenated series (the equivalence suite pins this).
    The state retains the trailing ``window - 1`` raw samples and absolute
    deviations — everything a future block's windows can reach.
    """

    def __init__(
        self,
        window: int,
        threshold: float,
        *,
        scale: float = MAD_TO_SIGMA,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
        self._window = int(window)
        self._threshold = float(threshold)
        self._scale = float(scale)
        self._x_tail: FloatArray | None = None
        self._y_tail: FloatArray | None = None

    @property
    def window(self) -> int:
        """Trailing window length in samples."""
        return self._window

    def extend(self, block: FloatArray) -> FloatArray:
        """Filter the next block, continuing from the retained context.

        Args:
            block: ``[n_new × n_series]`` new raw samples.

        Returns:
            The filtered block, same shape.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise ConfigurationError(
                f"expected an [n_new x n_series] block, got shape {block.shape}"
            )
        m = block.shape[0]
        if m == 0:
            return block.copy()
        w = self._window
        keep = w - 1
        if self._x_tail is None:
            ctx_x = block
        else:
            ctx_x = np.concatenate([self._x_tail, block], axis=0)
        # While fewer than ``window - 1`` context rows exist, the context
        # starts at the true first sample and the kernel's edge replication
        # reproduces the full-series warmup exactly; once the context is
        # full, every output row taken has a complete real window.
        med = trailing_median(ctx_x, w, last=m)
        y_new = np.abs(block - med)
        if self._y_tail is None:
            ctx_y = y_new
        else:
            ctx_y = np.concatenate([self._y_tail, y_new], axis=0)
        mad = trailing_median(ctx_y, w, last=m)
        outlier = y_new > self._threshold * self._scale * mad
        out = block.copy()
        out[outlier] = med[outlier]
        self._x_tail = ctx_x[-keep:].copy() if keep else ctx_x[:0].copy()
        self._y_tail = ctx_y[-keep:].copy() if keep else ctx_y[:0].copy()
        return out


@dataclass(frozen=True)
class TrailingCalibration:
    """Output of the from-scratch trailing calibration reference.

    Attributes:
        series: ``[n_out × n_series]`` calibrated series at
            ``sample_rate_hz`` (decimated, grid anchored at input row 0).
        predecimation_series: Calibrated series before decimation.
        unwrapped: Integer-cycle unwrapped input phase.
        cycles: Integer cycle count per sample.
        sample_rate_hz: Rate after decimation.
        input_rate_hz: Rate of the raw input.
        decimation_factor: Rows kept are ``[::decimation_factor]``.
    """

    series: FloatArray
    predecimation_series: FloatArray
    unwrapped: FloatArray
    cycles: IntArray
    sample_rate_hz: float
    input_rate_hz: float
    decimation_factor: int


def trailing_calibrate(
    wrapped_phase: FloatArray,
    sample_rate_hz: float,
    *,
    decimation_factor: int = 1,
    initial_cycles: IntArray | None = None,
) -> TrailingCalibration:
    """From-scratch trailing calibration of wrapped phase differences.

    The stateless reference implementation of the streaming calibration:
    integer-cycle unwrap, trailing Hampel detrend, trailing Hampel denoise,
    decimation anchored at row 0, with the batch stage's windows and
    :data:`~repro.dsp.hampel.HAMPEL_THRESHOLD`.  :class:`StreamingCalibrator`
    must match this bitwise on every retained row.

    Args:
        wrapped_phase: ``[n_packets × n_series]`` wrapped phase differences
            in ``(-pi, pi]``.
        sample_rate_hz: Packet rate of the input.
        decimation_factor: Keep every this-many-th calibrated row.
        initial_cycles: Cycle count at row 0 (per series); zeros when
            omitted.  The streaming monitor passes its checkpointed anchor
            here so restored runs stay bit-identical.

    Returns:
        A :class:`TrailingCalibration`.
    """
    a = np.asarray(wrapped_phase, dtype=float)
    if a.ndim != 2:
        raise ConfigurationError(
            f"expected an [n_packets x n_series] matrix, got shape {a.shape}"
        )
    if a.shape[0] == 0:
        raise ConfigurationError("cannot calibrate an empty series")
    if decimation_factor < 1:
        raise ConfigurationError(
            f"decimation factor must be >= 1, got {decimation_factor}"
        )
    trend_w, noise_w = _stage_windows(sample_rate_hz)
    base = (
        np.zeros(a.shape[1], dtype=np.int64)
        if initial_cycles is None
        else np.asarray(initial_cycles, dtype=np.int64)
    )
    unwrapped, cycles = cycle_unwrap(a, prev_angle=a[0], prev_cycles=base)
    trend = trailing_hampel(unwrapped, trend_w, HAMPEL_THRESHOLD)
    detrended = unwrapped - trend
    denoised = trailing_hampel(detrended, noise_w, HAMPEL_THRESHOLD)
    series = (
        decimate(denoised, decimation_factor, axis=0)
        if decimation_factor > 1
        else denoised.copy()
    )
    return TrailingCalibration(
        series=series,
        predecimation_series=denoised,
        unwrapped=unwrapped,
        cycles=cycles,
        sample_rate_hz=downsampled_rate(sample_rate_hz, decimation_factor),
        input_rate_hz=float(sample_rate_hz),
        decimation_factor=int(decimation_factor),
    )


class StreamingCalibrator:
    """Incremental counterpart of :func:`trailing_calibrate`.

    Rows are indexed in lockstep with the caller's packet buffer: row ``i``
    of every cache corresponds to buffered packet ``i``.  :meth:`extend`
    appends newly arrived packets, :meth:`evict` drops the oldest rows when
    the caller evicts packets (in multiples of the decimation factor, so
    the ``[::factor]`` grid anchored at row 0 keeps its phase).

    Rebuilding — constructing a fresh engine with the same
    ``initial_cycles`` and extending it with the full buffer in one call —
    reproduces a long-running engine's caches bit-identically; that is the
    restore path of the streaming monitor's checkpoints.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        n_series: int,
        *,
        decimation_factor: int = 1,
        initial_cycles: IntArray | None = None,
    ) -> None:
        if n_series < 1:
            raise ConfigurationError(f"n_series must be >= 1, got {n_series}")
        if decimation_factor < 1:
            raise ConfigurationError(
                f"decimation factor must be >= 1, got {decimation_factor}"
            )
        trend_w, noise_w = _stage_windows(sample_rate_hz)
        self._sample_rate_hz = float(sample_rate_hz)
        self._n_series = int(n_series)
        self._factor = int(decimation_factor)
        self._trend = TrailingHampelState(trend_w, HAMPEL_THRESHOLD)
        self._noise = TrailingHampelState(noise_w, HAMPEL_THRESHOLD)
        self._last_angle: FloatArray | None = None
        self._last_cycles: IntArray = (
            np.zeros(self._n_series, dtype=np.int64)
            if initial_cycles is None
            else np.asarray(initial_cycles, dtype=np.int64).copy()
        )
        self._unwrapped = RowStore((self._n_series,), float)
        self._calibrated = RowStore((self._n_series,), float)
        self._cycles = RowStore((self._n_series,), np.int64)

    @property
    def n_rows(self) -> int:
        """Rows currently cached (== packets buffered by the caller)."""
        return len(self._calibrated)

    @property
    def decimation_factor(self) -> int:
        """Rows kept by the decimated view are ``[::decimation_factor]``."""
        return self._factor

    @property
    def calibrated_rate_hz(self) -> float:
        """Sample rate of the decimated calibrated series."""
        return downsampled_rate(self._sample_rate_hz, self._factor)

    @property
    def rebuild_context_samples(self) -> int:
        """Raw rows of context a rebuild needs before its outputs are exact.

        A calibrated row reaches back ``trend_window - 1`` rows through the
        trend median, the same again through the trend MAD (deviations are
        medians of earlier medians), and likewise twice through the noise
        stage: ``2*(trend_window - 1) + 2*(noise_window - 1)`` rows in
        total.  An engine rebuilt from a suffix matches the running engine
        bitwise on every row at least this far past the suffix start.
        """
        return 2 * (self._trend.window - 1) + 2 * (self._noise.window - 1)

    @property
    def base_cycles(self) -> IntArray:
        """Integer cycle count at cache row 0 — the checkpoint anchor."""
        if self.n_rows:
            return self._cycles.rows[0].copy()
        return self._last_cycles.copy()

    def extend(self, wrapped_block: FloatArray) -> None:
        """Unwrap, detrend, denoise, and cache newly arrived packets.

        Args:
            wrapped_block: ``[n_new × n_series]`` wrapped phase differences.
        """
        block = np.asarray(wrapped_block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self._n_series:
            raise ConfigurationError(
                f"expected an [n_new x {self._n_series}] block, "
                f"got shape {block.shape}"
            )
        if block.shape[0] == 0:
            return
        prev_angle = block[0] if self._last_angle is None else self._last_angle
        unwrapped, cycles = cycle_unwrap(
            block, prev_angle=prev_angle, prev_cycles=self._last_cycles
        )
        self._last_angle = block[-1].copy()
        self._last_cycles = cycles[-1].copy()
        trend = self._trend.extend(unwrapped)
        detrended = unwrapped - trend
        denoised = self._noise.extend(detrended)
        self._unwrapped.extend(unwrapped)
        self._calibrated.extend(denoised)
        self._cycles.extend(cycles)

    def evict(self, n_rows: int) -> None:
        """Drop the oldest ``n_rows`` cached rows.

        Must be a multiple of the decimation factor so the decimation grid
        anchored at row 0 keeps its phase across evictions.
        """
        if n_rows % self._factor != 0:
            raise ConfigurationError(
                f"evictions must be multiples of the decimation factor "
                f"({self._factor}), got {n_rows}"
            )
        if n_rows <= 0:
            return
        self._unwrapped.evict(n_rows)
        self._calibrated.evict(n_rows)
        self._cycles.evict(n_rows)

    def unwrapped_window(self, start_row: int) -> FloatArray:
        """Unwrapped phase rows from ``start_row`` to the newest.

        A view, valid until the next :meth:`extend`.
        """
        return self._unwrapped.rows[start_row:]

    def calibrated_window(self, start_row: int) -> FloatArray:
        """Decimated calibrated rows covering ``[start_row, newest]``.

        The decimation grid is anchored at cache row 0 (kept rows sit at
        absolute indices ``0 mod factor``); the first kept row at or after
        ``start_row`` starts the window.  Returns a copy.
        """
        if start_row < 0:
            raise ConfigurationError(f"start_row must be >= 0, got {start_row}")
        first = -(-start_row // self._factor) * self._factor
        return self._calibrated.rows[first :: self._factor].copy()
