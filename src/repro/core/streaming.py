"""Realtime (sliding-window) vital-sign monitoring, fault-tolerant.

The paper emphasizes that PhaseBeat runs in realtime: downsampling to 20 Hz
exists precisely to keep the per-window processing cheap.  This module
provides the streaming counterpart of :class:`~repro.core.pipeline.PhaseBeat`:
packets are pushed as they arrive, and once a full analysis window has
accumulated the estimator re-runs over the most recent window, hopping
forward by a configurable stride.

Unlike the paper's evaluation, a deployed monitor cannot assume the clean
400 pkt/s stream: frames drop, NICs reset, and timestamp counters glitch.
The monitor therefore

* **validates every packet** — non-finite CSI, non-finite timestamps, and
  backward timestamps are dropped (and counted), never buffered; a backward
  jump larger than the window is treated as a stream reset;
* **sizes windows by time, not packet count** — the buffer covers a true
  ``window_s`` seconds of capture even when half the packets are missing;
* **quality-gates every window** — windows containing a long gap or too few
  packets are rejected with a structured reason (``"data-gap"``,
  ``"degraded-input"``) instead of being fed to the estimator;
* **degrades gracefully** — a rejected window re-emits the last good
  estimate, flagged ``held_over`` with its staleness, until the
  ``holdover_s`` budget expires; once the fault slides out of the window,
  fresh estimates resume automatically;
* **checkpoints and restores** — :meth:`StreamingMonitor.checkpoint`
  snapshots the buffer and holdover state, and :meth:`~StreamingMonitor.restore`
  rebuilds a monitor that continues **bit-identically**, which is what lets
  :class:`repro.service.MonitorSupervisor` restart a crashed monitor without
  losing its analysis window.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Any

import numpy as np

from ..errors import (
    CheckpointError,
    ConfigurationError,
    EstimationError,
    NotStationaryError,
    SignalTooShortError,
    TraceFormatError,
)
from ..contracts import ComplexArray, IntArray
from ..dsp.streaming_kernels import (
    RowStore,
    StreamingCalibrator,
    trailing_window_samples,
)
from ..io_.quality import TraceQualityReport, assess_timestamps
from ..io_.trace import CSITrace
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..physio.motion import ActivityState
from .pipeline import PhaseBeat, PhaseBeatConfig
from .phase_difference import wrapped_pair_matrix
from .results import PhaseBeatResult
from .subcarrier_selection import amplitude_mask_from_mean

__all__ = ["StreamingConfig", "StreamingEstimate", "StreamingMonitor"]

# Checkpoint payload layout version; bumped whenever the monitor's internal
# state gains/loses fields so stale checkpoints fail loudly on restore.
_CHECKPOINT_VERSION = 2

# A window with fewer packets than this cannot support calibration + DWT
# regardless of its nominal span; it is rejected as degraded input.
_MIN_WINDOW_PACKETS = 16

# Per-step timing-anomaly threshold of the incremental path: an interval
# deviating from nominal by more than this fraction disqualifies the stream
# for the trailing engine until the step leaves the retained buffer.  Must
# match the ``uniform_tol`` default of
# :func:`repro.io_.quality.assess_timestamps` — the window-level gate the
# batch pipeline uses to decide reclocking.
_UNIFORM_TOL = 0.25


@dataclass(frozen=True)
class StreamingConfig:
    """Streaming parameters.

    Attributes:
        window_s: Analysis window length (seconds of packets kept).
        hop_s: How often a new estimate is emitted.
        n_persons: Subjects to resolve per window.
        estimate_heart: Also estimate heart rate per window.
        max_gap_s: Largest inter-packet gap tolerated inside a window;
            windows containing a longer dropout are rejected ``"data-gap"``.
        max_loss_fraction: Maximum tolerable packet loss (effective vs
            nominal rate) per window; above it the window is rejected
            ``"degraded-input"``.
        holdover_s: Staleness budget — how long a rejected window may
            re-emit the last good estimate (flagged ``held_over``) before
            the monitor reports no estimate at all.  Zero disables holdover.
        incremental: Run clean (uniformly-timed) windows through the
            incremental trailing-calibration engine instead of recomputing
            the whole window from scratch each hop.  Windows that fail the
            timing checks transparently fall back to the batch pipeline,
            so fault handling is unchanged; see ``docs/performance.md``.
    """

    window_s: float = 30.0
    hop_s: float = 5.0
    n_persons: int = 1
    estimate_heart: bool = False
    max_gap_s: float = 0.5
    max_loss_fraction: float = 0.25
    holdover_s: float = 30.0
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.hop_s <= 0:
            raise ConfigurationError("window and hop must be positive")
        if self.hop_s > self.window_s:
            raise ConfigurationError("hop must not exceed the window")
        if self.n_persons < 1:
            raise ConfigurationError("n_persons must be >= 1")
        if self.max_gap_s <= 0:
            raise ConfigurationError("max_gap_s must be positive")
        if not 0.0 <= self.max_loss_fraction < 1.0:
            raise ConfigurationError("max_loss_fraction must be in [0, 1)")
        if self.holdover_s < 0:
            raise ConfigurationError("holdover_s must be >= 0")


@dataclass(frozen=True)
class StreamingEstimate:
    """One emitted estimate.

    Attributes:
        time_s: Timestamp of the window's last packet.
        result: Full pipeline result for the window; on a rejected window
            this is the *held-over* last good result (``held_over`` True)
            while the staleness budget lasts, else ``None``.
        rejected_reason: Why the window produced no fresh result (``None``
            on success; ``"data-gap"``, ``"degraded-input"``,
            ``"not-stationary"`` or ``"estimation-failed"``).
        held_over: ``result`` is a re-emission of an earlier estimate, not
            an analysis of this window.
        staleness_s: Age of the held-over result (0 for fresh estimates).
        quality: Timing-quality report of the emitted window.
    """

    time_s: float
    result: PhaseBeatResult | None
    rejected_reason: str | None = None
    held_over: bool = False
    staleness_s: float = 0.0
    quality: TraceQualityReport | None = None

    @property
    def ok(self) -> bool:
        """Whether this window carries a usable (possibly stale) estimate."""
        return self.result is not None

    @property
    def fresh(self) -> bool:
        """Whether this window was itself successfully analyzed."""
        return self.result is not None and not self.held_over


class StreamingMonitor:
    """Push-based sliding-window monitor.

    Args:
        sample_rate_hz: Nominal packet rate of the incoming stream.
        config: Streaming parameters.
        pipeline_config: Parameters for the underlying pipeline.
        instrumentation: Optional :class:`repro.obs.Instrumentation`,
            shared with the wrapped pipeline; records window latency,
            quality-gate rejections, holdovers, and per-packet drop
            counters.  Never serialized into checkpoints — a restored
            monitor keeps its own instrumentation.

    Attributes:
        counters: Running tallies of the faults absorbed so far — keys
            ``packets_in``, ``dropped_nonfinite_csi``,
            ``dropped_nonfinite_timestamp``, ``dropped_backward_timestamp``,
            ``stream_resets``.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        config: StreamingConfig | None = None,
        pipeline_config: PhaseBeatConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        self.sample_rate_hz = float(sample_rate_hz)
        self.config = config if config is not None else StreamingConfig()
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._pipeline = PhaseBeat(pipeline_config, instrumentation=self._obs)
        # One nominal packet interval: the slack that makes "span >= window"
        # and "hop elapsed" robust to the last packet landing one tick short
        # of the exact boundary (a stream sampled at t = k/rate reaches
        # 30 s worth of packets at t = 29.9975, not 30.0).
        self._eps = 1.0 / self.sample_rate_hz
        self._buffer: deque = deque()
        self._times: deque = deque()
        self._subcarrier_indices: np.ndarray | None = None
        self._packet_shape: tuple[int, int] | None = None
        self._last_time: float | None = None
        self._last_emit_time: float | None = None
        self._last_good_time: float | None = None
        self._last_good_result: PhaseBeatResult | None = None
        # Incremental-mode state.  The trailing engine's caches stay in
        # lockstep with the packet buffer (row i of each ↔ buffer[i]); the
        # buffer additionally retains enough pre-window context that an
        # engine rebuilt from it alone reproduces the running engine's
        # values bitwise inside the analysis window (see
        # StreamingCalibrator.rebuild_context_samples).
        calibration = self._pipeline.config.calibration
        self._incremental = bool(self.config.incremental)
        self._decimation = calibration.decimation_factor(self.sample_rate_hz)
        try:
            trend_w = trailing_window_samples(
                calibration.trend_window_s, self.sample_rate_hz
            )
            noise_w = trailing_window_samples(
                calibration.noise_window_s, self.sample_rate_hz
            )
            if noise_w >= trend_w:
                raise ConfigurationError(
                    "denoise window must be shorter than the trend window"
                )
        except ConfigurationError:
            # The calibration windows cannot be expressed as trailing
            # kernels at this rate; run every window through the batch path.
            self._incremental = False
            trend_w = noise_w = 1
        self._context_rows = 2 * (trend_w - 1) + 2 * (noise_w - 1)
        self._engine: StreamingCalibrator | None = None
        self._amps: RowStore | None = None
        self._pairs: list[tuple[int, int]] | None = None
        self._win_start = 0
        self._anomaly_time: float | None = None
        self._restored_cycles: IntArray | None = None
        # Operational (non-checkpointed) overload control: the effective
        # hop is config.hop_s * _hop_stretch, so an overloaded service can
        # emit less often without changing window geometry mid-stream.
        self._hop_stretch = 1.0
        self.counters: dict[str, int] = {
            "packets_in": 0,
            "dropped_nonfinite_csi": 0,
            "dropped_nonfinite_timestamp": 0,
            "dropped_backward_timestamp": 0,
            "stream_resets": 0,
        }

    def push_packet(
        self, csi_packet: ComplexArray, timestamp_s: float
    ) -> StreamingEstimate | None:
        """Feed one packet; returns an estimate when a hop completes.

        Malformed packets (non-finite CSI or timestamp, backward timestamp)
        are dropped and counted rather than buffered; a backward jump larger
        than the window is treated as a stream reset (NIC rebooted, counter
        restarted) and the monitor starts over.

        Args:
            csi_packet: Complex CSI of one packet, shape
                ``(n_rx, n_subcarriers)``.
            timestamp_s: Capture time of the packet.

        Returns:
            A :class:`StreamingEstimate` when enough new capture time has
            elapsed, otherwise ``None``.

        Raises:
            ConfigurationError: The packet is not a 2-D array.
            TraceFormatError: The packet shape changed mid-stream.
        """
        csi_packet = np.asarray(csi_packet)
        if csi_packet.ndim != 2:
            raise ConfigurationError(
                f"packet must be (n_rx, n_subcarriers), got {csi_packet.shape}"
            )
        shape = (int(csi_packet.shape[0]), int(csi_packet.shape[1]))
        if self._packet_shape is None:
            self._packet_shape = shape
            self._subcarrier_indices = np.arange(shape[1])
        elif shape != self._packet_shape:
            raise TraceFormatError(
                f"packet shape changed mid-stream: expected "
                f"{self._packet_shape}, got {shape}"
            )
        self.counters["packets_in"] += 1

        timestamp_s = float(timestamp_s)
        if not np.isfinite(timestamp_s):
            self.counters["dropped_nonfinite_timestamp"] += 1
            self._count_drop("nonfinite-timestamp")
            return None
        if not np.all(np.isfinite(csi_packet)):
            self.counters["dropped_nonfinite_csi"] += 1
            self._count_drop("nonfinite-csi")
            return None
        if self._last_time is not None and timestamp_s < self._last_time:
            if self._last_time - timestamp_s > self.config.window_s:
                # The clock went back further than the whole window: this is
                # a counter restart, not a glitch.  Start a fresh stream.
                self._reset_stream()
                self.counters["stream_resets"] += 1
                self._obs.count(
                    "monitor_stream_resets_total",
                    help_text="Backward clock jumps treated as stream resets.",
                )
            else:
                self.counters["dropped_backward_timestamp"] += 1
                self._count_drop("backward-timestamp")
                return None

        if self._incremental and self._last_time is not None:
            step = (timestamp_s - self._last_time) * self.sample_rate_hz
            if abs(step - 1.0) > _UNIFORM_TOL:
                # Timing anomaly: the trailing engine (which treats rows as
                # uniform samples) is invalid until this step leaves the
                # retained buffer; windows fall back to the batch path.
                self._anomaly_time = timestamp_s
                self._drop_engine()
        self._buffer.append(csi_packet)
        self._times.append(timestamp_s)
        self._last_time = timestamp_s
        # Time-based window: evict until the buffer spans at most window_s,
        # so a lossy stream still analyzes a true window_s seconds.  The
        # incremental mode retains pre-window context for the trailing
        # engine instead (evicted in _evict_retained at emit time) and only
        # advances the window-start pointer here — the pointed-to packet set
        # is identical to the evicting loop's by construction.
        if self._incremental:
            while (
                self._win_start < len(self._times) - 1
                and self._times[-1] - self._times[self._win_start]
                > self.config.window_s + self._eps
            ):
                self._win_start += 1
        else:
            while (
                len(self._times) > 1
                and self._times[-1] - self._times[0]
                > self.config.window_s + self._eps
            ):
                self._buffer.popleft()
                self._times.popleft()

        span = self._times[-1] - self._times[self._win_start]
        if span < self.config.window_s - self._eps:
            return None
        effective_hop_s = self.config.hop_s * self._hop_stretch
        if (
            self._last_emit_time is not None
            and timestamp_s - self._last_emit_time < effective_hop_s - self._eps
        ):
            return None
        self._last_emit_time = timestamp_s
        return self._emit()

    def push_trace(self, trace: CSITrace) -> list[StreamingEstimate]:
        """Feed a whole trace packet-by-packet; collect all estimates.

        Accepts impaired traces (lossy, glitched) — per-packet validation
        drops what cannot be used, exactly as it would live.
        """
        estimates = []
        for k in range(trace.n_packets):
            out = self.push_packet(trace.csi[k], float(trace.timestamps_s[k]))
            if out is not None:
                estimates.append(out)
        return estimates

    @property
    def hop_stretch(self) -> float:
        """Current hop-widening factor (1.0 = the configured cadence)."""
        return self._hop_stretch

    def set_hop_stretch(self, stretch: float) -> None:
        """Widen (or restore) the emission cadence without reconfiguring.

        The effective hop becomes ``config.hop_s * stretch``; window
        geometry, gating, and checkpoints are untouched, so overload
        throttling can be applied and lifted mid-stream.  This is
        operational state: it is deliberately *not* checkpointed — a
        restored monitor starts back at the configured cadence unless its
        supervisor re-applies the stretch.

        Args:
            stretch: Multiplier >= 1 applied to ``config.hop_s``.
        """
        if stretch < 1.0:
            raise ConfigurationError(
                f"hop stretch must be >= 1, got {stretch}"
            )
        self._hop_stretch = float(stretch)

    def window_trace(self) -> CSITrace | None:
        """The current buffer as a trace (``None`` with < 2 packets).

        Built ``strict=False`` because a buffered window may legitimately
        carry the degraded timing the quality gates rejected it for — the
        fallback estimators in :mod:`repro.service` analyze exactly those
        windows.
        """
        if len(self._buffer) - self._win_start < 2:
            return None
        return CSITrace(
            csi=np.stack(list(islice(self._buffer, self._win_start, None))),
            timestamps_s=np.asarray(self._times)[self._win_start :],
            sample_rate_hz=self.sample_rate_hz,
            subcarrier_indices=self._subcarrier_indices,
            meta={"streaming_window": True},
            strict=False,
        )

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the monitor's full mutable state.

        The returned dict is self-contained (arrays and results are
        copied): mutating the monitor afterwards does not corrupt it.  A
        monitor constructed with the same configuration and then
        :meth:`restore`-d from this snapshot produces **bit-identical**
        estimates to one that was never interrupted.
        """
        return {
            "version": _CHECKPOINT_VERSION,
            "sample_rate_hz": self.sample_rate_hz,
            "config": asdict(self.config),
            "packet_shape": self._packet_shape,
            "subcarrier_indices": (
                None
                if self._subcarrier_indices is None
                else self._subcarrier_indices.copy()
            ),
            "buffer": [packet.copy() for packet in self._buffer],
            "times": list(self._times),
            "last_time": self._last_time,
            "last_emit_time": self._last_emit_time,
            "last_good_time": self._last_good_time,
            "last_good_result": copy.deepcopy(self._last_good_result),
            "counters": dict(self.counters),
            # Incremental-engine state.  Only the integer unwrap anchor
            # (cycle counts at the buffer's first packet) is serialized:
            # every float cache is a pure function of the buffered packets
            # and is rebuilt bit-identically from them on restore, but the
            # anchor is path history a truncated buffer cannot reproduce.
            "engine_cycles": (
                self._engine.base_cycles
                if self._engine is not None
                else (
                    None
                    if self._restored_cycles is None
                    else self._restored_cycles.copy()
                )
            ),
            "anomaly_time": self._anomaly_time,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Load a :meth:`checkpoint` snapshot into this monitor.

        The monitor must have been constructed with the same sample rate
        and streaming configuration the checkpoint was taken under;
        anything else would silently change window geometry mid-stream.

        Raises:
            CheckpointError: The snapshot is malformed, from a different
                checkpoint format version, or incompatible with this
                monitor's configuration.
        """
        try:
            version = state["version"]
            if version != _CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {version} != supported "
                    f"{_CHECKPOINT_VERSION}"
                )
            if state["sample_rate_hz"] != self.sample_rate_hz:
                raise CheckpointError(
                    f"checkpoint rate {state['sample_rate_hz']} Hz != "
                    f"monitor rate {self.sample_rate_hz} Hz"
                )
            if state["config"] != asdict(self.config):
                raise CheckpointError(
                    "checkpoint was taken under a different streaming "
                    "configuration"
                )
            buffer = [np.asarray(p) for p in state["buffer"]]
            times = [float(t) for t in state["times"]]
            if len(buffer) != len(times):
                raise CheckpointError(
                    f"checkpoint buffer has {len(buffer)} packets but "
                    f"{len(times)} timestamps"
                )
            packet_shape = state["packet_shape"]
            for packet in buffer:
                if packet_shape is not None and packet.shape != tuple(
                    packet_shape
                ):
                    raise CheckpointError(
                        f"checkpoint packet shape {packet.shape} != "
                        f"recorded {tuple(packet_shape)}"
                    )
            self._packet_shape = (
                None if packet_shape is None else tuple(packet_shape)
            )
            self._subcarrier_indices = (
                None
                if state["subcarrier_indices"] is None
                else np.asarray(state["subcarrier_indices"], dtype=int)
            )
            self._buffer = deque(packet.copy() for packet in buffer)
            self._times = deque(times)
            self._last_time = state["last_time"]
            self._last_emit_time = state["last_emit_time"]
            self._last_good_time = state["last_good_time"]
            self._last_good_result = copy.deepcopy(state["last_good_result"])
            self.counters = dict(state["counters"])
            cycles = state["engine_cycles"]
            self._anomaly_time = state["anomaly_time"]
            # The engine itself is never serialized; it is rebuilt lazily
            # from the buffer at the next clean emit, re-anchored on the
            # checkpointed cycle counts so the restored run stays
            # bit-identical to an uninterrupted one.
            self._engine = None
            self._amps = None
            self._restored_cycles = (
                None if cycles is None else np.asarray(cycles, dtype=np.int64)
            )
            # Replay the window-start pointer: with monotone buffered times
            # the per-push advance is equivalent to this scan.
            self._win_start = 0
            if self._incremental and len(times) > 1:
                # Same float expression as the per-push advance, so boundary
                # packets resolve identically to the uninterrupted run.
                while (
                    self._win_start < len(times) - 1
                    and times[-1] - times[self._win_start]
                    > self.config.window_s + self._eps
                ):
                    self._win_start += 1
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint: {exc}"
            ) from exc

    def _count_drop(self, reason: str) -> None:
        """Mirror one dropped-packet tally into the metrics registry."""
        self._obs.count(
            "monitor_dropped_packets_total",
            labels={"reason": reason},
            help_text="Malformed packets dropped before buffering.",
        )

    def _reset_stream(self) -> None:
        """Forget everything tied to the old clock base."""
        self._buffer.clear()
        self._times.clear()
        self._last_time = None
        self._last_emit_time = None
        self._last_good_time = None
        self._last_good_result = None
        self._win_start = 0
        self._anomaly_time = None
        self._drop_engine()

    def _drop_engine(self) -> None:
        """Invalidate the trailing engine (and any restored unwrap anchor)."""
        self._engine = None
        self._amps = None
        self._restored_cycles = None

    def _reject(
        self, t_end: float, reason: str, quality: TraceQualityReport | None
    ) -> StreamingEstimate:
        """A structured rejection, holding over the last good estimate
        while the staleness budget allows."""
        self._obs.count(
            "monitor_rejected_windows_total",
            labels={"reason": reason},
            help_text="Windows rejected by quality gates or the estimator.",
        )
        if self._last_good_result is not None and self._last_good_time is not None:
            staleness = t_end - self._last_good_time
            if 0.0 <= staleness <= self.config.holdover_s:
                self._obs.count(
                    "monitor_holdover_windows_total",
                    help_text="Rejected windows that re-emitted a stale "
                    "estimate.",
                )
                return StreamingEstimate(
                    t_end,
                    self._last_good_result,
                    rejected_reason=reason,
                    held_over=True,
                    staleness_s=staleness,
                    quality=quality,
                )
        return StreamingEstimate(
            t_end, None, rejected_reason=reason, quality=quality
        )

    def _emit(self) -> StreamingEstimate:
        with self._obs.stage("window_emit", component="monitor"):
            if self._incremental:
                estimate = self._emit_incremental()
            else:
                estimate = self._emit_window()
        self._obs.gauge_set(
            "monitor_buffer_depth_packets",
            len(self._buffer),
            help_text="Packets currently buffered in the analysis window.",
        )
        return estimate

    def _emit_incremental(self) -> StreamingEstimate:
        """Dispatch one window to the trailing engine or the batch fallback.

        The engine serves only windows with clean, uniform timing (the same
        per-step tolerance the batch pipeline uses to decide reclocking —
        and no anomaly anywhere in the retained context, since the engine
        treats buffered rows as uniform samples).  Everything else takes
        the exact batch path of the non-incremental monitor.  Either way
        the buffer is trimmed afterwards to the analysis window plus the
        engine's rebuild context.
        """
        times = np.asarray(self._times)
        t_end = float(times[-1])
        if (
            self._anomaly_time is not None
            and float(times[0]) >= self._anomaly_time
        ):
            self._anomaly_time = None
        window_times = times[self._win_start :]
        quality = assess_timestamps(window_times, self.sample_rate_hz)
        try:
            gates_ok = (
                quality.max_gap_s <= self.config.max_gap_s
                and window_times.size >= _MIN_WINDOW_PACKETS
                and quality.loss_fraction <= self.config.max_loss_fraction
            )
            if gates_ok and self._anomaly_time is None and quality.is_uniform:
                self._obs.count(
                    "monitor_incremental_windows_total",
                    help_text="Windows served by the incremental engine.",
                )
                return self._emit_from_engine(t_end, quality)
            if gates_ok:
                self._obs.count(
                    "monitor_fallback_windows_total",
                    help_text="Clean-gate windows that required the batch "
                    "path (degraded timing in the window or its context).",
                )
            return self._emit_window()
        finally:
            self._evict_retained()

    def _emit_from_engine(
        self, t_end: float, quality: TraceQualityReport
    ) -> StreamingEstimate:
        cfg = self.config
        pipeline_cfg = self._pipeline.config
        n_sub = self._packet_shape[1]
        if self._pairs is None:
            self._pairs = self._pipeline._antenna_pairs(self._packet_shape[0])
        with self._obs.stage("incremental_advance", component="monitor"):
            engine = self._engine
            if engine is None:
                engine = self._rebuild_engine(n_sub)
                self._engine = engine
            elif engine.n_rows < len(self._buffer):
                block = np.stack(list(islice(self._buffer, engine.n_rows, None)))
                engine.extend(wrapped_pair_matrix(block, self._pairs))
                self._amps.extend(np.abs(block))
        idx0 = self._win_start
        with self._obs.stage("incremental_estimate", component="monitor"):
            unwrapped = engine.unwrapped_window(idx0)
            v, state = self._pipeline.classify_environment(
                unwrapped[:, :n_sub], self.sample_rate_hz
            )
            if (
                pipeline_cfg.enforce_stationarity
                and state is not ActivityState.SITTING
            ):
                self._obs.count(
                    "pipeline_not_stationary_total",
                    help_text="Traces rejected by environment detection.",
                )
                return self._reject(t_end, "not-stationary", quality)
            amp_mean = self._amps.rows[idx0:].mean(axis=0)
            mask = np.concatenate(
                [
                    amplitude_mask_from_mean(amp_mean, pair)
                    for pair in self._pairs
                ]
            )
            try:
                result = self._pipeline.estimate_from_matrix(
                    engine.calibrated_window(idx0),
                    mask,
                    engine.calibrated_rate_hz,
                    antenna_pairs=self._pairs,
                    n_subcarriers=n_sub,
                    v_statistic_value=v,
                    environment_state=state,
                    n_persons=cfg.n_persons,
                    estimate_heart=cfg.estimate_heart,
                    reclocked=False,
                    input_loss_fraction=quality.loss_fraction,
                )
            except (EstimationError, SignalTooShortError):
                return self._reject(t_end, "estimation-failed", quality)
        self._last_good_time = t_end
        self._last_good_result = result
        self._obs.count(
            "monitor_fresh_windows_total",
            help_text="Windows analyzed successfully with a fresh estimate.",
        )
        return StreamingEstimate(t_end, result, quality=quality)

    def _rebuild_engine(self, n_subcarriers: int) -> StreamingCalibrator:
        """Fresh trailing engine over the whole retained buffer.

        Deterministic given the buffer and the unwrap anchor, which is what
        makes checkpoints restore-safe: the restored monitor rebuilds here
        and lands on the exact caches of the engine it replaces.
        """
        calibration = self._pipeline.config.calibration
        engine = StreamingCalibrator(
            self.sample_rate_hz,
            len(self._pairs) * n_subcarriers,
            trend_window_s=calibration.trend_window_s,
            noise_window_s=calibration.noise_window_s,
            hampel_threshold=calibration.hampel_threshold,
            decimation_factor=self._decimation,
            initial_cycles=self._restored_cycles,
        )
        block = np.stack(self._buffer)
        engine.extend(wrapped_pair_matrix(block, self._pairs))
        self._amps = RowStore(block.shape[1:], float)
        self._amps.extend(np.abs(block))
        self._restored_cycles = None
        self._obs.count(
            "monitor_engine_rebuilds_total",
            help_text="Trailing-engine rebuilds from the retained buffer.",
        )
        return engine

    def _evict_retained(self) -> None:
        """Trim rows no longer needed as engine rebuild context.

        Keeps ``_context_rows`` rows ahead of the analysis window (so a
        rebuild from the remaining buffer stays exact inside the window)
        and evicts in decimation-factor multiples (so the engine's
        decimation grid, anchored at row 0, keeps its phase); engine and
        amplitude caches shrink in lockstep with the buffer.
        """
        limit = self._win_start - self._context_rows
        if self._engine is not None:
            limit = min(limit, self._engine.n_rows)
        n_evict = (limit // self._decimation) * self._decimation
        if n_evict <= 0:
            return
        for _ in range(n_evict):
            self._buffer.popleft()
            self._times.popleft()
        self._win_start -= n_evict
        if self._engine is not None:
            self._engine.evict(n_evict)
            self._amps.evict(n_evict)
        elif self._restored_cycles is not None:
            # The anchor described the old buffer front; no retained row
            # carries it any more.
            self._restored_cycles = None

    def _emit_window(self) -> StreamingEstimate:
        times = np.asarray(self._times)[self._win_start :]
        t_end = float(times[-1])
        quality = assess_timestamps(times, self.sample_rate_hz)
        if quality.max_gap_s > self.config.max_gap_s:
            return self._reject(t_end, "data-gap", quality)
        if (
            times.size < _MIN_WINDOW_PACKETS
            or quality.loss_fraction > self.config.max_loss_fraction
        ):
            return self._reject(t_end, "degraded-input", quality)

        window = CSITrace(
            csi=np.stack(list(islice(self._buffer, self._win_start, None))),
            timestamps_s=times,
            sample_rate_hz=self.sample_rate_hz,
            subcarrier_indices=self._subcarrier_indices,
            meta={"streaming_window": True},
        )
        try:
            result = self._pipeline.process(
                window,
                n_persons=self.config.n_persons,
                estimate_heart=self.config.estimate_heart,
            )
        except NotStationaryError:
            return self._reject(t_end, "not-stationary", quality)
        except (EstimationError, SignalTooShortError):
            return self._reject(t_end, "estimation-failed", quality)
        self._last_good_time = t_end
        self._last_good_result = result
        self._obs.count(
            "monitor_fresh_windows_total",
            help_text="Windows analyzed successfully with a fresh estimate.",
        )
        return StreamingEstimate(t_end, result, quality=quality)
