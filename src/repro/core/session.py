"""Session-level monitoring reports: one call from trace to summary.

Combines the pieces a long-term monitoring deployment actually wants from a
night (or any long stationary session): breathing-rate statistics over
time, waveform variability, apnea events, heart rate when available, and
how much of the session was usable at all (environment detection).  This is
the highest-level convenience API in the library — everything it reports is
computed by the underlying modules and traceable through the returned
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import FloatArray
from ..errors import (
    ConfigurationError,
    EstimationError,
    NotStationaryError,
    ReproError,
)
from ..io_.trace import CSITrace
from .apnea import ApneaConfig, ApneaEvent, detect_apnea
from .environment import EnvironmentDetector
from .phase_difference import phase_difference
from .pipeline import PhaseBeat, PhaseBeatConfig
from .streaming import StreamingConfig, StreamingMonitor
from .waveform import BreathingWaveformStats, analyze_waveform

__all__ = ["SessionReport", "analyze_session"]


@dataclass(frozen=True)
class SessionReport:
    """Summary of one monitoring session.

    Attributes:
        duration_s: Session length.
        stationary_fraction: Fraction of 2-second windows environment
            detection classified as stationary/usable.
        breathing_rate_bpm: Whole-session breathing estimate (``nan`` when
            the session produced no usable estimate).
        rate_over_time_bpm: ``(times_s, rates_bpm)`` from the sliding-window
            monitor — the rate trend across the session.
        waveform: Per-breath statistics (``None`` if too few breaths).
        apnea_events: Detected breathing cessations.
        heart_rate_bpm: Heart estimate, or ``nan`` when unavailable.
        n_windows_rejected: Sliding windows rejected (motion / empty room).
    """

    duration_s: float
    stationary_fraction: float
    breathing_rate_bpm: float
    rate_over_time_bpm: tuple[FloatArray, FloatArray]
    waveform: BreathingWaveformStats | None
    apnea_events: tuple[ApneaEvent, ...]
    heart_rate_bpm: float
    n_windows_rejected: int

    @property
    def apnea_index_per_hour(self) -> float:
        """Apnea events per hour of session (the clinical AHI numerator)."""
        if self.duration_s <= 0:
            return 0.0
        return len(self.apnea_events) * 3600.0 / self.duration_s


def analyze_session(
    trace: CSITrace,
    *,
    window_s: float = 30.0,
    hop_s: float = 10.0,
    estimate_heart: bool = False,
    apnea_config: ApneaConfig | None = None,
) -> SessionReport:
    """Produce a :class:`SessionReport` from one long capture.

    Args:
        trace: The session capture (≥ 2 × ``window_s`` recommended).
        window_s: Sliding analysis window for the rate trend.
        hop_s: Trend resolution.
        estimate_heart: Also estimate the session heart rate.
        apnea_config: Apnea-detection parameters.

    Returns:
        The assembled report.

    Raises:
        ConfigurationError: If the trace is shorter than one window.
    """
    if trace.duration_s < window_s:
        raise ConfigurationError(
            f"session of {trace.duration_s:.1f}s is shorter than one "
            f"{window_s:.0f}s analysis window"
        )
    # Stationarity is not enforced: the report itself carries the
    # usability figures.
    pipeline_config = PhaseBeatConfig(enforce_stationarity=False)
    pipeline = PhaseBeat(pipeline_config)

    # Usability: windowed environment detection over the whole session.
    detector = EnvironmentDetector()
    diff = phase_difference(trace)
    stationary_fraction = detector.stationary_fraction(
        diff, trace.sample_rate_hz
    )

    # Whole-session estimate + band signals.
    breathing_bpm = float("nan")
    heart_bpm = float("nan")
    waveform: BreathingWaveformStats | None = None
    apnea_events: tuple[ApneaEvent, ...] = ()
    try:
        result = pipeline.process(trace, estimate_heart=estimate_heart)
        breathing_bpm = result.breathing_rates_bpm[0]
        if result.heart_rate_bpm is not None:
            heart_bpm = result.heart_rate_bpm
        rate = result.diagnostics.calibrated_rate_hz
        try:
            waveform = analyze_waveform(result.breathing_signal, rate)
        except EstimationError:
            waveform = None
        try:
            apnea_events = tuple(
                detect_apnea(result.breathing_signal, rate, apnea_config)
            )
        except ReproError:
            apnea_events = ()
    except (EstimationError, NotStationaryError):
        pass

    # Rate trend via the streaming monitor.
    monitor = StreamingMonitor(
        trace.sample_rate_hz,
        StreamingConfig(window_s=window_s, hop_s=hop_s),
        pipeline_config,
    )
    times, rates = [], []
    rejected = 0
    for estimate in monitor.push_trace(trace):
        if estimate.ok:
            times.append(estimate.time_s)
            rates.append(estimate.result.breathing_rates_bpm[0])
        else:
            rejected += 1

    return SessionReport(
        duration_s=trace.duration_s,
        stationary_fraction=stationary_fraction,
        breathing_rate_bpm=breathing_bpm,
        rate_over_time_bpm=(np.asarray(times), np.asarray(rates)),
        waveform=waveform,
        apnea_events=apnea_events,
        heart_rate_bpm=heart_bpm,
        n_windows_rejected=rejected,
    )
