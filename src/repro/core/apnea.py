"""Breathing-cessation (apnea) detection on the breathing band.

The paper's introduction motivates vital-sign monitoring with sleep
disorders and SIDS — conditions whose signature is not a wrong *rate* but a
*pause*: the chest stops moving for ten seconds or more.  This module
extends the pipeline with the standard envelope-threshold detector used in
sleep studies: track the breathing-band envelope, flag intervals where it
collapses below a fraction of its typical level, and keep those longer than
a clinical minimum duration (10 s for adult apnea scoring).

The detector consumes the same DWT breathing-band signal the rate estimator
uses, so it composes with the existing pipeline output::

    result = PhaseBeat().process(trace, estimate_heart=False)
    events = detect_apnea(result.breathing_signal, 20.0)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import FloatArray
from ..dsp.hampel import rolling_median
from ..errors import ConfigurationError, SignalTooShortError

__all__ = [
    "DROP_FRACTION",
    "MERGE_GAP_S",
    "MIN_DURATION_S",
    "ApneaEvent",
    "breathing_envelope",
    "detect_apnea",
]


# Minimum cessation length to score an event (adult clinical scoring uses
# 10 s).
MIN_DURATION_S = 10.0
# The envelope must fall below this fraction of its reference (median)
# level to count as cessation; clinical criteria use a >= 90% airflow
# reduction, i.e. 0.1-0.3 here.
DROP_FRACTION = 0.3
# Cessation intervals separated by less than this merge into one event
# (brief envelope flickers don't split an apnea).
MERGE_GAP_S = 2.0


@dataclass(frozen=True)
class ApneaEvent:
    """One detected breathing cessation.

    Attributes:
        start_s: Event start (seconds into the signal).
        end_s: Event end.
        depth: Mean envelope level during the event relative to the
            reference level (0 = total cessation).
    """

    start_s: float
    end_s: float
    depth: float

    @property
    def duration_s(self) -> float:
        """Event length in seconds."""
        return self.end_s - self.start_s


def breathing_envelope(
    signal: FloatArray, sample_rate_hz: float, window_s: float = 4.0
) -> FloatArray:
    """Slowly varying amplitude envelope of the breathing-band signal.

    Rolling median of |signal| over about one breathing cycle: robust to
    the within-cycle zero crossings that a plain moving RMS would also
    survive, but additionally robust to isolated glitches.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ConfigurationError(f"expected a 1-D series, got {signal.shape}")
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be positive")
    window = max(3, int(round(window_s * sample_rate_hz)))
    return rolling_median(np.abs(signal), min(window, signal.size))


def detect_apnea(
    signal: FloatArray, sample_rate_hz: float
) -> list[ApneaEvent]:
    """Detect breathing-cessation events in a breathing-band signal.

    Args:
        signal: The DWT breathing-band reconstruction (or any series whose
            amplitude tracks chest motion).
        sample_rate_hz: Its sample rate.

    Returns:
        Events longer than :data:`MIN_DURATION_S`, time-ordered.

    Raises:
        SignalTooShortError: If the signal is shorter than one minimum
            event (nothing could ever be detected).
    """
    signal = np.asarray(signal, dtype=float)
    min_samples = int(round(MIN_DURATION_S * sample_rate_hz))
    if signal.size < min_samples:
        raise SignalTooShortError(min_samples, signal.size, "apnea input")

    envelope = breathing_envelope(signal, sample_rate_hz)
    # Reference level: the median envelope over the whole record.  For a
    # mostly-normal record this is the breathing amplitude; if the subject
    # stops breathing for most of the record, everything below threshold is
    # still flagged relative to the healthier portion.
    reference = float(np.median(envelope))
    if reference <= 0:
        return []
    below = envelope < DROP_FRACTION * reference

    events: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            events.append((start, i))
            start = None
    if start is not None:
        events.append((start, below.size))

    # Merge events separated by a short gap.
    merge_gap = int(round(MERGE_GAP_S * sample_rate_hz))
    merged: list[tuple[int, int]] = []
    for lo, hi in events:
        if merged and lo - merged[-1][1] <= merge_gap:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))

    out = []
    for lo, hi in merged:
        if hi - lo >= min_samples:
            depth = float(np.mean(envelope[lo:hi]) / reference)
            out.append(
                ApneaEvent(
                    start_s=lo / sample_rate_hz,
                    end_s=hi / sample_rate_hz,
                    depth=depth,
                )
            )
    return out
