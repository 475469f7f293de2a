"""Environment Detection: keep only stationary segments (paper Eq. 8).

Vital signs are only readable while the person is stationary (sitting,
standing still, sleeping).  Walking or standing up swings the phase
difference by far more than chest motion does, and an empty room produces
almost no variation at all.  PhaseBeat computes the windowed mean absolute
deviation V of the phase-difference data and accepts a window as stationary
when V lies inside a threshold band.

Deviation from the paper, documented here and in DESIGN.md: Eq. 8 sums the
per-subcarrier deviations over all 30 subcarriers and normalizes only by the
window length; we normalize by the subcarrier count as well (V is then the
*average* per-subcarrier MAD), which makes the thresholds independent of how
many subcarriers a NIC reports.  The default band is calibrated on the
simulated lab scenario to play the same role as the paper's (0.25, 6).
"""

from __future__ import annotations

import numpy as np

from ..contracts import FloatArray, check_arrays
from ..dsp.stats import mean_absolute_deviation
from ..errors import ConfigurationError
from ..physio.motion import ActivityState

__all__ = [
    "STATIONARY_BAND",
    "V_HOP_S",
    "V_WINDOW_S",
    "v_statistic",
    "windowed_v",
    "classify_v",
    "classify_windows",
]


# Sliding-window geometry of the windowed V check (MAD per window).
V_WINDOW_S = 2.0
V_HOP_S = 1.0
# (low, high) V thresholds: below low -> empty room / no signal, inside ->
# stationary person, above high -> large motion.
STATIONARY_BAND = (0.05, 1.0)


@check_arrays(phase_diff="n_packets|n_packets,n_subcarriers")
def v_statistic(phase_diff: FloatArray) -> float:
    """The Eq. 8 deviation statistic of one window.

    Second documented deviation from the literal Eq. 8: the per-subcarrier
    MADs are combined with a *median* rather than a sum.  A person moving
    swings every subcarrier at once, so the median explodes exactly when
    the mean would; but one deep-faded subcarrier whose unwrapped phase
    random-walks (pure receiver noise) inflates only the mean — and must
    not masquerade as motion.

    Args:
        phase_diff: ``(n_packets, n_subcarriers)`` unwrapped phase
            differences of the window.

    Returns:
        Median over subcarriers of the per-subcarrier MAD.
    """
    phase_diff = np.atleast_2d(np.asarray(phase_diff, dtype=float))
    return float(np.median(mean_absolute_deviation(phase_diff, axis=0)))


@check_arrays(phase_diff="n_packets|n_packets,n_subcarriers")
def windowed_v(
    phase_diff: FloatArray,
    sample_rate_hz: float,
    *,
    memo: dict[int, float] | None = None,
    first_row: int = 0,
) -> tuple[FloatArray, FloatArray]:
    """V statistic over :data:`V_WINDOW_S` windows hopped by :data:`V_HOP_S`.

    Args:
        phase_diff: Unwrapped phase differences of the segment.
        sample_rate_hz: Their sample rate.
        memo: V of earlier sub-windows, keyed by absolute start row.  A
            caller whose rows never change under a given absolute index
            (the streaming engine's) passes the same dict every window;
            sub-windows found there are not recomputed, new ones are added.
        first_row: Absolute index of ``phase_diff``'s row 0 (memo keys).

    Returns:
        ``(centers_s, v)`` — window center times and their V values.
    """
    phase_diff = np.atleast_2d(np.asarray(phase_diff, dtype=float))
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    window = max(2, int(round(V_WINDOW_S * sample_rate_hz)))
    hop = max(1, int(round(V_HOP_S * sample_rate_hz)))
    n = phase_diff.shape[0]
    if n < window:
        raise ConfigurationError(
            f"segment of {n} packets shorter than one {window}-packet window"
        )
    centers = []
    values = []
    for start in range(0, n - window + 1, hop):
        stop = start + window
        centers.append((start + stop) / 2.0 / sample_rate_hz)
        if memo is None:
            values.append(v_statistic(phase_diff[start:stop]))
            continue
        key = first_row + start
        v = memo.get(key)
        if v is None:
            v = memo[key] = v_statistic(phase_diff[start:stop])
        values.append(v)
    return np.asarray(centers), np.asarray(values)


def classify_v(v: float) -> ActivityState:
    """Map one V value to an activity state against :data:`STATIONARY_BAND`.

    Below the band → :attr:`ActivityState.NO_PERSON` (no modulation at
    all); inside, edges included → :attr:`ActivityState.SITTING`
    (stationary, usable); above → :attr:`ActivityState.WALKING` (large
    motion — the detector cannot distinguish walking from standing up, and
    does not need to).  A NaN V (a NaN sample in the segment) is no
    evidence of a person and maps to NO_PERSON, never to SITTING.
    """
    lo, hi = STATIONARY_BAND
    if not v >= lo:
        return ActivityState.NO_PERSON
    if v > hi:
        return ActivityState.WALKING
    return ActivityState.SITTING


def classify_windows(v: FloatArray) -> np.ndarray:  # phaselint: disable=PL002 -- object array of ActivityState
    """Map V values to activity states with :func:`classify_v`."""
    v = np.asarray(v, dtype=float)
    # Element-wise assignment keeps the enum objects intact (bulk fills of a
    # str-enum decay to plain strings under numpy's scalar coercion).
    out = np.empty(v.shape, dtype=object)
    for i, value in np.ndenumerate(v):
        out[i] = classify_v(value)
    return out

