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

from dataclasses import dataclass

import numpy as np

from ..contracts import FloatArray, check_arrays
from ..dsp.stats import mean_absolute_deviation
from ..errors import ConfigurationError
from ..physio.motion import ActivityState

__all__ = [
    "EnvironmentConfig",
    "v_statistic",
    "windowed_v",
    "classify_v",
    "classify_windows",
    "EnvironmentDetector",
]


@dataclass(frozen=True)
class EnvironmentConfig:
    """Environment-detection parameters.

    Attributes:
        window_s: Sliding-window length in seconds (MAD is computed per
            window).
        hop_s: Window hop in seconds.
        stationary_band: (low, high) V thresholds: below low → empty room /
            no signal, inside → stationary person, above high → large motion.
    """

    window_s: float = 2.0
    hop_s: float = 1.0
    stationary_band: tuple[float, float] = (0.05, 1.0)

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.hop_s <= 0:
            raise ConfigurationError("window and hop must be positive")
        lo, hi = self.stationary_band
        if not 0 <= lo < hi:
            raise ConfigurationError(
                f"stationary band must satisfy 0 <= lo < hi, got {self.stationary_band}"
            )


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
    config: EnvironmentConfig,
    *,
    memo: dict[int, float] | None = None,
    first_row: int = 0,
) -> tuple[FloatArray, FloatArray]:
    """V statistic over hopping windows.

    Args:
        phase_diff: Unwrapped phase differences of the segment.
        sample_rate_hz: Their sample rate.
        config: Window geometry.
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
    window = max(2, int(round(config.window_s * sample_rate_hz)))
    hop = max(1, int(round(config.hop_s * sample_rate_hz)))
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


def classify_v(v: float, config: EnvironmentConfig) -> ActivityState:
    """Map one V value to an activity state.

    Below the band → :attr:`ActivityState.NO_PERSON` (no modulation at
    all); inside, edges included → :attr:`ActivityState.SITTING`
    (stationary, usable); above → :attr:`ActivityState.WALKING` (large
    motion — the detector cannot distinguish walking from standing up, and
    does not need to).  A NaN V (a NaN sample in the segment) is no
    evidence of a person and maps to NO_PERSON, never to SITTING.
    """
    lo, hi = config.stationary_band
    if not v >= lo:
        return ActivityState.NO_PERSON
    if v > hi:
        return ActivityState.WALKING
    return ActivityState.SITTING


def classify_windows(v: FloatArray, config: EnvironmentConfig) -> np.ndarray:  # phaselint: disable=PL002 -- object array of ActivityState
    """Map V values to activity states with :func:`classify_v`."""
    v = np.asarray(v, dtype=float)
    # Element-wise assignment keeps the enum objects intact (bulk fills of a
    # str-enum decay to plain strings under numpy's scalar coercion).
    out = np.empty(v.shape, dtype=object)
    for i, value in np.ndenumerate(v):
        out[i] = classify_v(value, config)
    return out


class EnvironmentDetector:
    """Stateful facade: is this segment usable for vital-sign estimation?"""

    def __init__(self, config: EnvironmentConfig | None = None):
        self.config = config if config is not None else EnvironmentConfig()

    def is_stationary(self, phase_diff: FloatArray) -> bool:
        """Whole-segment decision: V of the full segment inside the band."""
        state = classify_v(v_statistic(phase_diff), self.config)
        return state is ActivityState.SITTING

    def segment_report(
        self, phase_diff: FloatArray, sample_rate_hz: float
    ) -> tuple[FloatArray, FloatArray, np.ndarray]:  # phaselint: disable=PL002 -- states are an object array
        """Windowed analysis: ``(centers_s, v, states)``."""
        centers, v = windowed_v(phase_diff, sample_rate_hz, self.config)
        return centers, v, classify_windows(v, self.config)

    def stationary_fraction(
        self, phase_diff: FloatArray, sample_rate_hz: float
    ) -> float:
        """Fraction of windows classified stationary."""
        _, _, states = self.segment_report(phase_diff, sample_rate_hz)
        return float(
            np.mean([state is ActivityState.SITTING for state in states])
        )
