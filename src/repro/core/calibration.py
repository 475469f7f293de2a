"""Data Calibration: detrend, denoise, and downsample (paper Section III-B2).

Three steps, applied per subcarrier:

1. *DC removal by Hampel detrending* — a large-window (2000 samples at
   400 Hz ≈ 5 s) Hampel filter with a tiny threshold tracks the slow
   baseline; subtracting it removes the DC component without touching the
   vital-sign band.
2. *High-frequency denoising* — a small-window (50 samples ≈ 0.125 s)
   Hampel filter smooths out packet-to-packet noise.
3. *Downsampling* — keep every 20th sample, 400 Hz → 20 Hz, shrinking
   10 000 packets to 500 and making the later DWT/FFT stages realtime-cheap.

Window sizes are specified in *seconds* and converted using the actual
trace rate, so captures at the paper's other rates (Fig. 13 sweeps 20, 200,
400, 600 Hz) are calibrated consistently; at 400 Hz they reproduce the
paper's 2000/50/20 sample counts exactly.  The values themselves
(:data:`~repro.dsp.hampel.TREND_WINDOW_S`,
:data:`~repro.dsp.hampel.NOISE_WINDOW_S`,
:data:`~repro.dsp.hampel.HAMPEL_THRESHOLD`,
:data:`~repro.dsp.resample.TARGET_RATE_HZ`) live in :mod:`repro.dsp`, where
the streaming engine reads them too without importing :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import FloatArray, check_arrays
from ..dsp.hampel import (
    HAMPEL_THRESHOLD,
    NOISE_WINDOW_S,
    TREND_WINDOW_S,
    hampel_filter,
)
from ..dsp.resample import decimate, decimation_factor, downsampled_rate
from ..errors import ConfigurationError

__all__ = ["CalibratedData", "calibrate"]


@dataclass(frozen=True)
class CalibratedData:
    """Output of the calibration stage.

    Attributes:
        series: ``(n_samples, n_subcarriers)`` calibrated phase-difference
            series at ``sample_rate_hz``.
        sample_rate_hz: Rate after downsampling.
        input_rate_hz: Rate of the raw data that was calibrated.
    """

    series: FloatArray
    sample_rate_hz: float
    input_rate_hz: float

    @property
    def n_samples(self) -> int:
        """Number of calibrated samples."""
        return int(self.series.shape[0])

    @property
    def n_subcarriers(self) -> int:
        """Number of subcarrier series."""
        return int(self.series.shape[1])


@check_arrays(phase_diff="n_packets|n_packets,n_subcarriers")
def calibrate(
    phase_diff: FloatArray,
    sample_rate_hz: float,
) -> CalibratedData:
    """Run the three-step calibration on unwrapped phase-difference data.

    Args:
        phase_diff: ``(n_packets, n_subcarriers)`` unwrapped phase
            differences from :func:`repro.core.phase_difference.phase_difference`.
        sample_rate_hz: Packet rate of the input.

    Returns:
        :class:`CalibratedData` at the target rate.
    """
    phase_diff = np.atleast_2d(np.asarray(phase_diff, dtype=float))
    if phase_diff.ndim != 2:
        raise ConfigurationError(
            f"phase differences must be 2-D (packets × subcarriers), "
            f"got {phase_diff.shape}"
        )
    n = phase_diff.shape[0]
    trend_window = max(3, int(round(TREND_WINDOW_S * sample_rate_hz)))
    noise_window = max(3, int(round(NOISE_WINDOW_S * sample_rate_hz)))
    trend_window = min(trend_window, n)
    noise_window = min(noise_window, n)

    # All subcarrier columns in one call; each column is filtered exactly
    # as a 1-D series (the per-column equivalence test pins this).
    trend = hampel_filter(phase_diff, trend_window, HAMPEL_THRESHOLD)
    detrended = phase_diff - trend
    calibrated = hampel_filter(detrended, noise_window, HAMPEL_THRESHOLD)

    factor = decimation_factor(sample_rate_hz)
    if factor > 1:
        calibrated = decimate(calibrated, factor, axis=0)
    return CalibratedData(
        series=calibrated,
        sample_rate_hz=downsampled_rate(sample_rate_hz, factor),
        input_rate_hz=float(sample_rate_hz),
    )
