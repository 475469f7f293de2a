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

Window sizes are specified in *seconds* here and converted using the actual
trace rate, so captures at the paper's other rates (Fig. 13 sweeps 20, 200,
400, 600 Hz) are calibrated consistently; at 400 Hz the defaults reproduce
the paper's 2000/50/20 sample counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import FloatArray, check_arrays
from ..dsp.hampel import hampel_filter
from ..dsp.resample import decimate, downsampled_rate
from ..errors import ConfigurationError

__all__ = ["CalibrationConfig", "CalibratedData", "calibrate"]


@dataclass(frozen=True)
class CalibrationConfig:
    """Calibration parameters (paper defaults at 400 Hz).

    Attributes:
        trend_window_s: Hampel detrend window (2000 samples @ 400 Hz = 5 s).
        noise_window_s: Hampel denoise window (50 samples @ 400 Hz = 0.125 s).
        hampel_threshold: The paper's 0.01 — small enough that the filter
            degenerates to a rolling median, which is the intent.
        target_rate_hz: Output rate after downsampling (20 Hz in the paper);
            the decimation factor is ``round(input_rate / target_rate)``,
            floored at 1 so low-rate captures pass through unchanged.
    """

    trend_window_s: float = 5.0
    noise_window_s: float = 0.125
    hampel_threshold: float = 0.01
    target_rate_hz: float = 20.0

    def __post_init__(self) -> None:
        if self.trend_window_s <= 0 or self.noise_window_s <= 0:
            raise ConfigurationError("Hampel windows must be positive")
        if self.noise_window_s >= self.trend_window_s:
            raise ConfigurationError(
                "denoise window must be shorter than the trend window"
            )
        if self.hampel_threshold < 0:
            raise ConfigurationError("Hampel threshold must be >= 0")
        if self.target_rate_hz <= 0:
            raise ConfigurationError("target rate must be positive")

    def decimation_factor(self, input_rate_hz: float) -> int:
        """Integer decimation factor for a given capture rate."""
        if input_rate_hz <= 0:
            raise ConfigurationError(
                f"input rate must be positive, got {input_rate_hz}"
            )
        return max(1, int(round(input_rate_hz / self.target_rate_hz)))


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
    config: CalibrationConfig | None = None,
) -> CalibratedData:
    """Run the three-step calibration on unwrapped phase-difference data.

    Args:
        phase_diff: ``(n_packets, n_subcarriers)`` unwrapped phase
            differences from :func:`repro.core.phase_difference.phase_difference`.
        sample_rate_hz: Packet rate of the input.
        config: Calibration parameters (paper defaults when omitted).

    Returns:
        :class:`CalibratedData` at the target rate.
    """
    config = config if config is not None else CalibrationConfig()
    phase_diff = np.atleast_2d(np.asarray(phase_diff, dtype=float))
    if phase_diff.ndim != 2:
        raise ConfigurationError(
            f"phase differences must be 2-D (packets × subcarriers), "
            f"got {phase_diff.shape}"
        )
    n = phase_diff.shape[0]
    trend_window = max(3, int(round(config.trend_window_s * sample_rate_hz)))
    noise_window = max(3, int(round(config.noise_window_s * sample_rate_hz)))
    trend_window = min(trend_window, n)
    noise_window = min(noise_window, n)

    # All subcarrier columns in one call; each column is filtered exactly
    # as a 1-D series (the per-column equivalence test pins this).
    trend = hampel_filter(phase_diff, trend_window, config.hampel_threshold)
    detrended = phase_diff - trend
    calibrated = hampel_filter(detrended, noise_window, config.hampel_threshold)

    factor = config.decimation_factor(sample_rate_hz)
    if factor > 1:
        calibrated = decimate(calibrated, factor, axis=0)
    return CalibratedData(
        series=calibrated,
        sample_rate_hz=downsampled_rate(sample_rate_hz, factor),
        input_rate_hz=float(sample_rate_hz),
    )
