"""CSI-ratio sensing (the FarSense-style successor to phase difference).

PhaseBeat uses only the *phase* of the cross-antenna quotient.  Later work
(FarSense, MobiCom '19-era) showed the full **complex ratio**

```
r_i(t) = CSI_i^(a)(t) / CSI_i^(b)(t)
```

cancels the same per-packet hardware terms (they multiply both chains
identically) while keeping two observables — the real and imaginary parts
of the breathing-driven arc the ratio traces in the complex plane.  When
the chest modulation sits at a *phase* null (the rate-doubling failure mode
of pure phase methods), the motion still shows up in the magnitude
direction; projecting the complex fluctuation onto its principal component
recovers the breathing waveform at any operating point.

This module implements that estimator on top of the existing calibration
machinery, as a second beyond-the-paper extension and a robustness
comparison point for the ablation suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.breathing import BREATHING_SEARCH_BAND_HZ, PeakBreathingEstimator
from ..dsp.hampel import hampel_filter
from ..dsp.resample import decimate, downsampled_rate
from ..contracts import ComplexArray, FloatArray
from ..errors import ConfigurationError, EstimationError
from ..io_.trace import CSITrace

__all__ = ["CsiRatioConfig", "CsiRatioEstimator", "csi_ratio_series"]


def csi_ratio_series(
    trace: CSITrace,
    antenna_pair: tuple[int, int] = (0, 1),
    *,
    epsilon: float = 1e-9,
) -> ComplexArray:
    """Complex cross-antenna CSI ratio per packet and subcarrier.

    Args:
        trace: The capture.
        antenna_pair: (numerator, denominator) chains.
        epsilon: Denominator regularization — a deep-faded denominator
            sample otherwise explodes the ratio.

    Returns:
        ``(n_packets, n_subcarriers)`` complex ratios.
    """
    a, b = antenna_pair
    if a == b:
        raise ConfigurationError("antenna pair must name two distinct chains")
    for idx in (a, b):
        if not 0 <= idx < trace.n_rx:
            raise ConfigurationError(
                f"antenna index {idx} out of range for {trace.n_rx} chains"
            )
    numerator = trace.csi[:, a, :]
    denominator = trace.csi[:, b, :]
    return numerator * np.conj(denominator) / (
        np.abs(denominator) ** 2 + epsilon
    )


def _principal_component_series(ratio: ComplexArray) -> FloatArray:
    """Project a complex series' fluctuation on its principal axis.

    Stacks the (mean-removed) real and imaginary parts as a 2-D point
    cloud and returns the coordinates along the dominant eigenvector of
    its covariance — the direction the breathing arc actually moves in,
    whatever the operating point.
    """
    centered = ratio - ratio.mean()
    points = np.column_stack([centered.real, centered.imag])
    covariance = points.T @ points / max(points.shape[0] - 1, 1)
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    principal = eigenvectors[:, int(np.argmax(eigenvalues))]
    return points @ principal


@dataclass(frozen=True)
class CsiRatioConfig:
    """CSI-ratio estimator parameters.

    Attributes:
        antenna_pair: Chains forming the ratio.
        trend_window_s: Hampel detrend window (as in the paper pipeline).
        noise_window_s: Hampel denoise window.
        target_rate_hz: Processing rate after decimation.
        band_hz: Breathing search band.
    """

    antenna_pair: tuple[int, int] = (0, 1)
    trend_window_s: float = 5.0
    noise_window_s: float = 0.125
    target_rate_hz: float = 20.0
    band_hz: tuple[float, float] = BREATHING_SEARCH_BAND_HZ

    def __post_init__(self) -> None:
        if self.trend_window_s <= self.noise_window_s:
            raise ConfigurationError(
                "trend window must exceed the noise window"
            )
        if self.target_rate_hz <= 0:
            raise ConfigurationError("target rate must be positive")


class CsiRatioEstimator:
    """Breathing estimation from the complex CSI ratio's principal axis."""

    def __init__(self, config: CsiRatioConfig | None = None):
        self.config = config if config is not None else CsiRatioConfig()

    def breathing_series(self, trace: CSITrace) -> tuple[FloatArray, float]:
        """The calibrated principal-axis series and its sample rate.

        Form the complex ratio and Hampel denoise, then detrend, its real
        and imaginary parts: all subcarriers go through one matrix call per
        Hampel window.  Then, per subcarrier, decimate to the processing rate and project
        the fluctuation on its principal axis.  The subcarrier whose
        principal axis explains the most variance (strongest coherent arc)
        is selected.
        """
        cfg = self.config
        ratio = csi_ratio_series(trace, cfg.antenna_pair)
        factor = max(1, int(round(trace.sample_rate_hz / cfg.target_rate_hz)))
        rate = downsampled_rate(trace.sample_rate_hz, factor)

        best_series = None
        best_energy = -np.inf
        noise_window = max(3, int(round(cfg.noise_window_s * trace.sample_rate_hz)))
        trend_window = max(5, int(round(cfg.trend_window_s * trace.sample_rate_hz)))
        n_sub = ratio.shape[1]
        # Real parts in columns [0, n_sub), imaginary parts after them;
        # the complex components are smoothed before decimation.
        smooth = hampel_filter(
            np.concatenate([ratio.real, ratio.imag], axis=1), noise_window, 0.01
        )
        detrended_parts = smooth - hampel_filter(smooth, trend_window, 0.01)
        for column in range(n_sub):
            detrended = decimate(
                detrended_parts[:, [column, n_sub + column]], factor, axis=0
            )
            complex_series = detrended[:, 0] + 1j * detrended[:, 1]
            projected = _principal_component_series(complex_series)
            energy = float(np.var(projected))
            if energy > best_energy:
                best_energy = energy
                best_series = projected
        if best_series is None:
            raise EstimationError("no usable subcarrier ratio series")
        return best_series, rate

    def estimate_breathing_bpm(self, trace: CSITrace) -> float:
        """Single-person breathing rate from the CSI ratio."""
        series, rate = self.breathing_series(trace)
        return PeakBreathingEstimator().estimate_bpm(series, rate)
