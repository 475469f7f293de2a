"""DWT stage: split the selected series into breathing and heart bands.

Paper Section III-B4: a level-4 Daubechies decomposition of the 20 Hz
calibrated series puts the breathing signal in the approximation coefficient
α₄ (0–0.625 Hz) and the heart signal in the sum of detail reconstructions
β₃+β₄ (0.625–2.5 Hz), simultaneously discarding sub-band noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import FloatArray
from ..dsp.wavelet import (
    WaveletDecomposition,
    coefficient_band,
    reconstruct_band,
    wavedec,
)
from ..errors import ConfigurationError

__all__ = ["DWTConfig", "DWTBands", "decompose"]


@dataclass(frozen=True)
class DWTConfig:
    """DWT-stage parameters.

    Attributes:
        wavelet: Wavelet name (paper: a Daubechies filter; db4 default).
        level: Decomposition depth L (paper: 4).
        heart_detail_levels: Detail levels summed for the heart signal
            (paper: L−1 and L, i.e. 3 and 4).
    """

    wavelet: str = "db4"
    level: int = 4
    heart_detail_levels: tuple[int, ...] = (3, 4)

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ConfigurationError(f"level must be >= 1, got {self.level}")
        for lv in self.heart_detail_levels:
            if not 1 <= lv <= self.level:
                raise ConfigurationError(
                    f"heart detail level {lv} outside [1, {self.level}]"
                )


@dataclass(frozen=True)
class DWTBands:
    """Band-split signals produced by the DWT stage.

    Attributes:
        breathing: Reconstruction from α_L only — the denoised breathing
            signal fed to peak detection.
        heart: Reconstruction from the configured detail levels — the heart
            signal fed to the FFT estimator.
        decomposition: The full coefficient set (for inspection/plots).
        sample_rate_hz: Rate of both reconstructions (same as the input).
        breathing_band_hz: Nominal (lo, hi) of the breathing reconstruction.
        heart_band_hz: Nominal (lo, hi) of the heart reconstruction.
    """

    breathing: FloatArray
    heart: FloatArray
    decomposition: WaveletDecomposition
    sample_rate_hz: float
    breathing_band_hz: tuple[float, float]
    heart_band_hz: tuple[float, float]


def decompose(
    series: FloatArray,
    sample_rate_hz: float,
    config: DWTConfig | None = None,
) -> DWTBands:
    """Run the DWT stage on the selected series, or on every column.

    A matrix goes through one vectorized multilevel transform — the heart
    stage band-splits its top-MAD candidate columns this way — and
    ``bands.breathing[:, i]`` / ``bands.heart[:, i]`` match a 1-D call on
    column ``i``.

    Args:
        series: 1-D calibrated phase-difference series (post selection), or
            an ``[n_samples × n_series]`` matrix of them.
        sample_rate_hz: Its sample rate (20 Hz after standard calibration).
        config: Stage parameters.

    Returns:
        :class:`DWTBands` with the breathing and heart reconstructions, each
        shaped like ``series``.
    """
    config = config if config is not None else DWTConfig()
    decomposition = wavedec(series, config.wavelet, level=config.level)
    breathing = reconstruct_band(decomposition, keep_approx=True)
    heart = reconstruct_band(decomposition, keep_details=config.heart_detail_levels)
    lo_heart = min(
        coefficient_band(sample_rate_hz, lv, is_approx=False)[0]
        for lv in config.heart_detail_levels
    )
    hi_heart = max(
        coefficient_band(sample_rate_hz, lv, is_approx=False)[1]
        for lv in config.heart_detail_levels
    )
    return DWTBands(
        breathing=breathing,
        heart=heart,
        decomposition=decomposition,
        sample_rate_hz=float(sample_rate_hz),
        breathing_band_hz=coefficient_band(
            sample_rate_hz, config.level, is_approx=True
        ),
        heart_band_hz=(lo_heart, hi_heart),
    )
