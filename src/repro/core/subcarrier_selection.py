"""Subcarrier Selection (paper Section III-B3).

Different subcarriers sit at different wavelengths and therefore respond
with different sensitivity to the same chest displacement; Fig. 5/7 of the
paper shows a clear sensitivity profile across the 30 reported subcarriers.
PhaseBeat measures sensitivity as the mean absolute deviation (MAD) of each
calibrated series, takes the ``k`` largest, and finally selects the
subcarrier holding the *median* of those k MADs — a guard against a single
subcarrier whose large MAD is noise rather than signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import BoolArray, FloatArray, check_trace
from ..dsp.stats import mean_absolute_deviation
from ..errors import ConfigurationError

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..io_.trace import CSITrace

__all__ = [
    "K_CANDIDATES",
    "SelectionResult",
    "amplitude_mask_from_mean",
    "amplitude_quality_mask",
    "select_subcarrier",
    "subcarrier_sensitivities",
]

# Number of top-MAD candidates the selected subcarrier is the median of
# (the paper's k).
K_CANDIDATES = 3


def amplitude_mask_from_mean(
    mean_amplitude: FloatArray,
    antenna_pair: tuple[int, int] = (0, 1),
    *,
    floor_ratio: float = 0.25,
) -> BoolArray:
    """Eligibility mask from precomputed window-mean amplitudes.

    The trace-free core of :func:`amplitude_quality_mask`, for callers that
    already hold the per-antenna mean ``|CSI|`` of the window (the streaming
    monitor keeps a running amplitude cache instead of restacking its packet
    buffer every hop).

    Args:
        mean_amplitude: ``[n_rx × n_subcarriers]`` mean ``|CSI|`` over the
            window's packets.
        antenna_pair: The two chains whose phase difference is used.
        floor_ratio: Fraction of the median amplitude below which a
            subcarrier is excluded.

    Returns:
        Boolean array of length ``n_subcarriers``.
    """
    a, b = antenna_pair
    quality = np.minimum(mean_amplitude[a], mean_amplitude[b])
    return quality >= floor_ratio * np.median(quality)


@check_trace()
def amplitude_quality_mask(
    trace: "CSITrace",
    antenna_pair: tuple[int, int] = (0, 1),
    *,
    floor_ratio: float = 0.25,
) -> BoolArray:
    """Eligibility mask excluding deep-faded subcarriers.

    A subcarrier whose |CSI| sits in a multipath fading null has phase noise
    large enough for the unwrap step to take spurious ±2π jumps, turning its
    phase-difference series into a random walk.  That drift inflates the MAD
    — the very statistic selection rewards — so faded subcarriers must be
    barred *before* selection.  A subcarrier stays eligible when its
    weakest-antenna mean amplitude is at least ``floor_ratio`` of the median
    across subcarriers.

    Args:
        trace: The :class:`~repro.io_.trace.CSITrace` being processed.
        antenna_pair: The two chains whose phase difference is used.
        floor_ratio: Fraction of the median amplitude below which a
            subcarrier is excluded.

    Returns:
        Boolean array of length ``trace.n_subcarriers``.
    """
    return amplitude_mask_from_mean(
        np.abs(trace.csi).mean(axis=0), antenna_pair, floor_ratio=floor_ratio
    )


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of subcarrier selection.

    Attributes:
        selected: Column index of the chosen subcarrier.
        candidates: The k top-MAD column indices, MAD-descending.
        sensitivities: Per-subcarrier MAD (the Fig. 7 profile).
    """

    selected: int
    candidates: tuple[int, ...]
    sensitivities: FloatArray


def subcarrier_sensitivities(series: FloatArray) -> FloatArray:
    """Per-subcarrier MAD of calibrated series (Fig. 7's y-axis)."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ConfigurationError(
            f"expected (samples × subcarriers), got shape {series.shape}"
        )
    if series.shape[0] == 0 or series.shape[1] == 0:
        raise ConfigurationError(
            f"cannot compute sensitivities of an empty matrix {series.shape}"
        )
    return mean_absolute_deviation(series, axis=0)


def select_subcarrier(
    series: FloatArray,
    *,
    mask: BoolArray | None = None,
) -> SelectionResult:
    """Pick the working subcarrier by the top-k / median-MAD rule.

    Args:
        series: ``(n_samples, n_subcarriers)`` calibrated phase differences.
        mask: Optional boolean eligibility per subcarrier.  The pipeline
            masks out deep-faded subcarriers whose phase difference is
            unwrap-unstable (their random-walk drift inflates the MAD with
            noise, which is exactly what the sensitivity statistic must not
            reward).  All subcarriers are eligible when omitted, or when
            masking would leave nothing.

    Returns:
        :class:`SelectionResult`; ``selected`` is the candidate whose MAD is
        the median of the :data:`K_CANDIDATES` candidate MADs (of all
        eligible ones when fewer are eligible; for an even count, the lower
        median, so the choice is always an actual candidate).  Indices refer
        to the original column numbering.
    """
    sensitivities = subcarrier_sensitivities(series)
    n_subcarriers = sensitivities.size
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_subcarriers,):
            raise ConfigurationError(
                f"mask shape {mask.shape} does not match {n_subcarriers} "
                "subcarriers"
            )
        if not mask.any():
            mask = None
    eligible = (
        np.arange(n_subcarriers) if mask is None else np.flatnonzero(mask)
    )
    k = min(K_CANDIDATES, eligible.size)
    # Top-k eligible indices, MAD descending.
    order = eligible[np.argsort(sensitivities[eligible])[::-1]]
    candidates = tuple(int(i) for i in order[:k])
    # The selected subcarrier holds the median candidate MAD (lower median
    # for even k, so the result is always one of the candidates).  With the
    # candidates already MAD-descending, that is simply the middle one.
    selected = candidates[(k - 1) // 2 if k % 2 else k // 2]
    return SelectionResult(
        selected=int(selected),
        candidates=candidates,
        sensitivities=sensitivities,
    )
