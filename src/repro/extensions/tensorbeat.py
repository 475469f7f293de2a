"""TensorBeat-style multi-person breathing estimation (paper ref. [23]).

The PhaseBeat authors' follow-up, *TensorBeat* (ACM TIST), replaces
root-MUSIC with tensor decomposition: Hankelize each calibrated subcarrier
series, stack the Hankel matrices into a 3-way tensor (window × shift ×
subcarrier), and CP-decompose.  For data that is a sum of K complex
exponentials, the rank-K CP factors are Vandermonde — each temporal factor
is itself a single exponential whose frequency is one person's breathing
rate.  Reading one frequency per component sidesteps the peak-pairing
problem FFT methods have.

This implementation follows that pipeline with the analytic signal (so K
real sinusoids need rank K, not 2K) and estimates each factor's frequency
from its phase slope, which is exact for a clean exponential factor.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import hilbert

from ..contracts import FloatArray
from ..core.breathing import BREATHING_SEARCH_BAND_HZ
from ..errors import ConfigurationError, EstimationError
from .tensor import cp_als

__all__ = [
    "DECIMATION",
    "EXTRA_RANK",
    "N_ITERATIONS",
    "N_RESTARTS",
    "SEED",
    "hankel_tensor",
    "tensorbeat_breathing_bpm",
]

# Post-analytic decimation (the same aperture-stretching trick as the
# root-MUSIC estimator).
DECIMATION = 10
# Components fitted beyond ``n_persons``.  Zero: the Hankel tensor of K
# exponentials has CP rank exactly K, and surplus components make ALS split
# tones into mixtures instead of isolating them.
EXTRA_RANK = 0
# CP-ALS sweep limit.
N_ITERATIONS = 300
# Random ALS restarts; the factorization with the best fit wins (ALS is
# non-convex and close breathing rates create shallow local minima).
N_RESTARTS = 3
# CP-ALS initialization seed; restart r draws from ``SEED + 1000·r``.
SEED = 0


def hankel_tensor(
    matrix: FloatArray, window: int
) -> FloatArray:
    """Stack per-column Hankel matrices into a 3-way tensor.

    Args:
        matrix: ``(n_samples, n_channels)`` complex series (one column per
            subcarrier).
        window: Hankel window length L.

    Returns:
        ``(L, n_samples − L + 1, n_channels)`` tensor.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"expected (samples × channels), got {matrix.shape}"
        )
    n, channels = matrix.shape
    if not 2 <= window < n:
        raise ConfigurationError(
            f"window must be in [2, {n - 1}], got {window}"
        )
    shifts = n - window + 1
    out = np.empty((window, shifts, channels), dtype=matrix.dtype)
    for c in range(channels):
        view = np.lib.stride_tricks.sliding_window_view(matrix[:, c], window)
        out[:, :, c] = view.T
    return out


def tensorbeat_breathing_bpm(
    series: FloatArray, sample_rate_hz: float, n_persons: int
) -> FloatArray:
    """Multi-person breathing rates (bpm, ascending) via Hankel-tensor CP.

    Rates are searched in :data:`~repro.core.breathing.BREATHING_SEARCH_BAND_HZ`;
    the Hankel window is half the decimated series (a balanced Hankel
    matrix maximizes the rank-resolving aperture).

    Args:
        series: Calibrated subcarrier matrix ``(n_samples, n_channels)``
            or a single series.
        sample_rate_hz: Its sample rate.
        n_persons: Number of rates to recover.

    Raises:
        EstimationError: If no in-band components were found.
    """
    if n_persons < 1:
        raise ConfigurationError(f"n_persons must be >= 1, got {n_persons}")
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]

    data = series - series.mean(axis=0, keepdims=True)
    analytic = hilbert(data, axis=0)[::DECIMATION]
    rate = sample_rate_hz / DECIMATION
    n = analytic.shape[0]
    window = max(n_persons + EXTRA_RANK + 2, n // 2)
    if window >= n:
        raise ConfigurationError(
            f"series too short ({n} samples) for Hankel window {window}"
        )

    tensor = hankel_tensor(analytic, window)
    rank = n_persons + EXTRA_RANK
    decomposition = None
    for restart in range(N_RESTARTS):
        candidate = cp_als(
            tensor,
            rank,
            n_iterations=N_ITERATIONS,
            seed=SEED + 1000 * restart,
        )
        if decomposition is None or candidate.fit > decomposition.fit:
            decomposition = candidate

    lo_hz, hi_hz = BREATHING_SEARCH_BAND_HZ
    candidates = []
    for r in range(decomposition.rank):
        # Both temporal modes (window and shift) of a Vandermonde component
        # carry the same exponential; averaging their phase slopes halves
        # the frequency variance.
        f_window = _factor_frequency(decomposition.factors[0][:, r], rate)
        f_shift = _factor_frequency(decomposition.factors[1][:, r], rate)
        frequency = 0.5 * (f_window + f_shift)
        if lo_hz <= frequency <= hi_hz:
            candidates.append((decomposition.weights[r], frequency))
    if not candidates:
        raise EstimationError(
            "no CP components with in-band frequencies; the tensor rank "
            "may be too low or the band too narrow"
        )
    candidates.sort(reverse=True)
    chosen = _dedup([f for _, f in candidates], n_persons)
    return 60.0 * np.sort(np.asarray(chosen[:n_persons]))


def _factor_frequency(factor: FloatArray, sample_rate_hz: float) -> float:
    """Frequency of a (near-)exponential factor.

    Shift-invariance estimate (single-component ESPRIT): a Vandermonde
    factor satisfies ``v[1:] = z · v[:-1]``, so the least-squares ratio
    ``z = v[:-1]ᴴ v[1:] / ‖v[:-1]‖²`` recovers the pole exactly for a
    clean exponential and degrades gracefully under noise — unlike a
    polyfit of the unwrapped phase, which inherits unwrap glitches at
    low-magnitude samples.
    """
    head = factor[:-1]
    denominator = np.vdot(head, head)
    if denominator == 0:
        return 0.0
    z = np.vdot(head, factor[1:]) / denominator
    return abs(float(np.angle(z))) * sample_rate_hz / (2.0 * np.pi)


def _dedup(
    frequencies: list[float], n_wanted: int, tolerance_hz: float = 0.012
) -> list[float]:
    """Merge near-duplicate component frequencies (split components)."""
    kept: list[float] = []
    for f in frequencies:
        if all(abs(f - g) > tolerance_hz for g in kept):
            kept.append(f)
        if len(kept) == n_wanted:
            break
    # Backfill with duplicates if dedup was too aggressive.
    for f in frequencies:
        if len(kept) == n_wanted:
            break
        if f not in kept:
            kept.append(f)
    return kept
