"""Data Extraction: CSI phase difference between two receive antennas.

The first module of the PhaseBeat architecture (Fig. 2).  Per Theorem 1 the
measured phase difference between two chains of the same NIC cancels the
per-packet error terms (they share the clock and down-converter), leaving
``Δ∠CSI + Δβ + ΔZ`` — stable across packets, with the breathing modulation
riding on ``Δ∠CSI``.

The difference is computed as ``angle(csi_a · conj(csi_b))`` (numerically
robust near the ±π seam) and then unwrapped along the packet axis so slow
oscillations become continuous series the calibration stage can filter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..contracts import ComplexArray, FloatArray, check_trace
from ..errors import ConfigurationError
from ..io_.trace import CSITrace

__all__ = ["phase_difference", "raw_phase", "wrapped_pair_matrix"]


def wrapped_pair_matrix(
    csi: ComplexArray, antenna_pairs: Sequence[tuple[int, int]]
) -> FloatArray:
    """Wrapped phase-difference columns for several pairs in one shot.

    Vectorized over pairs: one conjugate product and one ``np.angle`` for
    all requested baselines.  Column block ``p`` holds pair
    ``antenna_pairs[p]``'s ``n_subcarriers`` series, identical to stacking
    per-pair ``angle(csi_a * conj(csi_b))`` results side by side.  No
    unwrapping — the streaming engine applies its own integer-cycle unwrap,
    and :func:`repro.core.pipeline.pair_difference_matrix` applies
    ``np.unwrap`` for the batch path.

    Args:
        csi: ``[n_packets × n_rx × n_subcarriers]`` complex CSI block.
        antenna_pairs: Pairs ``(a, b)`` of receive-chain indices.

    Returns:
        ``[n_packets × n_pairs·n_subcarriers]`` wrapped differences.
    """
    csi = np.asarray(csi)
    if csi.ndim != 3:
        raise ConfigurationError(
            f"expected [n_packets x n_rx x n_subcarriers] CSI, got {csi.shape}"
        )
    if not antenna_pairs:
        raise ConfigurationError("at least one antenna pair is required")
    n_rx = csi.shape[1]
    for a, b in antenna_pairs:
        if a == b:
            raise ConfigurationError("antenna pair must name two distinct chains")
        for idx in (a, b):
            if not 0 <= idx < n_rx:
                raise ConfigurationError(
                    f"antenna index {idx} out of range for {n_rx} chains"
                )
    a_idx = [a for a, _ in antenna_pairs]
    b_idx = [b for _, b in antenna_pairs]
    # np.multiply (not the * operator): interpreter-level expressions let
    # numpy elide a large refcount-1 temporary into an in-place multiply
    # whose fused loop rounds differently from the out-of-place one — and
    # the elision only engages above a size threshold, making ``a*conj(b)``
    # extent-dependent in the last ulp.  Explicit ufunc calls never take
    # that path, so blockwise extraction stays bitwise equal to a full-pass
    # extraction — the streaming engine's rebuild-from-buffer bit-identity
    # rides on this.
    product = np.multiply(csi[:, a_idx, :], np.conjugate(csi[:, b_idx, :]))
    return np.angle(product).reshape(csi.shape[0], -1)


@check_trace()
def phase_difference(
    trace: CSITrace,
    antenna_pair: tuple[int, int] = (0, 1),
    *,
    unwrap: bool = True,
) -> FloatArray:
    """Measured phase difference Δ∠CSI_i per packet and subcarrier.

    Args:
        trace: The captured CSI stream.
        antenna_pair: Indices (a, b) of the two receive chains; the paper
            uses two adjacent antennas of the Intel 5300.
        unwrap: Unwrap along the packet axis, turning the wrapped difference
            into a continuous series (required before filtering; set False
            to reproduce the Fig. 1 polar scatter).

    Returns:
        ``(n_packets, n_subcarriers)`` phase differences in radians.
    """
    diff = wrapped_pair_matrix(trace.csi, [antenna_pair])
    if unwrap:
        diff = np.unwrap(diff, axis=0)
    return diff


@check_trace()
def raw_phase(trace: CSITrace, antenna: int = 0) -> FloatArray:
    """Raw measured phase ∠CSI of a single chain (the Fig. 1 foil).

    Unusable for vital signs — the per-packet PBD/SFO/CFO terms scatter it
    over the whole circle — but needed by the phase-stability experiment and
    the raw-phase ablation.
    """
    if not 0 <= antenna < trace.n_rx:
        raise ConfigurationError(
            f"antenna index {antenna} out of range for {trace.n_rx} chains"
        )
    return np.angle(trace.csi[:, antenna, :])
