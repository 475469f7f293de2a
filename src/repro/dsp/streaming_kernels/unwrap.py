"""Integer-cycle phase unwrapping with exact incremental continuation.

``np.unwrap`` accumulates float corrections, and float addition is not
associative — unwrapping a series in two blocks can differ from one pass in
the last ulp, which breaks the streaming monitor's bit-identical
checkpoint/restore guarantee.  The kernel here tracks the winding as an
*integer* cycle count instead:

    ``unwrapped[i] = angle[i] + 2*pi * cycles[i]``

where ``cycles`` is the cumulative sum of per-step jumps in
``{-1, 0, +1}`` (a raw step above ``+pi`` unwinds one turn, below ``-pi``
winds one).  Integer cumulative sums are exact and associative, so
blockwise incremental unwrapping is bitwise equal to a from-scratch pass —
the property the equivalence suite pins.

Values agree with ``np.unwrap`` to float rounding (~1 ulp of the unwrapped
magnitude); the streaming path uses this definition consistently on both
the incremental and reference sides.
"""

from __future__ import annotations

import numpy as np

from ...contracts import FloatArray, IntArray

__all__ = ["cycle_unwrap"]

_TWO_PI = 2.0 * np.pi


def cycle_unwrap(
    angles: FloatArray,
    *,
    prev_angle: FloatArray | None = None,
    prev_cycles: IntArray | None = None,
) -> tuple[FloatArray, IntArray]:
    """Unwrap wrapped angles along axis 0 via integer cycle counting.

    Args:
        angles: Wrapped angles in ``(-pi, pi]``, shape ``[n_samples]`` or
            ``[n_samples × n_series]``.
        prev_angle: Last *wrapped* angle of the preceding block (per series),
            for incremental continuation.  Omitted for a fresh start.
        prev_cycles: Cycle count at ``prev_angle``.  Required together with
            ``prev_angle``.

    Returns:
        ``(unwrapped, cycles)`` — the unwrapped angles and the integer cycle
        count per sample (``int64``, same shape).  Feed the last row of
        ``angles`` and ``cycles`` back in as ``prev_angle``/``prev_cycles``
        to continue seamlessly.
    """
    a = np.asarray(angles, dtype=float)
    if prev_angle is None:
        first = a[:1]
        base = np.zeros(a.shape[1:], dtype=np.int64)
    else:
        first = np.reshape(np.asarray(prev_angle, dtype=float), (1,) + a.shape[1:])
        base = np.asarray(prev_cycles, dtype=np.int64)
    steps = np.diff(a, axis=0, prepend=first)
    jumps = (steps < -np.pi).astype(np.int64) - (steps > np.pi).astype(np.int64)
    cycles = base + np.cumsum(jumps, axis=0)
    return a + _TWO_PI * cycles, cycles

