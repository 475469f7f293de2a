"""Incremental sliding-window kernels for the streaming hot path.

``StreamingMonitor`` re-estimates vital signs on a hopped window: at a 30 s
window and 5 s hop, ~83% of every window was already processed on the
previous hop.  The batch pipeline recomputes everything from scratch; the
kernels in this package compute only what the hop added.

The foundation is *trailing* (causal) window semantics: the filtered value
at sample ``i`` is an order statistic of the trailing window
``[i - w + 1, i]``.  Unlike centered windows, a trailing value never changes
once computed — it is a pure function of a fixed slice of the raw series —
so a hop only has to filter the new samples, and state rebuilt from a
buffered suffix is *bit-identical* to state built incrementally.  That
purity is what makes the checkpoint/restore round-trip exact.

Modules:

* :mod:`~repro.dsp.streaming_kernels.rolling` — trailing median / MAD /
  Hampel (vectorized, one scipy call per matrix) and batched
  (multi-column) centered Hampel used by :mod:`repro.core.calibration`.
* :mod:`~repro.dsp.streaming_kernels.row_store` — the append/evict row
  buffer behind the engine's and the monitor's per-packet caches.
* :mod:`~repro.dsp.streaming_kernels.unwrap` — integer-cycle phase
  unwrapping whose incremental continuation is bitwise equal to a
  from-scratch pass (the cycle counter is an exact integer cumsum).
* :mod:`~repro.dsp.streaming_kernels.sliding_dft` — sliding-window DFT with
  O(n_bins) updates and a cached rFFT plan.
* :mod:`~repro.dsp.streaming_kernels.calibrator` — the incremental
  calibration engine composing the above, with a stateless
  :func:`trailing_calibrate` reference the equivalence suite gates against.
"""

from .calibrator import (
    StreamingCalibrator,
    TrailingCalibration,
    TrailingHampelState,
    trailing_calibrate,
    trailing_window_samples,
)
from .rolling import (
    batched_hampel_filter,
    batched_rolling_median,
    trailing_hampel,
    trailing_mad,
    trailing_median,
)
from .row_store import RowStore
from .sliding_dft import SlidingDFT
from .unwrap import CycleUnwrapper, cycle_unwrap

__all__ = [
    "batched_hampel_filter",
    "batched_rolling_median",
    "trailing_hampel",
    "trailing_mad",
    "trailing_median",
    "RowStore",
    "CycleUnwrapper",
    "cycle_unwrap",
    "SlidingDFT",
    "StreamingCalibrator",
    "TrailingCalibration",
    "TrailingHampelState",
    "trailing_calibrate",
    "trailing_window_samples",
]
