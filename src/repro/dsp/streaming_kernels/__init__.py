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

* :mod:`~repro.dsp.streaming_kernels.rolling` — trailing median and
  Hampel (vectorized, one scipy call per matrix).
* :mod:`~repro.dsp.streaming_kernels.row_store` — the append/evict row
  buffer behind the engine's and the monitor's per-packet caches.
* :mod:`~repro.dsp.streaming_kernels.unwrap` — integer-cycle phase
  unwrapping whose incremental continuation is bitwise equal to a
  from-scratch pass (the cycle counter is an exact integer cumsum).
* :mod:`~repro.dsp.streaming_kernels.calibrator` — the incremental
  calibration engine composing the above, with a stateless
  :func:`trailing_calibrate` reference the equivalence suite gates against.
"""

from .calibrator import (
    StreamingCalibrator,
    TrailingCalibration,
    TrailingHampelState,
    rebuild_context,
    trailing_calibrate,
    trailing_window_samples,
)
from .rolling import trailing_hampel, trailing_median
from .row_store import RowStore
from .unwrap import cycle_unwrap

__all__ = [
    "trailing_hampel",
    "trailing_median",
    "RowStore",
    "cycle_unwrap",
    "StreamingCalibrator",
    "TrailingCalibration",
    "TrailingHampelState",
    "rebuild_context",
    "trailing_calibrate",
    "trailing_window_samples",
]
