"""Append-at-the-back, evict-from-the-front row buffer.

The streaming engine and monitor cache one row per buffered packet and drop
the oldest rows as the analysis window slides.  Growing such a cache with
``np.concatenate`` copies every live row on every hop; :class:`RowStore`
writes new rows in place into a preallocated array and moves the live rows
only when the write position reaches its end.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import DTypeLike

from ...contracts import FloatArray, IntArray
from ...errors import ConfigurationError

__all__ = ["RowStore"]

# A reallocated array has room for an eighth more rows than it must fit.
# The live rows are moved within it while that leaves a sixteenth spare,
# and into a new array when it is short of that or more than four times
# too large.  The headroom is small because its pages stay resident:
# doubling instead raised the 400 Hz fleet benchmark's peak RSS by about a
# fifth (docs/performance.md, section 6).
_GROWTH_DIVISOR = 8
_REUSE_DIVISOR = 16
_SHRINK_FACTOR = 4


class RowStore:
    """Rows of one shape and dtype in a preallocated array.

    The live rows are ``[lo, hi)`` of the array.  :meth:`extend` writes new
    rows at ``hi``; :meth:`evict` advances ``lo``.  When a write would run
    past the end, the live rows move to the front: in place while the array
    has room for them plus headroom, otherwise into a new array with an
    eighth more rows than it must fit.  Capacity therefore stays
    proportional to the live rows, with no fixed minimum, and hops of
    ``m`` rows over ``n`` live ones move the live rows at most once every
    ``n / (16 m)`` hops instead of on every hop.

    :attr:`rows` is a view into the array.  It is valid until the next
    :meth:`extend`, which may move the rows under it; copy what must
    outlive that.
    """

    def __init__(self, row_shape: tuple[int, ...], dtype: DTypeLike = float):
        self._buf = np.empty((0, *row_shape), dtype=dtype)
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def capacity(self) -> int:
        """Rows the array can hold before it is reallocated."""
        return int(self._buf.shape[0])

    @property
    def rows(self) -> FloatArray | IntArray:
        """The live rows, oldest first (a view; see the class docstring)."""
        return self._buf[self._lo : self._hi]

    def extend(self, block: FloatArray | IntArray) -> None:
        """Append ``block``'s rows after the newest live row."""
        block = np.asarray(block)
        if block.shape[1:] != self._buf.shape[1:]:
            raise ConfigurationError(
                f"expected rows of shape {self._buf.shape[1:]}, "
                f"got a block of shape {block.shape}"
            )
        m = block.shape[0]
        if self._hi + m > self.capacity:
            self._make_room(m)
        self._buf[self._hi : self._hi + m] = block
        self._hi += m

    def evict(self, n_rows: int) -> None:
        """Drop the oldest ``n_rows`` live rows (all of them if fewer)."""
        if n_rows < 0:
            raise ConfigurationError(f"cannot evict {n_rows} rows")
        self._lo = min(self._lo + n_rows, self._hi)
        if self._lo == self._hi:
            self._lo = self._hi = 0

    def _make_room(self, n_new: int) -> None:
        """Move the live rows to the front of an array with room for ``n_new``."""
        live = len(self)
        need = live + n_new
        if need + need // _REUSE_DIVISOR <= self.capacity <= _SHRINK_FACTOR * need:
            # In place, in chunks no longer than the gap ``lo`` so that no
            # chunk overlaps its destination (numpy would copy it first).
            lo, step = self._lo, self._lo
            for dst in range(0, live, step):
                end = min(dst + step, live)
                self._buf[dst:end] = self._buf[lo + dst : lo + end]
        else:
            shape = (need + need // _GROWTH_DIVISOR, *self._buf.shape[1:])
            buf = np.empty(shape, self._buf.dtype)
            buf[:live] = self.rows
            self._buf = buf
        self._lo, self._hi = 0, live
