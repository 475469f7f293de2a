"""Seeded storage fault injection — the disk analogue of ``FlakySourceAdapter``.

:class:`TornWriteFile` wraps a single append handle and models the torn
write real storage exhibits: the process "crashes" partway through a
``write`` call, persisting only a prefix of the requested bytes and raising
:class:`~repro.errors.TornWriteError`.  The crash point is an explicit byte
budget, so every fault sequence is reproducible — the same requirement the
chaos harness imposes on source faults.
"""

from __future__ import annotations

from ..errors import TornWriteError, TraceStoreError
from .backend import AppendHandle

__all__ = ["TornWriteFile"]


class TornWriteFile:
    """Append handle that dies partway through the N-th write call.

    Models the crash-mid-``write`` failure: the call that crosses the
    configured byte budget persists only the bytes up to the budget,
    then raises :class:`~repro.errors.TornWriteError`.  Every later
    call fails the same way with zero bytes persisted, like writing to
    a dead process's descriptor.

    Args:
        inner: The real handle to tear.
        crash_after_bytes: Total bytes allowed through before the crash.
            The write that would exceed this budget is torn.
    """

    def __init__(self, inner: AppendHandle, crash_after_bytes: int):
        if crash_after_bytes < 0:
            raise TraceStoreError(
                f"crash_after_bytes must be >= 0, got {crash_after_bytes}"
            )
        self._inner = inner
        self._budget = int(crash_after_bytes)
        self._written = 0
        self._crashed = False

    @property
    def crashed(self) -> bool:
        """Whether the simulated crash has fired."""
        return self._crashed

    @property
    def n_bytes_written(self) -> int:
        """Total bytes that actually reached the inner handle."""
        return self._written

    def write(self, data: bytes) -> int:
        """Append, tearing the call that crosses the crash budget."""
        if self._crashed:
            raise TornWriteError(0)
        remaining = self._budget - self._written
        if len(data) <= remaining:
            n = self._inner.write(data)
            self._written += n
            return n
        self._crashed = True
        persisted = 0
        if remaining > 0:
            persisted = self._inner.write(data[:remaining])
            self._written += persisted
        # The torn bytes are on "disk": a real crash leaves whatever the
        # kernel already accepted, with no fsync and no cleanup.
        self._inner.flush()
        raise TornWriteError(persisted)

    def flush(self) -> None:
        """Flush the inner handle; fails if already crashed."""
        if self._crashed:
            raise TornWriteError(0)
        self._inner.flush()

    def close(self) -> None:
        """Close the inner handle (always allowed, even post-crash)."""
        self._inner.close()
