"""Replay a recorded store as a live packet source.

:class:`ReplayPacketSource` implements the service's
:class:`~repro.service.sources.PacketSource` protocol over a salvaged
store, so anything that consumes live capture — a bare
:class:`~repro.core.streaming.StreamingMonitor`, a supervised subject,
the fleet gateway — can be driven from a recording instead.  Delivery
advances the shared :class:`~repro.service.clock.SimulatedClock` to each
packet's original capture time, exactly like
:class:`~repro.service.sources.TracePacketSource`; since nothing in the
service waits on wall time, a recorded hour replays as fast as the CPU
can push packets, which is what makes backtesting faster than real time
(the ``replay_speedup_ratio`` gauge is the recorded duration divided by
the wall seconds the replay took, measured by
:func:`~repro.store.backtest.replay_store` with a
:class:`~repro.obs.clock.WallClock`).

The source reads through :class:`~repro.store.reader.TraceReader`, so a
torn or corrupted store replays its recoverable prefix and the
:attr:`salvage_report` says what was lost — a crashed recording is still
a usable backtest input.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceStoreError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..service.clock import SimulatedClock
from ..service.sources import Packet
from .backend import StorageBackend
from .format import SegmentHeader
from .reader import SalvageReport, TraceReader

__all__ = ["ReplayPacketSource"]


class ReplayPacketSource:
    """Replay a recorded store through the ``PacketSource`` protocol.

    Packets are salvaged eagerly at construction (a replay wants the
    whole recoverable stream up front, and the salvage report before the
    first packet), then delivered one per :meth:`next_packet` call with
    the clock advanced to each packet's capture time.

    Args:
        backend: Storage the recording lives in.
        stem: Store name.
        clock: The service clock to advance.
        start_at_s: Skip records captured before this time — how a
            source rebuilt after a crash resumes "live".
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            records ``replay_records_total`` as packets are delivered
            (plus the reader's salvage counters at construction).

    Raises:
        TraceStoreError: The store has no segments, or salvage recovered
            nothing at all.
    """

    def __init__(
        self,
        backend: StorageBackend,
        stem: str,
        clock: SimulatedClock,
        *,
        start_at_s: float | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self._clock = clock
        self._stem = str(stem)
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        reader = TraceReader(backend, stem, instrumentation=instrumentation)
        packets, header, report = reader.read_packets()
        if header is None or not packets:
            exc = TraceStoreError(
                f"store {stem!r} has no replayable records "
                f"({len(report.issues)} salvage issue(s))"
            )
            exc.report = report  # type: ignore[attr-defined]
            raise exc
        self._header = header
        self._report = report
        self._packets = packets
        self._index = 0
        if start_at_s is not None:
            timestamps = np.asarray([p[0] for p in packets], dtype=float)
            self._index = int(
                np.searchsorted(timestamps, float(start_at_s), side="left")
            )

    @property
    def header(self) -> SegmentHeader:
        """The recorded stream's header (geometry, rate, metadata)."""
        return self._header

    @property
    def salvage_report(self) -> SalvageReport:
        """What the salvage pass found while loading this store."""
        return self._report

    @property
    def sample_rate_hz(self) -> float:
        """Nominal packet rate of the recorded stream."""
        return self._header.sample_rate_hz

    @property
    def n_packets_total(self) -> int:
        """Recoverable packets in the store (before ``start_at_s``
        filtering)."""
        return len(self._packets)

    @property
    def duration_s(self) -> float:
        """Recorded time span of the replayable packets."""
        if len(self._packets) < 2:
            return 0.0
        return float(self._packets[-1][0] - self._packets[0][0])

    @property
    def exhausted(self) -> bool:
        """True once every recovered packet has been delivered."""
        return self._index >= len(self._packets)

    def next_packet(self) -> Packet | None:
        """Deliver the next recorded packet at its original timestamp."""
        if self.exhausted:
            return None
        timestamp_s, csi = self._packets[self._index]
        self._index += 1
        self._clock.advance_to(timestamp_s)
        self._obs.count(
            "replay_records_total",
            labels={"stem": self._stem},
            help_text="Recorded packets delivered by replay sources.",
        )
        return Packet(csi=csi, timestamp_s=timestamp_s)
