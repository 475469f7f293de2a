"""Bounded per-session ingest queues.

The gateway decouples *ingest* (pulling packets from a session's upstream
capture) from *drain* (feeding them to the session's monitor) with one
:class:`BoundedPacketQueue` per session.  The bound is the backpressure
primitive: when a consumer falls behind, the queue fills, the watermark
policy reacts, and — if nothing helps — the oldest packets are dropped
rather than the process growing without limit.  Dropping *oldest first*
is deliberate for vital signs: a fresh packet is worth more than a stale
one, and the monitor's own gap handling absorbs the resulting hole.

:class:`QueuedPacketSource` adapts a queue to the
:class:`~repro.service.sources.PacketSource` protocol so a per-session
:class:`~repro.service.supervisor.MonitorSupervisor` can consume it
unchanged.  Unlike :class:`~repro.service.sources.TracePacketSource` it
never advances the clock — in a fleet, time belongs to the gateway's
round heartbeat, not to any one session's packets.
"""

from __future__ import annotations

from collections import deque

from ...errors import ConfigurationError
from ..sources import Packet

__all__ = ["BoundedPacketQueue", "QueuedPacketSource"]


class BoundedPacketQueue:
    """FIFO packet queue with a hard bound and drop-oldest overflow.

    Args:
        capacity_packets: Maximum depth; must be positive.

    Attributes:
        n_dropped_total: Packets evicted by overflow since construction
            (cleared packets from :meth:`clear` are counted separately).
        max_depth_seen_packets: High-water mark of the depth.
    """

    def __init__(self, capacity_packets: int):
        if capacity_packets < 1:
            raise ConfigurationError("capacity_packets must be >= 1")
        self.capacity_packets = int(capacity_packets)
        self._items: deque[Packet] = deque()
        self.n_dropped_total = 0
        self.max_depth_seen_packets = 0

    @property
    def depth(self) -> int:
        """Current number of queued packets."""
        return len(self._items)

    def offer(self, packet: Packet) -> bool:
        """Enqueue a packet, evicting the oldest one when full.

        Returns:
            ``True`` when the packet was stored without evicting anything,
            ``False`` when an older packet had to be dropped to make room.
        """
        evicted = False
        if len(self._items) >= self.capacity_packets:
            self._items.popleft()
            self.n_dropped_total += 1
            evicted = True
        self._items.append(packet)
        if len(self._items) > self.max_depth_seen_packets:
            self.max_depth_seen_packets = len(self._items)
        return not evicted

    def pop(self) -> Packet | None:
        """Dequeue the oldest packet, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def pop_block(self, max_packets: int) -> list[Packet]:
        """Dequeue up to ``max_packets`` packets, oldest first."""
        items = self._items
        return [items.popleft() for _ in range(min(max_packets, len(items)))]

    def unpop(self, packets: list[Packet]) -> None:
        """Put popped packets back at the front, in their order."""
        self._items.extendleft(reversed(packets))

    def clear(self) -> int:
        """Drop everything (shed / shard crash); returns how many."""
        n = len(self._items)
        self._items.clear()
        return n

    def __len__(self) -> int:
        return len(self._items)


class QueuedPacketSource:
    """A :class:`~repro.service.sources.PacketSource` over a bounded queue.

    The gateway owns the producing side; the session's supervisor pulls
    from this adapter.  ``None`` means "nothing queued right now" — the
    gateway never schedules a drain tick against an empty queue, so in
    practice a tick always finds a packet and simulated time is driven
    purely by the round heartbeat.

    Args:
        queue: The session's ingest queue.
    """

    def __init__(self, queue: BoundedPacketQueue):
        self._queue = queue
        self._finished = False

    @property
    def exhausted(self) -> bool:
        """True once the upstream is finished and the queue is drained."""
        return self._finished and len(self._queue) == 0

    def mark_finished(self) -> None:
        """Signal that the upstream will never produce another packet.

        The source reports ``exhausted`` only after the queue also runs
        dry, so buffered packets still reach the monitor.
        """
        self._finished = True

    def next_packet(self) -> Packet | None:
        """Dequeue the next packet, ``None`` when the queue is empty."""
        return self._queue.pop()

    def next_packets(self, max_packets: int) -> list[Packet]:
        """Dequeue up to ``max_packets`` packets in one read."""
        return self._queue.pop_block(max_packets)

    def unread(self, packets: list[Packet]) -> None:
        """Return packets a consumer never took to the front of the queue."""
        self._queue.unpop(packets)
