"""Packet sources: the capture-side fault domain of the service layer.

A :class:`PacketSource` is the service's view of capture hardware: a
pull-based stream of timestamped CSI packets that may momentarily have
nothing to deliver (``None``), fail transiently, hang past its deadline, or
die outright.  Two concrete layers are provided:

* :class:`TracePacketSource` — replays a :class:`~repro.io_.trace.CSITrace`
  packet by packet, advancing the shared simulated clock to each packet's
  capture time (the clock's only "natural" driver).
* :class:`ResilientSource` — the supervision wrapper: per-call deadline,
  bounded retry with seeded exponential backoff + jitter (all delays paid
  in simulated time), a per-source circuit breaker, and factory-based
  rebuild after a hard crash.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from ..contracts import ComplexArray
from ..errors import (
    CircuitOpenError,
    SourceCrashedError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)
from ..io_.trace import CSITrace
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from .breaker import BreakerState, CircuitBreaker
from .clock import SimulatedClock
from .events import EventLog

__all__ = [
    "Packet",
    "PacketSource",
    "BlockPacketSource",
    "TracePacketSource",
    "BACKOFF_BASE_S",
    "BACKOFF_FACTOR",
    "DEADLINE_S",
    "JITTER_FRACTION",
    "MAX_RETRIES",
    "ResilientSource",
]

# Budget for one supervised read (simulated time); a slower read is
# discarded and reported as SourceTimeoutError.
DEADLINE_S = 1.0
# Additional attempts after the first transient failure.
MAX_RETRIES = 3
# Delay before the first retry of a transient source failure; later
# retries multiply it by BACKOFF_FACTOR per attempt.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
# Uniform +/- fraction applied to each delay (seeded), so many sources
# retrying together do not synchronize.
JITTER_FRACTION = 0.1


class Packet(NamedTuple):
    """One captured CSI packet.

    Attributes:
        csi: Complex CSI of the packet, shape ``(n_rx, n_subcarriers)``.
        timestamp_s: Capture time.
    """

    csi: ComplexArray
    timestamp_s: float


@runtime_checkable
class PacketSource(Protocol):
    """What the service requires of a capture source.

    ``next_packet`` returns the next packet, or ``None`` when nothing is
    available *right now* (the caller should treat persistent ``None`` with
    advancing time as a stall); it may raise
    :class:`~repro.errors.TransientSourceError` (retryable) or
    :class:`~repro.errors.SourceCrashedError` (terminal for this instance).
    ``exhausted`` is True once the underlying data is finished for good.
    """

    def next_packet(self) -> Packet | None:
        """Deliver the next packet, ``None`` if none is available yet."""
        ...

    @property
    def exhausted(self) -> bool:
        """Whether the source has permanently run out of data."""
        ...


@runtime_checkable
class BlockPacketSource(PacketSource, Protocol):
    """A source that can hand over several packets in one read.

    The fleet's ingest queue is one: its packets are already waiting, so a
    block read takes no time.  ``unread`` puts packets a consumer never
    took back at the front, in order.
    """

    def next_packets(self, max_packets: int) -> list[Packet]:
        """Deliver up to ``max_packets`` packets, oldest first."""
        ...

    def unread(self, packets: list[Packet]) -> None:
        """Return packets to the front of the source."""
        ...


class TracePacketSource:
    """Replay a stored/simulated trace as a live packet source.

    Each delivered packet advances the shared clock to its capture time,
    which is how simulated time normally flows through the service.

    Args:
        trace: The capture to replay.
        clock: The service clock to advance.
        start_at_s: Skip packets captured before this time — how a source
            rebuilt after a crash resumes "live" instead of replaying the
            past.
    """

    def __init__(
        self,
        trace: CSITrace,
        clock: SimulatedClock,
        *,
        start_at_s: float | None = None,
    ):
        self._trace = trace
        self._clock = clock
        self._index = 0
        if start_at_s is not None:
            self._index = int(
                np.searchsorted(trace.timestamps_s, start_at_s, side="left")
            )

    @property
    def exhausted(self) -> bool:
        """True once the whole trace has been delivered."""
        return self._index >= self._trace.n_packets

    def next_packet(self) -> Packet | None:
        """Deliver the next packet and advance the clock to its time."""
        if self.exhausted:
            return None
        k = self._index
        self._index += 1
        timestamp_s = float(self._trace.timestamps_s[k])
        self._clock.advance_to(timestamp_s)
        return Packet(csi=self._trace.csi[k], timestamp_s=timestamp_s)


class ResilientSource:
    """Deadline + retry + circuit breaker + rebuild around a flaky source.

    All waiting (backoff sleeps, hang detection, breaker cooldowns) happens
    on the simulated clock; all jitter comes from a generator seeded at
    construction, so a resilient read sequence is bit-replayable.

    Args:
        source_factory: ``factory(start_at_s) -> PacketSource`` building a
            fresh source that starts delivering at the given time; called
            once up front and again after every hard crash.
        clock: The shared service clock.
        subject: Name used in recorded events.
        events: Event log breaker transitions and restarts are recorded to.
        seed: Seed for backoff jitter.
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            mirrors the ``counters`` tallies into ``source_*_total``
            series labelled by subject, shared with the inner breaker.

    Attributes:
        counters: Tallies — ``reads_ok``, ``transient_errors``,
            ``timeouts``, ``crashes``, ``rebuilds``, ``circuit_rejections``.
    """

    def __init__(
        self,
        source_factory: Callable[[float], PacketSource],
        clock: SimulatedClock,
        *,
        subject: str = "",
        events: EventLog | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
    ):
        self._factory = source_factory
        self._clock = clock
        self._subject = subject
        self._events = events if events is not None else EventLog()
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._rng = np.random.default_rng(seed)
        self.breaker = CircuitBreaker(
            clock,
            on_transition=self._on_breaker_transition,
            instrumentation=self._obs,
        )
        self._set_source(source_factory(clock.now_s))
        self.counters: dict[str, int] = {
            "reads_ok": 0,
            "transient_errors": 0,
            "timeouts": 0,
            "crashes": 0,
            "rebuilds": 0,
            "circuit_rejections": 0,
        }

    @property
    def exhausted(self) -> bool:
        """True once the current underlying source is out of data."""
        return self._source.exhausted

    @property
    def events(self) -> EventLog:
        """The event log this source records to."""
        return self._events

    def _on_breaker_transition(
        self, old: BreakerState, new: BreakerState
    ) -> None:
        self._events.record(
            self._clock.now_s,
            self._subject,
            f"breaker-{new.value}",
            previous=old.value,
        )

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        """Mirror one ``counters`` increment into the metrics registry."""
        self._obs.count(
            name,
            amount=amount,
            labels={"subject": self._subject},
            help_text=help_text,
        )

    def _backoff_delay_s(self, attempt: int) -> float:
        base = BACKOFF_BASE_S * BACKOFF_FACTOR**attempt
        jitter = 1.0 + JITTER_FRACTION * float(
            self._rng.uniform(-1.0, 1.0)
        )
        return base * jitter

    def _set_source(self, source: PacketSource) -> None:
        self._source = source
        self._block_source = (
            source if isinstance(source, BlockPacketSource) else None
        )

    def _rebuild(self) -> None:
        """Replace a crashed source with a fresh one starting 'now'."""
        self._set_source(self._factory(self._clock.now_s))
        self.counters["rebuilds"] += 1
        self._count("source_rebuilds_total", "Sources rebuilt after a crash or stall.")
        self._events.record(
            self._clock.now_s, self._subject, "source-restart"
        )

    def force_restart(self) -> None:
        """Rebuild the underlying source at the current simulated time.

        The supervisor's watchdog calls this when a source silently stalls
        (delivers nothing while time advances) — a state no exception ever
        reports.
        """
        self._rebuild()

    def next_packet(self) -> Packet | None:
        """One supervised read of one packet (see :meth:`next_packets`).

        Returns:
            The packet, or ``None`` when the source has nothing yet.
        """
        packets = self.next_packets(1)
        return packets[0] if packets else None

    def next_packets(self, max_packets: int) -> list[Packet]:
        """One supervised read of up to ``max_packets`` packets.

        A :class:`BlockPacketSource` (the fleet's ingest queue) hands over
        up to ``max_packets`` packets in this one read; any other source
        delivers at most one.  The breaker admits the read once.  ``counters``, the
        ``source_reads_ok_total`` series and the ``source_read_duration_s``
        histogram (one observation per packet) end up as after one read per
        packet: a block source reads without moving the clock, so every
        packet's read takes the same zero time.

        Returns:
            The packets, oldest first; empty when the source has nothing
            yet.

        Raises:
            CircuitOpenError: The breaker is open; no read was attempted.
            SourceTimeoutError: The read blew its deadline (packet, if any,
                is discarded as stale).
            SourceUnavailableError: Transient failures exhausted the retry
                budget (chained from the last failure).
            SourceCrashedError: The source died; it has already been
                rebuilt for the next call.
        """
        if not self.breaker.allow_call():
            self.counters["circuit_rejections"] += 1
            self._count(
                "source_circuit_rejections_total",
                "Reads short-circuited by an open breaker.",
            )
            raise CircuitOpenError(self.breaker.retry_after_s())
        attempt = 0
        while True:
            t0 = self._clock.now_s
            try:
                packets = self._read(max_packets)
            except TransientSourceError as exc:
                self.counters["transient_errors"] += 1
                self._count(
                    "source_transient_errors_total",
                    "Transient read errors (including retried ones).",
                )
                self.breaker.record_failure()
                if attempt < MAX_RETRIES:
                    self._clock.advance(self._backoff_delay_s(attempt))
                    attempt += 1
                    continue
                raise SourceUnavailableError(attempt + 1) from exc
            except SourceCrashedError as exc:
                self.counters["crashes"] += 1
                self._count("source_crashes_total", "Hard source crashes.")
                self.breaker.record_failure()
                self._events.record(
                    self._clock.now_s,
                    self._subject,
                    "source-crash",
                    error=str(exc),
                )
                self._rebuild()
                raise
            elapsed = self._clock.now_s - t0
            if self._obs.enabled:
                for _ in range(max(1, len(packets))):
                    self._obs.observe(
                        "source_read_duration_s",
                        elapsed,
                        labels={"subject": self._subject},
                        help_text="Simulated seconds one supervised read took.",
                    )
            if elapsed > DEADLINE_S:
                self.counters["timeouts"] += 1
                self._count(
                    "source_timeouts_total", "Reads that blew their deadline."
                )
                self.breaker.record_failure()
                timeout = SourceTimeoutError(elapsed, DEADLINE_S)
                self._events.record(
                    self._clock.now_s,
                    self._subject,
                    "source-timeout",
                    elapsed_s=elapsed,
                    deadline_s=DEADLINE_S,
                )
                raise timeout
            self.breaker.record_success()
            if packets:
                self.counters["reads_ok"] += len(packets)
                self._count(
                    "source_reads_ok_total",
                    "Successful packet reads.",
                    amount=len(packets),
                )
            return packets

    def unread(self, packets: list[Packet]) -> None:
        """Give back the tail of a block read that the consumer never took.

        The packets return to the front of the underlying source and
        ``counters["reads_ok"]`` drops by as many.  The metric series only
        grow, so they keep counting them.  Only a block read can deliver
        packets a consumer does not take.
        """
        assert self._block_source is not None
        self._block_source.unread(packets)
        self.counters["reads_ok"] -= len(packets)

    def _read(self, max_packets: int) -> list[Packet]:
        """The underlying source's block read, or one ``next_packet``."""
        if self._block_source is not None:
            return self._block_source.next_packets(max_packets)
        packet = self._source.next_packet()
        return [] if packet is None else [packet]
