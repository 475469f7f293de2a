"""Packet sources: the capture-side fault domain of the service layer.

A :class:`PacketSource` is the service's view of capture hardware: a
pull-based stream of timestamped CSI packets that may momentarily have
nothing to deliver (``None``), fail transiently, hang past its deadline, or
die outright.  Three concrete layers are provided:

* :class:`TracePacketSource` — replays a :class:`~repro.io_.trace.CSITrace`
  packet by packet, advancing the shared simulated clock to each packet's
  capture time (the clock's only "natural" driver).
* :class:`FlakySourceAdapter` — wraps any source and injects *scripted*,
  seeded faults (hard crashes, silent stalls, hangs, windows of transient
  errors), the mechanism the chaos harness drives.
* :class:`ResilientSource` — the supervision wrapper: per-call deadline,
  bounded retry with seeded exponential backoff + jitter (all delays paid
  in simulated time), a per-source circuit breaker, and factory-based
  rebuild after a hard crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from ..contracts import ComplexArray
from ..errors import (
    CircuitOpenError,
    ConfigurationError,
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
    "TracePacketSource",
    "SourceFault",
    "FlakySourceAdapter",
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

_FAULT_KINDS = ("crash", "stall", "hang", "transient-errors")


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


@dataclass(frozen=True)
class SourceFault:
    """One scripted fault in a :class:`FlakySourceAdapter` schedule.

    Attributes:
        kind: ``"crash"`` (hard, permanent death at ``at_s``),
            ``"stall"`` (silent: no packets, data lost, for ``duration_s``),
            ``"hang"`` (one read blocks ``hang_s`` before returning), or
            ``"transient-errors"`` (reads raise
            :class:`~repro.errors.TransientSourceError` with
            ``probability`` while the window lasts).
        at_s: When the fault starts (simulated time).
        duration_s: Window length for ``"stall"`` / ``"transient-errors"``.
        probability: Per-read error probability for ``"transient-errors"``.
        hang_s: Blocked-read length for ``"hang"``.
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    probability: float = 1.0
    hang_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{_FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if self.kind in ("stall", "transient-errors") and self.duration_s <= 0:
            raise ConfigurationError(f"{self.kind} fault needs duration_s > 0")
        if self.kind == "hang" and self.hang_s <= 0:
            raise ConfigurationError("hang fault needs hang_s > 0")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")

    @property
    def end_s(self) -> float:
        """When the fault's window closes (== ``at_s`` for instant faults)."""
        return self.at_s + self.duration_s


class FlakySourceAdapter:
    """Inject scripted, seeded faults into any packet source.

    Faults are evaluated against the shared simulated clock: a ``crash``
    is permanent from ``at_s`` on; a ``stall`` silently loses the inner
    source's packets for its window while polls return ``None``; a ``hang``
    makes exactly one read consume ``hang_s`` of simulated time before
    delivering; ``transient-errors`` raise with a seeded coin flip while
    the window lasts.

    Args:
        inner: The healthy source being made flaky.
        clock: The shared service clock.
        faults: Scripted fault schedule.
        seed: Seed for the transient-error coin flips.
        nominal_interval_s: Poll cadence during a stall (how much simulated
            time a fruitless read consumes).
    """

    def __init__(
        self,
        inner: PacketSource,
        clock: SimulatedClock,
        faults: tuple[SourceFault, ...] | list[SourceFault] = (),
        *,
        seed: int = 0,
        nominal_interval_s: float = 0.01,
    ):
        if nominal_interval_s <= 0:
            raise ConfigurationError("nominal_interval_s must be positive")
        self._inner = inner
        self._clock = clock
        self._faults = tuple(faults)
        self._rng = np.random.default_rng(seed)
        self._interval_s = float(nominal_interval_s)
        self._crashed = False
        self._fired_hangs: set[int] = set()
        self._pending: Packet | None = None
        self.n_dropped_in_stalls = 0

    @property
    def exhausted(self) -> bool:
        """True once the inner source is done and nothing is buffered."""
        return self._pending is None and self._inner.exhausted

    def _pull(self) -> Packet | None:
        if self._pending is not None:
            pkt, self._pending = self._pending, None
            return pkt
        return self._inner.next_packet()

    def next_packet(self) -> Packet | None:
        """Deliver the next packet, subject to the fault schedule."""
        if self._crashed:
            raise SourceCrashedError("source previously crashed")
        now = self._clock.now_s
        for index, fault in enumerate(self._faults):
            if fault.kind == "crash" and now >= fault.at_s:
                self._crashed = True
                raise SourceCrashedError(
                    f"scripted hard crash at t={fault.at_s:.3f}s"
                )
            if fault.kind == "stall" and fault.at_s <= now < fault.end_s:
                return self._stall_poll()
            if (
                fault.kind == "transient-errors"
                and fault.at_s <= now < fault.end_s
                and float(self._rng.random()) < fault.probability
            ):
                raise TransientSourceError(
                    f"scripted transient read error at t={now:.3f}s"
                )
            if (
                fault.kind == "hang"
                and now >= fault.at_s
                and index not in self._fired_hangs
            ):
                self._fired_hangs.add(index)
                self._clock.advance(fault.hang_s)
        return self._pull()

    def _stall_poll(self) -> None:
        """One fruitless poll: time passes, the backlog is lost."""
        new_now = self._clock.advance(self._interval_s)
        while True:
            pkt = self._pull()
            if pkt is None:
                break
            if pkt.timestamp_s >= new_now:
                self._pending = pkt
                break
            self.n_dropped_in_stalls += 1
        return None


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
        self._source = source_factory(clock.now_s)
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

    def _count(self, name: str, help_text: str) -> None:
        """Mirror one ``counters`` increment into the metrics registry."""
        self._obs.count(
            name, labels={"subject": self._subject}, help_text=help_text
        )

    def _backoff_delay_s(self, attempt: int) -> float:
        base = BACKOFF_BASE_S * BACKOFF_FACTOR**attempt
        jitter = 1.0 + JITTER_FRACTION * float(
            self._rng.uniform(-1.0, 1.0)
        )
        return base * jitter

    def _rebuild(self) -> None:
        """Replace a crashed source with a fresh one starting 'now'."""
        self._source = self._factory(self._clock.now_s)
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
        """One supervised read.

        Returns:
            The packet, or ``None`` when the source has nothing yet.

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
                packet = self._source.next_packet()
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
            if packet is not None:
                self.counters["reads_ok"] += 1
                self._count("source_reads_ok_total", "Successful packet reads.")
            return packet
