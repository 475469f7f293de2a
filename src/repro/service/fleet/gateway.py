"""The fleet gateway: ingest front door for thousands of monitor sessions.

One :class:`FleetGateway` owns the fleet clock, the admission controller,
and a deterministic pool of logical worker shards.  Each admitted session
gets a bounded ingest queue, a private upstream packet source, and its own
single-subject :class:`~repro.service.supervisor.MonitorSupervisor`; the
gateway schedules them in fixed rounds:

1. the fleet clock advances one ``round_interval_s`` heartbeat — the
   *only* thing that moves fleet time;
2. shard by shard, session by session (admission order), packets whose
   capture time has arrived are pulled from the upstream into the
   session's queue (*ingest*), then fed to the session's supervisor one
   :meth:`~repro.service.supervisor.MonitorSupervisor.tick` per packet
   (*drain*) — a tick is only scheduled when the queue is non-empty, so
   no session ever burns a fruitless poll interval of shared time;
3. every session's queue depth is scored against the watermarks and the
   **pressure ladder** reacts: throttle (wider emission hop), then
   degrade (pin the estimator fallback ladder at a cheaper rung), and
   only after sustained deep overload does the session become a shed
   candidate;
4. the fleet-level **shed pass** sheds candidates lowest-priority /
   most-degraded first, within the hard ``max_shed_sessions`` budget.

Because fleet time is advanced solely by the heartbeat and every
estimate depends only on the session's own packet sequence, a session's
estimate stream is byte-identical whether it runs alone or next to a
thousand neighbours — the isolation contract the fleet chaos harness
(:mod:`~repro.service.fleet.chaos`) enforces.

Upstream sources run on a *private* per-session clock so replayed traces
(:class:`~repro.service.sources.TracePacketSource` pins its clock to
packet timestamps) can be read ahead without dragging fleet time forward.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from ...core.streaming import StreamingConfig
from ...errors import (
    ConfigurationError,
    ReproError,
    SourceCrashedError,
)
from ...obs import (
    DEFAULT_SIZE_BUCKETS,
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from ..clock import SimulatedClock
from ..events import EventLog
from ..sources import Packet, PacketSource
from ..supervisor import (
    MonitorSupervisor,
    ServiceEstimate,
    SubjectHealth,
    SupervisorConfig,
)
from .admission import AdmissionController
from .config import (
    DEGRADE_FALLBACK_LEVEL,
    DEGRADE_HOP_STRETCH,
    RECOVER_AFTER_ROUNDS,
    SHED_AFTER_ROUNDS,
    THROTTLE_AFTER_ROUNDS,
    THROTTLE_HOP_STRETCH,
    FleetConfig,
)
from .queue import BoundedPacketQueue, QueuedPacketSource

__all__ = ["SessionStatus", "FleetGateway"]


class SessionStatus(enum.Enum):
    """Lifecycle state of one fleet session."""

    ACTIVE = "active"
    SHED = "shed"
    FINISHED = "finished"


class _Session:
    """Mutable gateway-side state for one session (internal)."""

    def __init__(
        self,
        session_id: str,
        shard: int,
        priority: int,
        admission_index: int,
        upstream: PacketSource,
        upstream_clock: SimulatedClock,
        queue: BoundedPacketQueue,
        qsource: QueuedPacketSource,
        supervisor: MonitorSupervisor,
    ):
        self.session_id = session_id
        self.shard = shard
        self.priority = priority
        self.admission_index = admission_index
        self.upstream = upstream
        self.upstream_clock = upstream_clock
        self.queue = queue
        self.qsource = qsource
        self.supervisor = supervisor
        self.status = SessionStatus.ACTIVE
        self.pending: Packet | None = None
        self.upstream_finished = False
        # Pressure-ladder state.
        self.pressure_level = 0
        self.rounds_over_high = 0
        self.rounds_under_low = 0
        self.rounds_shed_eligible = 0
        # Fleet-fault windows (inactive while the deadline is in the past).
        self.burst_until_s = float("-inf")
        self.burst_ingest_factor = 1.0
        self.loss_until_s = float("-inf")
        self.slow_until_s = float("-inf")
        self.slow_drain_factor = 1.0
        self.n_loss_dropped_packets = 0
        self.n_emitted = 0
        # Fleet times at which fresh, healthy estimates were emitted —
        # the recovery signal an operator watches, immune to data-time
        # jumps when a burst fast-forwards the upstream.
        self.fresh_emit_times_s: list[float] = []

    @property
    def active(self) -> bool:
        """Whether the gateway still schedules this session."""
        return self.status is SessionStatus.ACTIVE


class FleetGateway:
    """Admit, schedule, and protect a fleet of monitor sessions.

    Args:
        clock: Fleet clock; a fresh one when omitted.  Advanced only by
            the gateway's round heartbeat.
        config: Fleet parameters (ceilings, watermarks, budgets).
        supervisor_config: Supervision parameters for every session.
        streaming_config: Monitor parameters for every session.
        events: Shared event log; a fresh one when omitted.
        seed: Master seed; each session derives a stable child seed from
            its id, so the same session is bit-identical in any fleet.
        instrumentation: Optional :class:`repro.obs.Instrumentation` for
            *fleet-level* metrics (``fleet_*`` series, labelled by shard
            — never by session, to bound cardinality).  Per-session
            supervisors are deliberately not instrumented.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        config: FleetConfig | None = None,
        supervisor_config: SupervisorConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        events: EventLog | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
    ):
        self.clock = clock if clock is not None else SimulatedClock()
        self.config = config if config is not None else FleetConfig()
        self.supervisor_config = (
            supervisor_config
            if supervisor_config is not None
            else SupervisorConfig()
        )
        self.streaming_config = (
            streaming_config
            if streaming_config is not None
            else StreamingConfig()
        )
        self.events = events if events is not None else EventLog()
        self._seed = int(seed)
        self._obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self.admission = AdmissionController(self.config)
        self._sessions: dict[str, _Session] = {}
        self._shards: list[list[str]] = [
            [] for _ in range(self.config.n_shards)
        ]
        self._n_admitted = 0
        self.n_shed_total = 0
        self.round_index = 0

    # ------------------------------------------------------------------
    # Admission.

    @staticmethod
    def _session_seed(session_id: str) -> int:
        """Stable per-session seed offset, independent of admission order."""
        # A tiny deterministic string hash (FNV-1a) — hash() is salted per
        # process and would break byte-reproducibility across runs.
        h = 2166136261
        for byte in session_id.encode("utf-8"):
            h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        return h

    def admit(
        self,
        session_id: str,
        upstream_factory: Callable[[SimulatedClock], PacketSource],
        sample_rate_hz: float,
        *,
        priority: int = 0,
    ) -> int:
        """Admit one session, returning its shard assignment.

        Args:
            session_id: Unique session name (used in events/estimates).
            upstream_factory: ``factory(clock) -> PacketSource`` building
                the session's capture source on the *private* clock the
                gateway hands it.
            sample_rate_hz: Nominal packet rate of the stream.
            priority: Shedding priority — lower values are shed first.

        Raises:
            FleetAdmissionError: The fleet or the least-loaded shard is at
                capacity, or the id is already admitted.
        """
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        try:
            shard = self.admission.admit(session_id)
        except Exception as exc:
            reason = getattr(exc, "reason", type(exc).__name__)
            self.events.record(
                self.clock.now_s,
                session_id,
                "session-rejected",
                reason=reason,
            )
            self._obs.count(
                "fleet_sessions_rejected_total",
                labels={"reason": str(reason)},
                help_text="Sessions refused by admission control.",
            )
            raise
        upstream_clock = SimulatedClock(self.clock.now_s)
        upstream = upstream_factory(upstream_clock)
        queue = BoundedPacketQueue(self.config.queue_capacity_packets)
        qsource = QueuedPacketSource(queue)
        supervisor = MonitorSupervisor(
            clock=self.clock,
            config=self.supervisor_config,
            streaming_config=self.streaming_config,
            events=self.events,
            seed=self._seed + self._session_seed(session_id),
        )
        # The factory ignores start_at_s: a rebuilt source keeps reading
        # the same queue, which is exactly "resume live".
        supervisor.add_subject(
            session_id, lambda _start_at_s: qsource, sample_rate_hz
        )
        session = _Session(
            session_id=session_id,
            shard=shard,
            priority=priority,
            admission_index=self._n_admitted,
            upstream=upstream,
            upstream_clock=upstream_clock,
            queue=queue,
            qsource=qsource,
            supervisor=supervisor,
        )
        self._sessions[session_id] = session
        self._shards[shard].append(session_id)
        self._n_admitted += 1
        self.events.record(
            self.clock.now_s,
            session_id,
            "session-admitted",
            shard=shard,
            priority=priority,
        )
        self._obs.count(
            "fleet_sessions_admitted_total",
            help_text="Sessions admitted by the gateway.",
        )
        return shard

    # ------------------------------------------------------------------
    # Introspection.

    @property
    def session_ids(self) -> tuple[str, ...]:
        """All ever-admitted session ids, in admission order."""
        return tuple(self._sessions)

    def sessions_on_shard(self, shard: int) -> tuple[str, ...]:
        """Session ids assigned to one shard, in admission order."""
        return tuple(self._shards[shard])

    def status(self, session_id: str) -> SessionStatus:
        """A session's lifecycle state."""
        return self._session(session_id).status

    def estimates(self, session_id: str) -> list[ServiceEstimate]:
        """A session's estimate stream so far, in emission order."""
        return self._session(session_id).supervisor.estimates_for(session_id)

    def fresh_emission_times(self, session_id: str) -> tuple[float, ...]:
        """Fleet times at which the session emitted fresh, healthy
        estimates.

        This is the recovery signal: unlike an estimate's own ``time_s``
        (which is data time and jumps forward when a burst delivers a
        backlog), emission times are on the gateway clock.
        """
        return tuple(self._session(session_id).fresh_emit_times_s)

    def results(self) -> dict[str, list[ServiceEstimate]]:
        """Estimate streams for every session, in admission order."""
        return {sid: self.estimates(sid) for sid in self._sessions}

    def fleet_summary(self) -> dict[str, Any]:
        """JSON-safe roll-up of fleet state (counts by status/health)."""
        by_status = {s.value: 0 for s in SessionStatus}
        by_health = {h.value: 0 for h in SubjectHealth}
        for session in self._sessions.values():  # phaselint: insertion-order -- counts only; every session is visited exactly once
            by_status[session.status.value] += 1
            summary = session.supervisor.health_summary()
            by_health[summary["health"]] += 1
        return {
            "n_sessions": len(self._sessions),
            "n_shards": self.config.n_shards,
            "rounds": self.round_index,
            "by_status": by_status,
            "by_health": by_health,
            "n_shed": self.n_shed_total,
            "n_queue_dropped": sum(  # phaselint: insertion-order -- integer sum, order-independent
                s.queue.n_dropped_total for s in self._sessions.values()
            ),
            "n_rejected": dict(self.admission.n_rejected_total),
        }

    def _session(self, session_id: str) -> _Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown session {session_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # Fleet-fault hooks (driven by the chaos harness).

    def crash_shard(self, shard: int, *, cause: str = "shard-crash") -> None:
        """Crash one worker shard: queues are lost, monitors die.

        Every active session on the shard loses its queued (and pending)
        packets and has its monitor killed; each monitor restarts through
        the supervisor's normal checkpoint-restore path.
        """
        if not 0 <= shard < self.config.n_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.config.n_shards - 1}], "
                f"got {shard}"
            )
        self.events.record(
            self.clock.now_s,
            "",
            "shard-crash",
            shard=shard,
            n_sessions=sum(
                1
                for sid in self._shards[shard]
                if self._sessions[sid].active
            ),
        )
        for sid in self._shards[shard]:
            session = self._sessions[sid]
            if not session.active:
                continue
            n_lost = session.queue.clear()
            if session.pending is not None:
                session.pending = None
                n_lost += 1
            self._obs.count(
                "fleet_queue_dropped_packets_total",
                amount=n_lost,
                labels={"shard": str(shard)},
                help_text="Packets lost from ingest queues (overflow, "
                "shed, shard crash).",
            )
            session.supervisor.crash_monitor(sid, cause=cause)

    def set_ingest_burst(
        self,
        session_ids: tuple[str, ...],
        *,
        until_s: float,
        ingest_factor: float,
    ) -> None:
        """Flood sessions' queues: upstream delivers faster than realtime.

        Until ``until_s``, the sessions' ingest budget is multiplied by
        ``ingest_factor`` and packets are pulled regardless of capture
        time (the upstream "catches up" a backlog all at once).
        """
        if ingest_factor < 1.0:
            raise ConfigurationError("ingest_factor must be >= 1")
        for sid in session_ids:
            session = self._session(sid)
            session.burst_until_s = float(until_s)
            session.burst_ingest_factor = float(ingest_factor)

    def set_slow_consumer(
        self,
        session_ids: tuple[str, ...],
        *,
        until_s: float,
        drain_factor: float,
    ) -> None:
        """Starve sessions' drain budget (a slow worker) until ``until_s``."""
        if not 0.0 < drain_factor <= 1.0:
            raise ConfigurationError("drain_factor must be in (0, 1]")
        for sid in session_ids:
            session = self._session(sid)
            session.slow_until_s = float(until_s)
            session.slow_drain_factor = float(drain_factor)

    def set_source_loss(
        self, session_ids: tuple[str, ...], *, until_s: float
    ) -> None:
        """Lose sessions' upstream packets entirely until ``until_s``."""
        for sid in session_ids:
            self._session(sid).loss_until_s = float(until_s)

    # ------------------------------------------------------------------
    # Scheduling.

    def run(
        self,
        *,
        max_duration_s: float | None = None,
        on_round: Callable[["FleetGateway"], None] | None = None,
    ) -> dict[str, list[ServiceEstimate]]:
        """Drive the fleet until every session finishes (or is shed).

        Args:
            max_duration_s: Optional simulated-time budget past the start.
            on_round: Optional hook called at the top of every round,
                before the heartbeat — the chaos harness uses it to fire
                scheduled fleet faults.

        Returns:
            Estimate streams per session, in admission order.
        """
        if not self._sessions:
            raise ConfigurationError("no sessions admitted")
        start_s = self.clock.now_s
        while any(s.active for s in self._sessions.values()):
            if (
                max_duration_s is not None
                and self.clock.now_s - start_s >= max_duration_s
            ):
                break
            if on_round is not None:
                on_round(self)
            self.run_round()
        return self.results()

    def run_round(self) -> None:
        """Execute one scheduling round (heartbeat, ingest, drain, policy)."""
        self.round_index += 1
        self.clock.advance(self.config.round_interval_s)
        now_s = self.clock.now_s
        for shard, sids in enumerate(self._shards):
            depth_total = 0
            for sid in sids:
                session = self._sessions[sid]
                if not session.active:
                    continue
                self._ingest(session, now_s)
                self._drain(session, now_s)
                self._finish_if_exhausted(session)
                if session.active:
                    depth_total += session.queue.depth
                    self._obs.observe(
                        "fleet_shard_queue_depth_packets",
                        session.queue.depth,
                        labels={"shard": str(shard)},
                        help_text="Per-session ingest-queue depth, "
                        "sampled every round.",
                        bucket_bounds=DEFAULT_SIZE_BUCKETS,
                    )
        for session in self._sessions.values():  # phaselint: insertion-order -- admission order is the scheduling contract (see docs/fleet.md)
            if session.active:
                self._update_pressure(session)
        self._shed_pass()
        self._update_fleet_gauges()

    def _ingest(self, session: _Session, now_s: float) -> None:
        """Pull due upstream packets into the session's queue."""
        in_loss = now_s < session.loss_until_s
        in_burst = now_s < session.burst_until_s
        budget = self.config.ingest_budget_packets
        if in_burst:
            budget = int(budget * session.burst_ingest_factor)
        shard_label = {"shard": str(session.shard)}
        n_evicted = 0
        for _ in range(budget):
            packet = session.pending
            session.pending = None
            if packet is None:
                packet = self._pull_upstream(session)
            if packet is None:
                break
            if not in_burst and packet.timestamp_s > now_s:
                # Not due yet: hold it for a later round.  The upstream
                # runs on a private clock, so reading ahead is harmless.
                session.pending = packet
                break
            if in_loss:
                session.n_loss_dropped_packets += 1
                continue
            if not session.queue.offer(packet):
                n_evicted += 1
        if n_evicted:
            self._obs.count(
                "fleet_queue_dropped_packets_total",
                amount=n_evicted,
                labels=shard_label,
                help_text="Packets lost from ingest queues (overflow, "
                "shed, shard crash).",
            )

    def _pull_upstream(self, session: _Session) -> Packet | None:
        try:
            return session.upstream.next_packet()
        except SourceCrashedError:
            session.upstream_finished = True
            self.events.record(
                self.clock.now_s,
                session.session_id,
                "ingest-upstream-crashed",
            )
            return None
        except ReproError as exc:
            self.events.record(
                self.clock.now_s,
                session.session_id,
                "ingest-error",
                error=type(exc).__name__,
            )
            return None

    def _drain(self, session: _Session, now_s: float) -> None:
        """Feed queued packets to the session's monitor, within budget."""
        budget = self.config.drain_budget_packets
        if now_s < session.slow_until_s:
            budget = max(1, int(budget * session.slow_drain_factor))
        n_ticks = min(budget, session.queue.depth)
        if n_ticks == 0:
            return
        supervisor = session.supervisor
        before = session.n_emitted
        for _ in range(n_ticks):
            if supervisor.subject_done(session.session_id):
                break
            supervisor.tick(session.session_id)
        estimates = supervisor.estimates_for(session.session_id)
        session.n_emitted = len(estimates)
        for estimate in estimates[before:]:
            if estimate.fresh and estimate.ok:
                session.fresh_emit_times_s.append(now_s)
            self._obs.observe(
                "fleet_window_latency_s",
                max(0.0, now_s - estimate.time_s),
                labels={"shard": str(session.shard)},
                help_text="Lag between a window's end and its emission "
                "round.",
            )

    def _finish_if_exhausted(self, session: _Session) -> None:
        if not session.upstream_finished and session.upstream.exhausted:
            session.upstream_finished = True
        if session.upstream_finished and session.pending is None:
            session.qsource.mark_finished()
        if session.supervisor.subject_done(session.session_id):
            session.status = SessionStatus.FINISHED
            self.admission.release(session.session_id)
            self.events.record(
                self.clock.now_s,
                session.session_id,
                "session-finished",
                n_estimates=session.n_emitted,
            )

    # ------------------------------------------------------------------
    # Backpressure policy.

    def _update_pressure(self, session: _Session) -> None:
        depth = session.queue.depth
        if depth >= self.config.high_watermark_packets:
            session.rounds_over_high += 1
            session.rounds_under_low = 0
        elif depth <= self.config.low_watermark_packets:
            session.rounds_under_low += 1
            session.rounds_over_high = 0
        else:
            # Hysteresis band: neither escalating nor recovering.
            session.rounds_over_high = 0
            session.rounds_under_low = 0
        if (
            session.rounds_over_high >= THROTTLE_AFTER_ROUNDS
            and session.pressure_level < 2
        ):
            self._escalate_pressure(session)
        elif session.pressure_level == 2 and session.rounds_over_high > 0:
            session.rounds_shed_eligible += 1
        if (
            session.rounds_under_low >= RECOVER_AFTER_ROUNDS
            and session.pressure_level > 0
        ):
            self._relieve_pressure(session)

    def _escalate_pressure(self, session: _Session) -> None:
        sid = session.session_id
        session.rounds_over_high = 0
        session.pressure_level += 1
        if session.pressure_level == 1:
            session.supervisor.set_hop_stretch(sid, THROTTLE_HOP_STRETCH)
            self.events.record(
                self.clock.now_s,
                sid,
                "session-throttled",
                hop_stretch=THROTTLE_HOP_STRETCH,
                depth=session.queue.depth,
            )
            self._obs.count(
                "fleet_sessions_throttled_total",
                help_text="Pressure-ladder escalations to level 1 "
                "(hop throttling).",
            )
        else:
            session.supervisor.set_hop_stretch(sid, DEGRADE_HOP_STRETCH)
            session.supervisor.set_min_fallback_level(
                sid, DEGRADE_FALLBACK_LEVEL, reason="fleet-overload"
            )
            self.events.record(
                self.clock.now_s,
                sid,
                "session-degraded",
                hop_stretch=DEGRADE_HOP_STRETCH,
                fallback_level=DEGRADE_FALLBACK_LEVEL,
                depth=session.queue.depth,
            )
            self._obs.count(
                "fleet_sessions_degraded_total",
                help_text="Pressure-ladder escalations to level 2 "
                "(estimator degradation).",
            )

    def _relieve_pressure(self, session: _Session) -> None:
        sid = session.session_id
        session.rounds_under_low = 0
        session.rounds_shed_eligible = 0
        session.pressure_level -= 1
        if session.pressure_level == 1:
            session.supervisor.set_min_fallback_level(
                sid, 0, reason="fleet-overload-cleared"
            )
            session.supervisor.set_hop_stretch(sid, THROTTLE_HOP_STRETCH)
        else:
            session.supervisor.set_hop_stretch(sid, 1.0)
        self.events.record(
            self.clock.now_s,
            sid,
            "session-pressure-recovered",
            to_level=session.pressure_level,
            depth=session.queue.depth,
        )

    # ------------------------------------------------------------------
    # Load shedding.

    def _shed_pass(self) -> None:
        budget = self.config.max_shed_sessions - self.n_shed_total
        if budget <= 0:
            return
        candidates = [
            s
            for s in self._sessions.values()
            if s.active
            and s.pressure_level == 2
            and s.rounds_shed_eligible >= SHED_AFTER_ROUNDS
        ]
        if not candidates:
            return
        # Lowest priority first, then most degraded, then deepest queue;
        # admission index makes the order total and deterministic.
        candidates.sort(
            key=lambda s: (
                s.priority,
                -self._degradation_score(s),
                -s.queue.depth,
                s.admission_index,
            )
        )
        for session in candidates[:budget]:
            self._shed(session)

    def _degradation_score(self, session: _Session) -> int:
        summary = session.supervisor.health_summary()
        health_rank = {"healthy": 0, "degraded": 1, "failed": 2}
        return health_rank[summary["health"]]

    def _shed(self, session: _Session) -> None:
        sid = session.session_id
        n_lost = session.queue.clear()
        if session.pending is not None:
            session.pending = None
            n_lost += 1
        session.status = SessionStatus.SHED
        self.admission.release(sid)
        self.n_shed_total += 1
        self.events.record(
            self.clock.now_s,
            sid,
            "session-shed",
            priority=session.priority,
            n_dropped=n_lost,
            n_estimates=session.n_emitted,
        )
        self._obs.count(
            "fleet_sessions_shed_total",
            help_text="Sessions shed by the overload policy.",
        )
        if n_lost:
            self._obs.count(
                "fleet_queue_dropped_packets_total",
                amount=n_lost,
                labels={"shard": str(session.shard)},
                help_text="Packets lost from ingest queues (overflow, "
                "shed, shard crash).",
            )

    # ------------------------------------------------------------------
    # Fleet health gauges.

    def _update_fleet_gauges(self) -> None:
        n_active = 0
        n_degraded = 0
        n_throttled = 0
        for session in self._sessions.values():  # phaselint: insertion-order -- counts only; every session is visited exactly once
            if not session.active:
                continue
            n_active += 1
            if session.pressure_level >= 2:
                n_degraded += 1
            elif session.pressure_level == 1:
                n_throttled += 1
        self._obs.gauge_set(
            "fleet_sessions_active_count",
            n_active,
            help_text="Sessions currently scheduled by the gateway.",
        )
        self._obs.gauge_set(
            "fleet_sessions_throttled_count",
            n_throttled,
            help_text="Active sessions at pressure level 1.",
        )
        self._obs.gauge_set(
            "fleet_sessions_degraded_count",
            n_degraded,
            help_text="Active sessions at pressure level 2.",
        )
