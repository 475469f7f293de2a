"""Supervised monitoring of one subject: a fault domain around its monitor.

:class:`MonitorSupervisor` owns one subject's
:class:`~repro.core.streaming.StreamingMonitor` plus its
:class:`~repro.service.sources.ResilientSource`, and puts an explicit
fault boundary around them:

* **source faults** (transient errors, timeouts, crashes, open breakers)
  are absorbed at the source wrapper and surface only as recorded events
  and missing packets;
* a **watchdog on simulated time** detects silent stalls — no packet and
  no error while the clock advances — and force-restarts the source;
* **monitor crashes** are caught, the monitor is rebuilt and restored from
  its latest periodic :meth:`~repro.core.streaming.StreamingMonitor.checkpoint`,
  and repeated restarts escalate the subject to a failed health state;
* sustained **input degradation** (``"data-gap"`` / ``"degraded-input"``
  window gates firing for K consecutive windows) walks the subject down an
  **estimator fallback ladder** — phase difference → CSI ratio → amplitude
  baseline — and cross-checks against the primary estimator on recovery
  before climbing back up.  Passing a trained
  :class:`~repro.learn.LearnedEstimator` inserts a ``"learned"`` rung
  between the primary and the CSI-ratio baseline, so degraded windows are
  first served by the learned track before falling to the classical
  baselines.

Many subjects are served by the fleet gateway
(:class:`~repro.service.fleet.gateway.FleetGateway`), which runs one
supervisor per session.  Every transition lands in the shared
:class:`~repro.service.events.EventLog`, so a run is fully auditable and
the chaos harness can assert transition order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..baselines.amplitude import AmplitudeMethod
from ..core.streaming import (
    StreamingConfig,
    StreamingEstimate,
    StreamingMonitor,
)
from ..errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigurationError,
    ReproError,
    SourceCrashedError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from ..extensions.csi_ratio import CsiRatioEstimator
from ..obs import (
    DEFAULT_SIZE_BUCKETS,
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from .breaker import BreakerState
from .clock import SimulatedClock
from .events import EventLog
from .sources import PacketSource, ResilientSource

__all__ = [
    "SubjectHealth",
    "FALLBACK_METHODS",
    "LEARNED_FALLBACK_METHODS",
    "RECOVERY_TOLERANCE_BPM",
    "RECOVERY_FRESH_WINDOWS",
    "WATCHDOG_TIMEOUT_S",
    "MAX_MONITOR_RESTARTS",
    "FALLBACK_AFTER_WINDOWS",
    "BreathingEstimator",
    "SupervisorConfig",
    "ServiceEstimate",
    "MonitorSupervisor",
]

# The estimator fallback ladder, primary first.  Escalation moves right one
# rung at a time; recovery jumps straight back to the primary.
FALLBACK_METHODS: tuple[str, ...] = (
    "phase-difference",
    "csi-ratio",
    "amplitude",
)

# The ladder when a learned estimator is supplied: the learned rung serves
# degraded windows before the classical baselines get a turn.
LEARNED_FALLBACK_METHODS: tuple[str, ...] = (
    "phase-difference",
    "learned",
    "csi-ratio",
    "amplitude",
)

# Recovery back to the primary rung: it is cross-checked when the fallback
# estimator agrees with the recovered primary within RECOVERY_TOLERANCE_BPM,
# and forced after RECOVERY_FRESH_WINDOWS fresh primary windows when the
# fallback cannot produce a cross-check value or disagrees.
RECOVERY_TOLERANCE_BPM = 1.5
RECOVERY_FRESH_WINDOWS = 2

# Silence (no packet delivered, simulated seconds) before the watchdog
# declares a stall and force-restarts the source.
WATCHDOG_TIMEOUT_S = 3.0
# Monitor restarts tolerated before the subject is escalated to
# SubjectHealth.FAILED.
MAX_MONITOR_RESTARTS = 3
# Consecutive quality-gated windows ("data-gap" / "degraded-input") before
# stepping one rung down the estimator ladder.
FALLBACK_AFTER_WINDOWS = 3


class BreathingEstimator(Protocol):
    """Anything servable on a ladder rung: window trace in, bpm out."""

    def estimate_breathing_bpm(self, trace: Any) -> float:
        """Breathing-rate estimate (bpm) for one window trace."""
        ...


class SubjectHealth(enum.Enum):
    """Coarse per-subject health the service reports upstream."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision parameters (all times are simulated seconds).

    Attributes:
        checkpoint_interval_s: How often the monitor is checkpointed.
    """

    checkpoint_interval_s: float = 10.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval_s <= 0:
            raise ConfigurationError("checkpoint_interval_s must be positive")


@dataclass(frozen=True)
class ServiceEstimate:
    """One breathing-rate emission from the supervised service.

    Attributes:
        subject: Which subject it belongs to.
        time_s: End of the analysis window (simulated time).
        rate_bpm: The breathing estimate (``nan`` when nothing usable).
        method: Estimator that produced ``rate_bpm`` (one of
            :data:`FALLBACK_METHODS`), or ``None`` when ``rate_bpm`` is
            ``nan``.
        fresh: The value was computed from this window (by whichever
            estimator), not held over.
        held_over: The value is a re-emission of an earlier estimate.
        rejected_reason: The primary path's window-gate reason, if any.
        fallback_level: Ladder rung in effect when emitting (0 = primary).
        health: Subject health at emission time.
    """

    subject: str
    time_s: float
    rate_bpm: float
    method: str | None
    fresh: bool
    held_over: bool
    rejected_reason: str | None
    fallback_level: int
    health: SubjectHealth

    @property
    def ok(self) -> bool:
        """Whether a usable rate is attached."""
        return not math.isnan(self.rate_bpm)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (``nan`` rates serialize as ``None``).

        The canonical-JSON encoding of this dict is what the fleet chaos
        harness byte-compares between a fleet run and a solo run, so every
        field that could differ between the two must appear here.
        """
        return {
            "subject": self.subject,
            "time_s": self.time_s,
            "rate_bpm": None if math.isnan(self.rate_bpm) else self.rate_bpm,
            "method": self.method,
            "fresh": self.fresh,
            "held_over": self.held_over,
            "rejected_reason": self.rejected_reason,
            "fallback_level": self.fallback_level,
            "health": self.health.value,
        }


class MonitorSupervisor:
    """Run one subject's monitor under explicit supervision.

    Args:
        clock: Simulated clock; a fresh one when omitted.
        config: Supervision parameters.
        streaming_config: Monitor parameters.
        events: Event log to record into; a fresh one when omitted.
        seed: Seed for the source's retry jitter.
        instrumentation: Optional :class:`repro.obs.Instrumentation`,
            shared with the subject's source, breaker, monitor, and
            pipeline; records restarts, checkpoints, fallback-ladder
            moves, stalls, and health levels (``supervisor_*`` series).
        learned_estimator: Optional trained estimator (typically a
            :class:`~repro.learn.LearnedEstimator`); when given, the
            fallback ladder becomes
            :data:`LEARNED_FALLBACK_METHODS` and degraded windows are
            served by the learned rung before the classical baselines.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        config: SupervisorConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        events: EventLog | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
        learned_estimator: BreathingEstimator | None = None,
    ):
        self.clock = clock if clock is not None else SimulatedClock()
        self.config = config if config is not None else SupervisorConfig()
        self.streaming_config = (
            streaming_config if streaming_config is not None else StreamingConfig()
        )
        self.events = events if events is not None else EventLog()
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._seed = int(seed)
        self._ladder: tuple[str, ...] = (
            LEARNED_FALLBACK_METHODS
            if learned_estimator is not None
            else FALLBACK_METHODS
        )
        self._rung_estimators: dict[str, BreathingEstimator] = {
            "csi-ratio": CsiRatioEstimator(),
            "amplitude": AmplitudeMethod(),
        }
        if learned_estimator is not None:
            self._rung_estimators["learned"] = learned_estimator
        # The subject's supervision state.  ``_name`` stays empty until
        # add_subject registers the subject and builds its source/monitor.
        self._name = ""
        self._source: ResilientSource
        self._monitor: StreamingMonitor
        self._interval_s: float
        self._last_progress_s: float
        self._last_checkpoint_s: float
        self._health = SubjectHealth.HEALTHY
        self._fallback_level = 0
        # Floor the overload policy can pin the ladder at: recovery climbs
        # back to this rung, never above it, until the pin is released.
        self._min_fallback_level = 0
        self._hop_stretch = 1.0
        self._consecutive_gated = 0
        self._consecutive_fresh = 0
        self._monitor_restarts = 0
        # Scripted monitor-crash times (simulated seconds) not yet fired,
        # kept sorted; consumed front-to-back by _tick.
        self._pending_crashes_s: list[float] = []
        self._failed = False
        self._last_checkpoint: dict[str, Any] | None = None
        self._last_estimate: ServiceEstimate | None = None
        self._estimates: list[ServiceEstimate] = []

    @property
    def fallback_methods(self) -> tuple[str, ...]:
        """The estimator ladder in effect (primary first)."""
        return self._ladder

    def add_subject(
        self,
        name: str,
        source_factory: Callable[[float], PacketSource],
        sample_rate_hz: float,
    ) -> None:
        """Register the subject with its capture-source factory.

        A supervisor holds exactly one subject; the fleet gateway runs one
        supervisor per session.

        Args:
            name: Non-empty subject name (used in events and estimates,
                and checked by every method that takes a name).
            source_factory: ``factory(start_at_s) -> PacketSource``; called
                now and again after every hard source crash.
            sample_rate_hz: Nominal packet rate of the subject's stream.
        """
        if self._name:
            raise ConfigurationError(
                f"subject {self._name!r} already registered; a supervisor "
                "holds one subject"
            )
        if not name:
            raise ConfigurationError("subject name must be non-empty")
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        self._source = ResilientSource(
            source_factory,
            self.clock,
            subject=name,
            events=self.events,
            seed=self._seed,
            instrumentation=self._obs,
        )
        self._monitor = StreamingMonitor(
            sample_rate_hz,
            self.streaming_config,
            instrumentation=self._obs,
        )
        self._interval_s = 1.0 / float(sample_rate_hz)
        self._last_progress_s = self.clock.now_s
        self._last_checkpoint_s = self.clock.now_s
        self._name = name

    def run(
        self, *, max_duration_s: float | None = None
    ) -> list[ServiceEstimate]:
        """Drive the subject until its source is exhausted (or it fails).

        Args:
            max_duration_s: Optional simulated-time budget; the loop stops
                once the clock has advanced this far past its start.

        Returns:
            The subject's estimates, in emission order.
        """
        if not self._name:
            raise ConfigurationError("no subject registered")
        start_s = self.clock.now_s
        while not self._done:
            if (
                max_duration_s is not None
                and self.clock.now_s - start_s >= max_duration_s
            ):
                break
            self._tick()
        return list(self._estimates)

    def tick(self, name: str) -> None:
        """Run one scheduling tick (no-op once the subject is done).

        This is the unit of work the fleet gateway schedules: one
        supervised source read, fed to the monitor, with checkpointing,
        watchdog, fallback-ladder, and health handling exactly as in
        :meth:`run` — which is itself a loop of these ticks.
        """
        self._check(name)
        if not self._done:
            self._tick()

    def subject_done(self, name: str) -> bool:
        """Whether the subject has permanently finished (failed or
        exhausted)."""
        self._check(name)
        return self._done

    def estimates_for(self, name: str) -> list[ServiceEstimate]:
        """The subject's emissions so far, in emission order."""
        self._check(name)
        return list(self._estimates)

    def crash_monitor(self, name: str, *, cause: str = "injected") -> None:
        """Kill the subject's monitor as a crash would, and restart it.

        The monitor object is discarded and rebuilt through the normal
        restart path — restored from the latest periodic checkpoint when
        one exists, cold otherwise — so callers (the fleet chaos harness's
        shard-crash fault, the scripted ``monitor-crash`` chaos kind)
        exercise exactly the code path a real in-monitor exception takes.
        """
        self._check(name)
        if not self._done:
            self._inject_crash(cause)

    def schedule_monitor_crash(self, name: str, at_s: float) -> None:
        """Script a monitor crash at a simulated time.

        The crash fires on the first tick at or after ``at_s`` via
        :meth:`crash_monitor`.  Multiple schedules accumulate.
        """
        self._check(name)
        self._pending_crashes_s.append(float(at_s))
        self._pending_crashes_s.sort()

    def set_hop_stretch(self, name: str, stretch: float) -> None:
        """Throttle (or restore) the subject's emission cadence.

        Applies :meth:`StreamingMonitor.set_hop_stretch` and remembers the
        factor so a monitor rebuilt after a crash comes back with the same
        throttle still in force.
        """
        self._check(name)
        self._hop_stretch = float(stretch)
        self._monitor.set_hop_stretch(self._hop_stretch)

    def set_min_fallback_level(
        self, name: str, level: int, *, reason: str = "overload"
    ) -> None:
        """Pin the subject's estimator ladder at (or release it to) a floor.

        Raising the floor above the current rung walks the ladder down
        immediately (recorded as ``fallback-escalated`` events); recovery
        cross-checks then climb back only as far as the floor.  Lowering
        the floor releases the pin and lets the normal recovery path climb
        the rest of the way.
        """
        if not 0 <= level < len(self._ladder):
            raise ConfigurationError(
                f"fallback level must be in [0, {len(self._ladder) - 1}], "
                f"got {level}"
            )
        self._check(name)
        self._min_fallback_level = int(level)
        while self._fallback_level < self._min_fallback_level:
            self._escalate(reason)
        self._update_health()

    def health_summary(self) -> dict[str, Any]:
        """The subject's health snapshot for reporting.

        Returns:
            ``health``, active estimator ``method``, ``fallback_level``,
            ``monitor_restarts``, ``breaker`` state, source and monitor
            counters, and ``n_estimates``.
        """
        if not self._name:
            raise ConfigurationError("no subject registered")
        return {
            "health": self._health.value,
            "method": self._ladder[self._fallback_level],
            "fallback_level": self._fallback_level,
            "monitor_restarts": self._monitor_restarts,
            "breaker": self._source.breaker.state.value,
            "source_counters": dict(self._source.counters),
            "monitor_counters": dict(self._monitor.counters),
            "n_estimates": len(self._estimates),
        }

    def _check(self, name: str) -> None:
        if not self._name or name != self._name:
            raise ConfigurationError(
                f"unknown subject {name!r}; this supervisor holds "
                f"{self._name or 'no subject'!r}"
            )

    @property
    def _done(self) -> bool:
        """No further work possible for the subject."""
        return self._failed or self._source.exhausted

    def _inject_crash(self, cause: str) -> None:
        self.events.record(
            self.clock.now_s,
            self._name,
            "monitor-crash",
            error="InjectedMonitorCrash",
            message=cause,
        )
        self._restart_monitor(
            cause=RuntimeError(f"injected monitor crash: {cause}")
        )
        self._update_health()

    # ------------------------------------------------------------------
    # One scheduling tick.

    def _tick(self) -> None:
        while (
            self._pending_crashes_s
            and self.clock.now_s >= self._pending_crashes_s[0]
            and not self._done
        ):
            at_s = self._pending_crashes_s.pop(0)
            self._inject_crash(cause=f"scheduled at {at_s:g}s")
        if self._done:
            return
        t_before = self.clock.now_s
        packet = None
        try:
            packet = self._source.next_packet()
        except CircuitOpenError:
            # Short-circuited: no read happened.  Time still has to pass,
            # or the cooldown would never elapse (handled below).
            pass
        except (SourceTimeoutError, SourceUnavailableError) as exc:
            self.events.record(
                self.clock.now_s,
                self._name,
                "source-error",
                error=type(exc).__name__,
                message=str(exc),
            )
        except SourceCrashedError:
            # Crash + rebuild already recorded by the resilient wrapper.
            pass
        if packet is None and self.clock.now_s <= t_before:
            # Guarantee forward progress: a fruitless tick (failed or
            # short-circuited read) costs one poll interval of simulated
            # time.  A delivered packet is progress by itself — its
            # timestamp may lag the clock when the fleet gateway's round
            # heartbeat already advanced it.
            self.clock.advance(self._interval_s)

        if packet is None:
            self._check_watchdog()
            self._update_health()
            return

        self._last_progress_s = self.clock.now_s
        estimate = self._feed_monitor(packet.csi, packet.timestamp_s)
        self._maybe_checkpoint()
        if estimate is not None:
            self._handle_estimate(estimate)
        self._update_health()

    def _check_watchdog(self) -> None:
        silence_s = self.clock.now_s - self._last_progress_s
        if silence_s <= WATCHDOG_TIMEOUT_S:
            return
        if self._source.exhausted:
            return  # end of data, not a stall
        if self._source.breaker.state is not BreakerState.CLOSED:
            # Silence has a known cause (open/probing breaker); restarting
            # the source would not help, and the stall alarm would be noise.
            self._last_progress_s = self.clock.now_s
            return
        self.events.record(
            self.clock.now_s,
            self._name,
            "stall-detected",
            silence_s=silence_s,
        )
        self._obs.count(
            "supervisor_stalls_detected_total",
            labels={"subject": self._name},
            help_text="Silent stalls caught by the watchdog.",
        )
        self._source.force_restart()
        self._last_progress_s = self.clock.now_s

    def _feed_monitor(
        self, csi: Any, timestamp_s: float
    ) -> StreamingEstimate | None:
        try:
            return self._monitor.push_packet(csi, timestamp_s)
        except ReproError as exc:
            self.events.record(
                self.clock.now_s,
                self._name,
                "monitor-crash",
                error=type(exc).__name__,
                message=str(exc),
            )
            self._restart_monitor(cause=exc)
            return None

    def _restart_monitor(self, cause: Exception) -> None:
        self._monitor_restarts += 1
        self._obs.count(
            "supervisor_monitor_restarts_total",
            labels={"subject": self._name},
            help_text="Monitor rebuilds after a crash.",
        )
        if self._monitor_restarts > MAX_MONITOR_RESTARTS:
            self._failed = True
            self.events.record(
                self.clock.now_s,
                self._name,
                "subject-failed",
                monitor_restarts=self._monitor_restarts,
            )
            self._obs.count(
                "supervisor_subject_failures_total",
                labels={"subject": self._name},
                help_text="Subjects escalated to FAILED (restart budget "
                "exhausted).",
            )
            return
        monitor = StreamingMonitor(
            self._monitor.sample_rate_hz,
            self.streaming_config,
            instrumentation=self._obs,
        )
        restored = False
        if self._last_checkpoint is not None:
            try:
                monitor.restore(self._last_checkpoint)
                restored = True
            except CheckpointError as exc:
                # A corrupt checkpoint must not stop the restart; the
                # monitor simply comes back cold (empty window).
                self.events.record(
                    self.clock.now_s,
                    self._name,
                    "checkpoint-restore-failed",
                    error=str(exc),
                )
        if self._hop_stretch != 1.0:  # phaselint: disable=PL004 -- exact 'no stretch' sentinel
            monitor.set_hop_stretch(self._hop_stretch)
        self._monitor = monitor
        self.events.record(
            self.clock.now_s,
            self._name,
            "monitor-restart",
            restored=restored,
            restarts=self._monitor_restarts,
            cause=type(cause).__name__,
        )

    def _maybe_checkpoint(self) -> None:
        if (
            self.clock.now_s - self._last_checkpoint_s
            < self.config.checkpoint_interval_s
        ):
            return
        self._last_checkpoint = self._monitor.checkpoint()
        self._last_checkpoint_s = self.clock.now_s
        n_buffered = len(self._last_checkpoint["buffer"])
        self.events.record(
            self.clock.now_s,
            self._name,
            "checkpoint",
            n_buffered=n_buffered,
        )
        self._obs.count(
            "supervisor_checkpoints_total",
            labels={"subject": self._name},
            help_text="Periodic monitor checkpoints taken.",
        )
        self._obs.observe(
            "supervisor_checkpoint_size_packets",
            n_buffered,
            labels={"subject": self._name},
            help_text="Buffered packets per checkpoint.",
            bucket_bounds=DEFAULT_SIZE_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Estimator fallback ladder.

    def _fallback_estimate(self) -> float | None:
        """Run the current fallback estimator on the monitor's window."""
        if self._fallback_level == 0:
            return None
        trace = self._monitor.window_trace()
        if trace is None:
            return None
        estimator = self._rung_estimators[self._ladder[self._fallback_level]]
        try:
            return float(estimator.estimate_breathing_bpm(trace))
        except ReproError:
            # A rung that cannot serve this window (contract violation,
            # degraded input, …) yields to the held-over primary estimate
            # rather than poisoning the emission stream.
            return None

    def _handle_estimate(self, estimate: StreamingEstimate) -> None:
        if estimate.fresh:
            assert estimate.result is not None
            self._consecutive_gated = 0
            rung_bpm = self._fallback_estimate()
            # At or below the overload floor the rung is served without a
            # recovery attempt: the pin exists because the fleet layer
            # wants this session cheap, not because the primary path is
            # distrusted.
            if self._fallback_level > self._min_fallback_level:
                rung_bpm = self._maybe_recover(
                    float(estimate.result.breathing_rates_bpm[0]), rung_bpm
                )
        else:
            self._consecutive_fresh = 0
            if estimate.rejected_reason in ("data-gap", "degraded-input"):
                self._consecutive_gated += 1
                self._maybe_escalate(estimate.rejected_reason)
            rung_bpm = self._fallback_estimate()
        self._emit(estimate, rung_bpm)

    def _maybe_recover(
        self, primary_bpm: float, rung_bpm: float | None
    ) -> float | None:
        """Cross-check a fresh primary value against the trusted rung.

        On recovery the ladder climbs back to the pinned floor (never
        above it) and that rung's value is returned; otherwise
        ``rung_bpm`` is.
        """
        if rung_bpm is not None and abs(rung_bpm - primary_bpm) <= RECOVERY_TOLERANCE_BPM:
            reason = "cross-check-agreed"
        else:
            self._consecutive_fresh += 1
            if self._consecutive_fresh < RECOVERY_FRESH_WINDOWS:
                return rung_bpm
            reason = (
                "fallback-unavailable" if rung_bpm is None else "primary-sustained"
            )
        from_level = self._fallback_level
        self._fallback_level = self._min_fallback_level
        self._consecutive_fresh = 0
        self._obs.count(
            "supervisor_fallback_recoveries_total",
            labels={"subject": self._name},
            help_text="Returns to the primary estimator.",
        )
        self._set_fallback_gauge()
        self.events.record(
            self.clock.now_s,
            self._name,
            "fallback-recovered",
            from_method=self._ladder[from_level],
            reason=reason,
            primary_bpm=primary_bpm,
            fallback_bpm=rung_bpm,
        )
        return self._fallback_estimate()

    def _maybe_escalate(self, reason: str | None) -> None:
        if (
            self._consecutive_gated < FALLBACK_AFTER_WINDOWS
            or self._fallback_level >= len(self._ladder) - 1
        ):
            return
        self._escalate(reason)

    def _escalate(self, reason: str | None) -> None:
        """Step one rung down the ladder and record it."""
        self._fallback_level += 1
        self._consecutive_gated = 0
        self._obs.count(
            "supervisor_fallback_escalations_total",
            labels={"subject": self._name},
            help_text="Steps down the estimator fallback ladder.",
        )
        self._set_fallback_gauge()
        self.events.record(
            self.clock.now_s,
            self._name,
            "fallback-escalated",
            to_method=self._ladder[self._fallback_level],
            level=self._fallback_level,
            reason=reason,
        )

    def _set_fallback_gauge(self) -> None:
        self._obs.gauge_set(
            "supervisor_fallback_level",
            self._fallback_level,
            labels={"subject": self._name},
            help_text="Current fallback-ladder rung (0 = primary).",
        )

    def _emit(self, estimate: StreamingEstimate, rung_bpm: float | None) -> None:
        """Emit the current rung's value when it has one; else the primary
        value (held over when the window was rejected); else ``nan``."""
        if rung_bpm is not None:
            rate_bpm = rung_bpm
            method: str | None = self._ladder[self._fallback_level]
            fresh = True
        elif estimate.result is not None:
            rate_bpm = float(estimate.result.breathing_rates_bpm[0])
            method = self._ladder[0]
            fresh = estimate.fresh
        else:
            rate_bpm, method, fresh = float("nan"), None, False
        record = ServiceEstimate(
            subject=self._name,
            time_s=estimate.time_s,
            rate_bpm=rate_bpm,
            method=method,
            fresh=fresh,
            held_over=estimate.held_over,
            rejected_reason=estimate.rejected_reason,
            fallback_level=self._fallback_level,
            health=self._health,
        )
        self._last_estimate = record
        self._estimates.append(record)

    # ------------------------------------------------------------------
    # Health.

    def _compute_health(self) -> SubjectHealth:
        if self._failed:
            return SubjectHealth.FAILED
        if self._fallback_level > 0:
            return SubjectHealth.DEGRADED
        if self._source.breaker.state is not BreakerState.CLOSED:
            return SubjectHealth.DEGRADED
        last = self._last_estimate
        if last is not None and (last.held_over or not last.ok):
            return SubjectHealth.DEGRADED
        return SubjectHealth.HEALTHY

    def _update_health(self) -> None:
        new = self._compute_health()
        if new is self._health:
            return
        self.events.record(
            self.clock.now_s,
            self._name,
            "health-changed",
            previous=self._health.value,
            health=new.value,
        )
        self._health = new
        # 0 = healthy, 1 = degraded, 2 = failed.
        health_levels = {
            SubjectHealth.HEALTHY: 0,
            SubjectHealth.DEGRADED: 1,
            SubjectHealth.FAILED: 2,
        }
        self._obs.gauge_set(
            "supervisor_subject_health_level",
            health_levels[new],
            labels={"subject": self._name},
            help_text="Coarse subject health (0 healthy, 1 degraded, "
            "2 failed).",
        )
