"""Supervised multi-subject monitoring: fault domains around the monitors.

:class:`MonitorSupervisor` owns one
:class:`~repro.core.streaming.StreamingMonitor` per subject plus the
subject's :class:`~repro.service.sources.ResilientSource`, and puts an
explicit fault boundary around each:

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

Every transition lands in the shared :class:`~repro.service.events.EventLog`,
so a run is fully auditable and the chaos harness can assert transition
order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..baselines.amplitude import AmplitudeMethod
from ..core.pipeline import PhaseBeatConfig
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
from .breaker import BreakerConfig, BreakerState
from .clock import SimulatedClock
from .events import EventLog
from .sources import PacketSource, ResilientSource, RetryConfig

__all__ = [
    "SubjectHealth",
    "FALLBACK_METHODS",
    "LEARNED_FALLBACK_METHODS",
    "RECOVERY_TOLERANCE_BPM",
    "RECOVERY_FRESH_WINDOWS",
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
        checkpoint_interval_s: How often each monitor is checkpointed.
        watchdog_timeout_s: Silence (no packet delivered) before the
            watchdog declares a stall and force-restarts the source.
        max_monitor_restarts: Monitor restarts tolerated before the
            subject is escalated to :attr:`SubjectHealth.FAILED`.
        fallback_after_windows: Consecutive quality-gated windows
            (``"data-gap"`` / ``"degraded-input"``) before stepping one
            rung down the estimator ladder.
        deadline_s: Per-read deadline handed to each subject's
            :class:`~repro.service.sources.ResilientSource`.
        retry: Bounded-backoff retry parameters for transient source
            errors.
        breaker: Per-source circuit-breaker parameters.
    """

    checkpoint_interval_s: float = 10.0
    watchdog_timeout_s: float = 3.0
    max_monitor_restarts: int = 3
    fallback_after_windows: int = 3
    deadline_s: float = 1.0
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.checkpoint_interval_s <= 0:
            raise ConfigurationError("checkpoint_interval_s must be positive")
        if self.watchdog_timeout_s <= 0:
            raise ConfigurationError("watchdog_timeout_s must be positive")
        if self.max_monitor_restarts < 0:
            raise ConfigurationError("max_monitor_restarts must be >= 0")
        if self.fallback_after_windows < 1:
            raise ConfigurationError("fallback_after_windows must be >= 1")
        if self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")


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


class _Subject:
    """Mutable supervision state for one subject (internal)."""

    def __init__(
        self,
        name: str,
        source: ResilientSource,
        monitor: StreamingMonitor,
        interval_s: float,
        now_s: float,
    ):
        self.name = name
        self.source = source
        self.monitor = monitor
        self.interval_s = interval_s
        self.health = SubjectHealth.HEALTHY
        self.fallback_level = 0
        # Floor the overload policy can pin the ladder at: recovery climbs
        # back to this rung, never above it, until the pin is released.
        self.min_fallback_level = 0
        self.hop_stretch = 1.0
        self.consecutive_gated = 0
        self.consecutive_fresh = 0
        self.monitor_restarts = 0
        # Scripted monitor-crash times (simulated seconds) not yet fired,
        # kept sorted; consumed front-to-back by _fire_scheduled_crashes.
        self.pending_crashes_s: list[float] = []
        self.failed = False
        self.last_progress_s = now_s
        self.last_checkpoint: dict[str, Any] | None = None
        self.last_checkpoint_s = now_s
        self.last_estimate: ServiceEstimate | None = None
        self.estimates: list[ServiceEstimate] = []

    @property
    def done(self) -> bool:
        """No further work possible for this subject."""
        return self.failed or self.source.exhausted


class MonitorSupervisor:
    """Run N subject monitors under explicit supervision.

    Args:
        clock: Shared simulated clock; a fresh one when omitted.
        config: Supervision parameters.
        streaming_config: Per-subject monitor parameters.
        pipeline_config: Underlying pipeline parameters.
        events: Event log to record into; a fresh one when omitted.
        seed: Master seed for per-source retry jitter (each subject gets a
            distinct child seed, so adding a subject never reshuffles the
            others' backoff timing).
        instrumentation: Optional :class:`repro.obs.Instrumentation`,
            shared with every subject's source, breaker, monitor, and
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
        pipeline_config: PhaseBeatConfig | None = None,
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
        self.pipeline_config = pipeline_config
        self.events = events if events is not None else EventLog()
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._seed = int(seed)
        self._subjects: dict[str, _Subject] = {}
        self._csi_ratio = CsiRatioEstimator()
        self._amplitude = AmplitudeMethod()
        self._ladder: tuple[str, ...] = (
            LEARNED_FALLBACK_METHODS
            if learned_estimator is not None
            else FALLBACK_METHODS
        )
        self._rung_estimators: dict[str, BreathingEstimator] = {
            "csi-ratio": self._csi_ratio,
            "amplitude": self._amplitude,
        }
        if learned_estimator is not None:
            self._rung_estimators["learned"] = learned_estimator

    @property
    def fallback_methods(self) -> tuple[str, ...]:
        """The estimator ladder in effect (primary first)."""
        return self._ladder

    @property
    def subjects(self) -> tuple[str, ...]:
        """Registered subject names, in registration order."""
        return tuple(self._subjects)

    def add_subject(
        self,
        name: str,
        source_factory: Callable[[float], PacketSource],
        sample_rate_hz: float,
    ) -> None:
        """Register a subject with its capture-source factory.

        Args:
            name: Unique subject name (used in events and estimates).
            source_factory: ``factory(start_at_s) -> PacketSource``; called
                now and again after every hard source crash.
            sample_rate_hz: Nominal packet rate of the subject's stream.
        """
        if name in self._subjects:
            raise ConfigurationError(f"subject {name!r} already registered")
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        source = ResilientSource(
            source_factory,
            self.clock,
            subject=name,
            events=self.events,
            deadline_s=self.config.deadline_s,
            retry=self.config.retry,
            breaker=self.config.breaker,
            seed=self._seed + len(self._subjects),
            instrumentation=self._obs,
        )
        monitor = StreamingMonitor(
            sample_rate_hz,
            self.streaming_config,
            self.pipeline_config,
            instrumentation=self._obs,
        )
        self._subjects[name] = _Subject(
            name=name,
            source=source,
            monitor=monitor,
            interval_s=1.0 / float(sample_rate_hz),
            now_s=self.clock.now_s,
        )

    def run(
        self, *, max_duration_s: float | None = None
    ) -> dict[str, list[ServiceEstimate]]:
        """Drive all subjects until their sources are exhausted.

        Args:
            max_duration_s: Optional simulated-time budget; the loop stops
                once the clock has advanced this far past its start.

        Returns:
            Estimates per subject, in emission order.
        """
        if not self._subjects:
            raise ConfigurationError("no subjects registered")
        start_s = self.clock.now_s
        while True:
            active = [s for s in self._subjects.values() if not s.done]
            if not active:
                break
            if (
                max_duration_s is not None
                and self.clock.now_s - start_s >= max_duration_s
            ):
                break
            for subject in active:
                self._tick(subject)
        return {name: s.estimates for name, s in self._subjects.items()}

    def tick(self, name: str) -> None:
        """Run one scheduling tick for one subject (no-op once it is done).

        This is the unit of work the fleet gateway schedules: one
        supervised source read, fed to the monitor, with checkpointing,
        watchdog, fallback-ladder, and health handling exactly as in
        :meth:`run` — which is itself a loop of these ticks.
        """
        subject = self._subject(name)
        if subject.done:
            return
        self._tick(subject)

    def subject_done(self, name: str) -> bool:
        """Whether a subject has permanently finished (failed or
        exhausted)."""
        return self._subject(name).done

    def estimates_for(self, name: str) -> list[ServiceEstimate]:
        """The subject's emissions so far, in emission order."""
        return list(self._subject(name).estimates)

    def crash_monitor(self, name: str, *, cause: str = "injected") -> None:
        """Kill a subject's monitor as a crash would, and restart it.

        The monitor object is discarded and rebuilt through the normal
        restart path — restored from the latest periodic checkpoint when
        one exists, cold otherwise — so callers (the fleet chaos harness's
        shard-crash fault, the scripted ``monitor-crash`` chaos kind)
        exercise exactly the code path a real in-monitor exception takes.
        """
        subject = self._subject(name)
        if subject.done:
            return
        self._inject_crash(subject, cause)

    def schedule_monitor_crash(self, name: str, at_s: float) -> None:
        """Script a monitor crash at a simulated time.

        The crash fires on the first tick at or after ``at_s`` via
        :meth:`crash_monitor`.  Multiple schedules accumulate.
        """
        subject = self._subject(name)
        subject.pending_crashes_s.append(float(at_s))
        subject.pending_crashes_s.sort()

    def set_hop_stretch(self, name: str, stretch: float) -> None:
        """Throttle (or restore) a subject's emission cadence.

        Applies :meth:`StreamingMonitor.set_hop_stretch` and remembers the
        factor so a monitor rebuilt after a crash comes back with the same
        throttle still in force.
        """
        subject = self._subject(name)
        subject.hop_stretch = float(stretch)
        subject.monitor.set_hop_stretch(subject.hop_stretch)

    def set_min_fallback_level(
        self, name: str, level: int, *, reason: str = "overload"
    ) -> None:
        """Pin a subject's estimator ladder at (or release it to) a floor.

        Raising the floor above the subject's current rung walks the
        ladder down immediately (recorded as ``fallback-escalated``
        events); recovery cross-checks then climb back only as far as the
        floor.  Lowering the floor releases the pin and lets the normal
        recovery path climb the rest of the way.
        """
        if not 0 <= level < len(self._ladder):
            raise ConfigurationError(
                f"fallback level must be in [0, {len(self._ladder) - 1}], "
                f"got {level}"
            )
        subject = self._subject(name)
        subject.min_fallback_level = int(level)
        while subject.fallback_level < subject.min_fallback_level:
            subject.fallback_level += 1
            subject.consecutive_gated = 0
            self._obs.count(
                "supervisor_fallback_escalations_total",
                labels={"subject": subject.name},
                help_text="Steps down the estimator fallback ladder.",
            )
            self._set_fallback_gauge(subject)
            self.events.record(
                self.clock.now_s,
                subject.name,
                "fallback-escalated",
                to_method=self._ladder[subject.fallback_level],
                level=subject.fallback_level,
                reason=reason,
            )
        self._update_health(subject)

    def _inject_crash(self, subject: _Subject, cause: str) -> None:
        self.events.record(
            self.clock.now_s,
            subject.name,
            "monitor-crash",
            error="InjectedMonitorCrash",
            message=cause,
        )
        self._restart_monitor(
            subject, cause=RuntimeError(f"injected monitor crash: {cause}")
        )
        self._update_health(subject)

    def _subject(self, name: str) -> _Subject:
        try:
            return self._subjects[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown subject {name!r}; registered: "
                f"{sorted(self._subjects)}"
            ) from None

    def health_summary(self) -> dict[str, dict[str, Any]]:
        """Per-subject health snapshot for reporting.

        Returns:
            For each subject: ``health``, active estimator ``method``,
            ``fallback_level``, ``monitor_restarts``, ``breaker`` state,
            source ``counters``, and ``n_estimates``.
        """
        summary: dict[str, dict[str, Any]] = {}
        for name, s in self._subjects.items():
            summary[name] = {
                "health": s.health.value,
                "method": self._ladder[s.fallback_level],
                "fallback_level": s.fallback_level,
                "monitor_restarts": s.monitor_restarts,
                "breaker": s.source.breaker.state.value,
                "source_counters": dict(s.source.counters),
                "monitor_counters": dict(s.monitor.counters),
                "n_estimates": len(s.estimates),
            }
        return summary

    # ------------------------------------------------------------------
    # One scheduling tick for one subject.

    def _tick(self, subject: _Subject) -> None:
        while (
            subject.pending_crashes_s
            and self.clock.now_s >= subject.pending_crashes_s[0]
            and not subject.done
        ):
            at_s = subject.pending_crashes_s.pop(0)
            self._inject_crash(subject, cause=f"scheduled at {at_s:g}s")
        if subject.done:
            return
        t_before = self.clock.now_s
        packet = None
        try:
            packet = subject.source.next_packet()
        except CircuitOpenError:
            # Short-circuited: no read happened.  Time still has to pass,
            # or the cooldown would never elapse (handled below).
            pass
        except (SourceTimeoutError, SourceUnavailableError) as exc:
            self.events.record(
                self.clock.now_s,
                subject.name,
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
            # timestamp may lag the clock when another subject already
            # advanced it.
            self.clock.advance(subject.interval_s)

        if packet is None:
            self._check_watchdog(subject)
            self._update_health(subject)
            return

        subject.last_progress_s = self.clock.now_s
        estimate = self._feed_monitor(subject, packet.csi, packet.timestamp_s)
        self._maybe_checkpoint(subject)
        if estimate is not None:
            self._handle_estimate(subject, estimate)
        self._update_health(subject)

    def _check_watchdog(self, subject: _Subject) -> None:
        silence_s = self.clock.now_s - subject.last_progress_s
        if silence_s <= self.config.watchdog_timeout_s:
            return
        if subject.source.exhausted:
            return  # end of data, not a stall
        if subject.source.breaker.state is not BreakerState.CLOSED:
            # Silence has a known cause (open/probing breaker); restarting
            # the source would not help, and the stall alarm would be noise.
            subject.last_progress_s = self.clock.now_s
            return
        self.events.record(
            self.clock.now_s,
            subject.name,
            "stall-detected",
            silence_s=silence_s,
        )
        self._obs.count(
            "supervisor_stalls_detected_total",
            labels={"subject": subject.name},
            help_text="Silent stalls caught by the watchdog.",
        )
        subject.source.force_restart()
        subject.last_progress_s = self.clock.now_s

    def _feed_monitor(
        self, subject: _Subject, csi: Any, timestamp_s: float
    ) -> StreamingEstimate | None:
        try:
            return subject.monitor.push_packet(csi, timestamp_s)
        except ReproError as exc:
            self.events.record(
                self.clock.now_s,
                subject.name,
                "monitor-crash",
                error=type(exc).__name__,
                message=str(exc),
            )
            self._restart_monitor(subject, cause=exc)
            return None

    def _restart_monitor(self, subject: _Subject, cause: Exception) -> None:
        subject.monitor_restarts += 1
        self._obs.count(
            "supervisor_monitor_restarts_total",
            labels={"subject": subject.name},
            help_text="Monitor rebuilds after a crash.",
        )
        if subject.monitor_restarts > self.config.max_monitor_restarts:
            subject.failed = True
            self.events.record(
                self.clock.now_s,
                subject.name,
                "subject-failed",
                monitor_restarts=subject.monitor_restarts,
            )
            self._obs.count(
                "supervisor_subject_failures_total",
                labels={"subject": subject.name},
                help_text="Subjects escalated to FAILED (restart budget "
                "exhausted).",
            )
            return
        monitor = StreamingMonitor(
            subject.monitor.sample_rate_hz,
            self.streaming_config,
            self.pipeline_config,
            instrumentation=self._obs,
        )
        restored = False
        if subject.last_checkpoint is not None:
            try:
                monitor.restore(subject.last_checkpoint)
                restored = True
            except CheckpointError as exc:
                # A corrupt checkpoint must not stop the restart; the
                # monitor simply comes back cold (empty window).
                self.events.record(
                    self.clock.now_s,
                    subject.name,
                    "checkpoint-restore-failed",
                    error=str(exc),
                )
        if subject.hop_stretch != 1.0:  # phaselint: disable=PL004 -- exact 'no stretch' sentinel
            monitor.set_hop_stretch(subject.hop_stretch)
        subject.monitor = monitor
        self.events.record(
            self.clock.now_s,
            subject.name,
            "monitor-restart",
            restored=restored,
            restarts=subject.monitor_restarts,
            cause=type(cause).__name__,
        )

    def _maybe_checkpoint(self, subject: _Subject) -> None:
        if (
            self.clock.now_s - subject.last_checkpoint_s
            < self.config.checkpoint_interval_s
        ):
            return
        subject.last_checkpoint = subject.monitor.checkpoint()
        subject.last_checkpoint_s = self.clock.now_s
        n_buffered = len(subject.last_checkpoint["buffer"])
        self.events.record(
            self.clock.now_s,
            subject.name,
            "checkpoint",
            n_buffered=n_buffered,
        )
        self._obs.count(
            "supervisor_checkpoints_total",
            labels={"subject": subject.name},
            help_text="Periodic monitor checkpoints taken.",
        )
        self._obs.observe(
            "supervisor_checkpoint_size_packets",
            n_buffered,
            labels={"subject": subject.name},
            help_text="Buffered packets per checkpoint.",
            bucket_bounds=DEFAULT_SIZE_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Estimator fallback ladder.

    def _fallback_estimate(self, subject: _Subject) -> float | None:
        """Run the subject's current fallback estimator on its window."""
        if subject.fallback_level == 0:
            return None
        trace = subject.monitor.window_trace()
        if trace is None:
            return None
        estimator = self._rung_estimators[self._ladder[subject.fallback_level]]
        try:
            return float(estimator.estimate_breathing_bpm(trace))
        except ReproError:
            # A rung that cannot serve this window (contract violation,
            # degraded input, …) yields to the held-over primary estimate
            # rather than poisoning the emission stream.
            return None

    def _handle_estimate(
        self, subject: _Subject, estimate: StreamingEstimate
    ) -> None:
        gated = estimate.rejected_reason in ("data-gap", "degraded-input")
        if estimate.fresh:
            subject.consecutive_gated = 0
            self._handle_fresh(subject, estimate)
        else:
            subject.consecutive_fresh = 0
            if gated:
                subject.consecutive_gated += 1
                self._maybe_escalate(subject, estimate.rejected_reason)
            self._handle_rejected(subject, estimate)

    def _handle_fresh(
        self, subject: _Subject, estimate: StreamingEstimate
    ) -> None:
        assert estimate.result is not None
        primary_bpm = float(estimate.result.breathing_rates_bpm[0])
        if subject.fallback_level == 0:
            self._emit(
                subject,
                estimate,
                rate_bpm=primary_bpm,
                method=self._ladder[0],
                fresh=True,
            )
            return
        if subject.fallback_level <= subject.min_fallback_level:
            # Pinned at the overload floor: keep emitting the fallback
            # value without attempting recovery — the pin exists because
            # the fleet layer wants this session cheap, not because the
            # primary path is distrusted.
            alt_bpm = self._fallback_estimate(subject)
            self._emit(
                subject,
                estimate,
                rate_bpm=alt_bpm if alt_bpm is not None else primary_bpm,
                method=(
                    self._ladder[subject.fallback_level]
                    if alt_bpm is not None
                    else self._ladder[0]
                ),
                fresh=True,
            )
            return
        # In fallback: cross-check the recovered primary path against the
        # currently trusted estimator before switching back.
        alt_bpm = self._fallback_estimate(subject)
        recovered = False
        reason = ""
        if alt_bpm is not None and abs(alt_bpm - primary_bpm) <= RECOVERY_TOLERANCE_BPM:
            recovered = True
            reason = "cross-check-agreed"
        else:
            subject.consecutive_fresh += 1
            if subject.consecutive_fresh >= RECOVERY_FRESH_WINDOWS:
                recovered = True
                reason = (
                    "fallback-unavailable"
                    if alt_bpm is None
                    else "primary-sustained"
                )
        if recovered:
            from_level = subject.fallback_level
            # Recovery climbs back to the pinned floor, never above it.
            subject.fallback_level = subject.min_fallback_level
            subject.consecutive_fresh = 0
            self._obs.count(
                "supervisor_fallback_recoveries_total",
                labels={"subject": subject.name},
                help_text="Returns to the primary estimator.",
            )
            self._set_fallback_gauge(subject)
            self.events.record(
                self.clock.now_s,
                subject.name,
                "fallback-recovered",
                from_method=self._ladder[from_level],
                reason=reason,
                primary_bpm=primary_bpm,
                fallback_bpm=alt_bpm,
            )
            if subject.fallback_level == 0:
                self._emit(
                    subject,
                    estimate,
                    rate_bpm=primary_bpm,
                    method=self._ladder[0],
                    fresh=True,
                )
            else:
                pinned_bpm = self._fallback_estimate(subject)
                self._emit(
                    subject,
                    estimate,
                    rate_bpm=(
                        pinned_bpm if pinned_bpm is not None else primary_bpm
                    ),
                    method=(
                        self._ladder[subject.fallback_level]
                        if pinned_bpm is not None
                        else self._ladder[0]
                    ),
                    fresh=True,
                )
        else:
            # Still in fallback: trust the fallback estimator's value when
            # it has one, else report the (unconfirmed) primary value.
            rate = alt_bpm if alt_bpm is not None else primary_bpm
            method = (
                self._ladder[subject.fallback_level]
                if alt_bpm is not None
                else self._ladder[0]
            )
            self._emit(
                subject, estimate, rate_bpm=rate, method=method, fresh=True
            )

    def _maybe_escalate(
        self, subject: _Subject, reason: str | None
    ) -> None:
        if (
            subject.consecutive_gated < self.config.fallback_after_windows
            or subject.fallback_level >= len(self._ladder) - 1
        ):
            return
        subject.fallback_level += 1
        subject.consecutive_gated = 0
        self._obs.count(
            "supervisor_fallback_escalations_total",
            labels={"subject": subject.name},
            help_text="Steps down the estimator fallback ladder.",
        )
        self._set_fallback_gauge(subject)
        self.events.record(
            self.clock.now_s,
            subject.name,
            "fallback-escalated",
            to_method=self._ladder[subject.fallback_level],
            level=subject.fallback_level,
            reason=reason,
        )

    def _set_fallback_gauge(self, subject: _Subject) -> None:
        self._obs.gauge_set(
            "supervisor_fallback_level",
            subject.fallback_level,
            labels={"subject": subject.name},
            help_text="Current fallback-ladder rung (0 = primary).",
        )

    def _handle_rejected(
        self, subject: _Subject, estimate: StreamingEstimate
    ) -> None:
        alt_bpm = self._fallback_estimate(subject)
        if alt_bpm is not None:
            self._emit(
                subject,
                estimate,
                rate_bpm=alt_bpm,
                method=self._ladder[subject.fallback_level],
                fresh=True,
            )
        elif estimate.result is not None:  # held-over primary estimate
            self._emit(
                subject,
                estimate,
                rate_bpm=float(estimate.result.breathing_rates_bpm[0]),
                method=self._ladder[0],
                fresh=False,
            )
        else:
            self._emit(
                subject,
                estimate,
                rate_bpm=float("nan"),
                method=None,
                fresh=False,
            )

    def _emit(
        self,
        subject: _Subject,
        estimate: StreamingEstimate,
        *,
        rate_bpm: float,
        method: str | None,
        fresh: bool,
    ) -> None:
        record = ServiceEstimate(
            subject=subject.name,
            time_s=estimate.time_s,
            rate_bpm=rate_bpm,
            method=method,
            fresh=fresh,
            held_over=estimate.held_over,
            rejected_reason=estimate.rejected_reason,
            fallback_level=subject.fallback_level,
            health=subject.health,
        )
        subject.last_estimate = record
        subject.estimates.append(record)

    # ------------------------------------------------------------------
    # Health.

    def _compute_health(self, subject: _Subject) -> SubjectHealth:
        if subject.failed:
            return SubjectHealth.FAILED
        if subject.fallback_level > 0:
            return SubjectHealth.DEGRADED
        if subject.source.breaker.state is not BreakerState.CLOSED:
            return SubjectHealth.DEGRADED
        last = subject.last_estimate
        if last is not None and (last.held_over or not last.ok):
            return SubjectHealth.DEGRADED
        return SubjectHealth.HEALTHY

    def _update_health(self, subject: _Subject) -> None:
        new = self._compute_health(subject)
        if new is subject.health:
            return
        self.events.record(
            self.clock.now_s,
            subject.name,
            "health-changed",
            previous=subject.health.value,
            health=new.value,
        )
        subject.health = new
        # 0 = healthy, 1 = degraded, 2 = failed.
        health_levels = {
            SubjectHealth.HEALTHY: 0,
            SubjectHealth.DEGRADED: 1,
            SubjectHealth.FAILED: 2,
        }
        self._obs.gauge_set(
            "supervisor_subject_health_level",
            health_levels[new],
            labels={"subject": subject.name},
            help_text="Coarse subject health (0 healthy, 1 degraded, "
            "2 failed).",
        )
