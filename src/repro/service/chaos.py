"""Scripted chaos harness: drive the service through declarative failures.

A :class:`ChaosScenario` is a named list of :class:`TimedFault` entries — a
JSON-serializable script of *when* each fault starts and how long it lasts.
:func:`run_chaos` builds a simulated scene, runs the supervised service
twice (once fault-free, once under the scenario), and condenses the outcome
into a :class:`ChaosReport` whose :meth:`~ChaosReport.violations` method
checks the recovery invariants the benchmark suite asserts:

* the subject ends the run healthy with a closed breaker;
* post-recovery fresh estimates exist and their median error stays within
  a tolerance of the fault-free run's median error;
* the event log contains the transitions the fault implies, in order.

Fault kinds ``crash`` / ``stall`` / ``hang`` / ``transient-errors`` map to
:class:`~repro.service.sources.SourceFault` injections at the source;
``degrade`` instead corrupts the underlying capture itself for a window
(via :class:`~repro.rf.impairments.SegmentImpairment` + Bernoulli loss),
which is what exercises the quality gates and the estimator fallback
ladder rather than the breaker.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

import numpy as np

from ..core.streaming import StreamingConfig
from ..errors import ConfigurationError
from ..eval.harness import default_subject
from ..io_.quality import assess_trace
from ..obs import Instrumentation, MetricsRegistry
from ..rf.impairments import BernoulliLoss, SegmentImpairment, apply_impairments
from ..rf.receiver import capture_trace
from ..rf.scene import laboratory_scenario
from .clock import SimulatedClock
from .events import EventLog
from .sources import FlakySourceAdapter, SourceFault, TracePacketSource
from .supervisor import (
    MonitorSupervisor,
    ServiceEstimate,
    SubjectHealth,
    SupervisorConfig,
)

__all__ = [
    "TimedFault",
    "ChaosScenario",
    "ChaosReport",
    "SHIPPED_SCENARIOS",
    "load_scenario",
    "flaky_source_factory",
    "run_chaos",
]

_TIMED_FAULT_KINDS = (
    "crash",
    "stall",
    "hang",
    "transient-errors",
    "degrade",
    "monitor-crash",
)


@dataclass(frozen=True)
class TimedFault:
    """One scripted fault in a chaos scenario.

    Attributes:
        kind: One of ``crash``, ``stall``, ``hang``, ``transient-errors``
            (source-side, see :class:`~repro.service.sources.SourceFault`),
            ``degrade`` (capture-side burst of packet loss), or
            ``monitor-crash`` (the monitor process itself dies and must be
            rebuilt from its latest checkpoint, scheduled via
            :meth:`MonitorSupervisor.schedule_monitor_crash`).
        at_s: Fault start, in simulated seconds.
        duration_s: Window length for windowed kinds.
        probability: Per-read error probability (``transient-errors``).
        hang_s: Blocked-read length (``hang``).
        loss_fraction: Packet-loss rate inside the window (``degrade``).
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    probability: float = 1.0
    hang_s: float = 0.0
    loss_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.kind not in _TIMED_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{_TIMED_FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if self.kind == "degrade":
            if self.duration_s <= 0:
                raise ConfigurationError("degrade fault needs duration_s > 0")
            if not 0.0 < self.loss_fraction < 1.0:
                raise ConfigurationError("loss_fraction must be in (0, 1)")
        # A source kind is checked by building its SourceFault now, so a
        # malformed schedule fails at load, not after the reference run.
        self.to_source_fault()

    @property
    def end_s(self) -> float:
        """When the fault's effect window closes."""
        if self.kind == "hang":
            return self.at_s + self.hang_s
        return self.at_s + self.duration_s

    def to_source_fault(self) -> SourceFault | None:
        """The source-side injection, or ``None`` for non-source kinds."""
        if self.kind in ("degrade", "monitor-crash"):
            return None
        return SourceFault(
            kind=self.kind,
            at_s=self.at_s,
            duration_s=self.duration_s,
            probability=self.probability,
            hang_s=self.hang_s,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimedFault":
        """Parse one fault entry; unknown keys are rejected."""
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown fault fields {sorted(unknown)}; allowed: "
                f"{sorted(allowed)}"
            )
        if "kind" not in data or "at_s" not in data:
            raise ConfigurationError("a fault needs at least 'kind' and 'at_s'")
        return cls(**data)


@dataclass(frozen=True)
class ChaosScenario:
    """A named, serializable schedule of timed faults.

    Attributes:
        name: Scenario identifier (used in reports and CLI).
        faults: The fault schedule.
        description: Human-readable intent of the scenario.
        use_learned_rung: Run the service with a learned estimator rung in
            the fallback ladder (a synthetic-corpus bundle is trained
            in-process from the run seed, so reports stay deterministic).
    """

    name: str
    faults: tuple[TimedFault, ...]
    description: str = ""
    use_learned_rung: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def last_fault_end_s(self) -> float:
        """When the last fault's effect window closes (0 with no faults)."""
        return max((f.end_s for f in self.faults), default=0.0)

    def source_faults(self) -> tuple[SourceFault, ...]:
        """The source-side injections (``degrade`` entries excluded)."""
        return tuple(
            sf
            for sf in (f.to_source_fault() for f in self.faults)
            if sf is not None
        )

    def degrade_faults(self) -> tuple[TimedFault, ...]:
        """The capture-side ``degrade`` entries."""
        return tuple(f for f in self.faults if f.kind == "degrade")

    def monitor_crash_times_s(self) -> tuple[float, ...]:
        """Scheduled ``monitor-crash`` times, sorted."""
        return tuple(
            sorted(f.at_s for f in self.faults if f.kind == "monitor-crash")
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (the scenario-file schema)."""
        return {
            "name": self.name,
            "description": self.description,
            "faults": [f.to_dict() for f in self.faults],
            "use_learned_rung": self.use_learned_rung,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosScenario":
        """Parse a scenario dict (the inverse of :meth:`to_dict`)."""
        if "name" not in data:
            raise ConfigurationError("scenario dict needs a 'name'")
        faults = data.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ConfigurationError("'faults' must be a list")
        return cls(
            name=str(data["name"]),
            faults=tuple(TimedFault.from_dict(f) for f in faults),
            description=str(data.get("description", "")),
            use_learned_rung=bool(data.get("use_learned_rung", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosScenario":
        """Parse a scenario from its JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must be an object")
        return cls.from_dict(data)

    def to_json(self) -> str:
        """Serialize to the scenario-file JSON schema."""
        return json.dumps(self.to_dict(), indent=2)


def load_scenario(path: str) -> ChaosScenario:
    """Load a scenario from a JSON file (the ``--chaos-scenario`` format)."""
    with open(path, encoding="utf-8") as fh:
        return ChaosScenario.from_json(fh.read())


# The shipped scenario library: one scenario per fault domain the service
# must survive.  Timings assume the default run_chaos geometry (90 s trace,
# 15 s windows): faults start after the monitor has warmed up and end with
# enough clean tail for post-recovery windows.
SHIPPED_SCENARIOS: dict[str, ChaosScenario] = {
    "source-crash": ChaosScenario(
        name="source-crash",
        description=(
            "The capture process dies mid-run; the resilient wrapper must "
            "rebuild it from the factory and resume live."
        ),
        faults=(TimedFault(kind="crash", at_s=30.0),),
    ),
    "sustained-stall": ChaosScenario(
        name="sustained-stall",
        description=(
            "The source goes silent for several watchdog periods while its "
            "backlog is lost; the watchdog must detect the stall and "
            "force-restart the source."
        ),
        faults=(TimedFault(kind="stall", at_s=30.0, duration_s=6.0),),
    ),
    "transient-errors": ChaosScenario(
        name="transient-errors",
        description=(
            "Every read fails transiently for a window; retries must be "
            "bounded, the breaker must open, and a half-open probe must "
            "close it once the window passes."
        ),
        faults=(
            TimedFault(
                kind="transient-errors", at_s=30.0, duration_s=6.0,
                probability=1.0,
            ),
        ),
    ),
    "checkpoint-restore-loss": ChaosScenario(
        name="checkpoint-restore-loss",
        description=(
            "The monitor process dies in the middle of a packet-loss "
            "burst; the supervisor must restore the incremental engine "
            "from its latest periodic checkpoint and ride out the rest of "
            "the burst on the restored state, recovering once it clears."
        ),
        faults=(
            TimedFault(
                kind="degrade", at_s=28.0, duration_s=16.0, loss_fraction=0.5
            ),
            TimedFault(kind="monitor-crash", at_s=38.0),
        ),
    ),
    "degradation-burst": ChaosScenario(
        name="degradation-burst",
        description=(
            "A burst of heavy packet loss degrades the capture itself; the "
            "quality gates must fire and the estimator fallback ladder must "
            "escalate, then recover after the burst."
        ),
        faults=(
            TimedFault(
                kind="degrade", at_s=28.0, duration_s=14.0, loss_fraction=0.6
            ),
        ),
    ),
    "learned-degradation-burst": ChaosScenario(
        name="learned-degradation-burst",
        description=(
            "The degradation burst again, but with a learned estimator "
            "rung in the ladder: escalation must land on the learned rung "
            "first, serve through the burst, and recover to the primary."
        ),
        faults=(
            TimedFault(
                kind="degrade", at_s=28.0, duration_s=14.0, loss_fraction=0.6
            ),
        ),
        use_learned_rung=True,
    ),
}


def flaky_source_factory(
    trace: Any,
    clock: SimulatedClock,
    faults: tuple[SourceFault, ...],
    *,
    seed: int = 0,
    nominal_interval_s: float = 0.01,
) -> Callable[[float], FlakySourceAdapter]:
    """A ``factory(start_at_s) -> PacketSource`` injecting scripted faults.

    The factory filters the schedule on every (re)build: a rebuilt source
    only carries faults whose effect lies at or beyond its start time, so a
    source rebuilt after a crash does not immediately re-crash on the same
    scripted fault.  Windowed faults still in progress are kept — restarting
    mid-stall does not un-stall the hardware.
    """

    def factory(start_at_s: float) -> FlakySourceAdapter:
        remaining = tuple(
            f
            for f in faults
            if (f.end_s > start_at_s)
            if not (f.kind in ("crash", "hang") and f.at_s <= start_at_s)
        )
        return FlakySourceAdapter(
            TracePacketSource(trace, clock, start_at_s=start_at_s),
            clock,
            faults=remaining,
            seed=seed,
            nominal_interval_s=nominal_interval_s,
        )

    return factory


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos run, with its fault-free reference.

    Attributes:
        scenario: The scenario that was run.
        truth_bpm: Ground-truth breathing rate of the simulated subject.
        estimates: Service emissions from the faulted run.
        events: Event log of the faulted run.
        health: Final :meth:`~MonitorSupervisor.health_summary` of the
            faulted run.
        fault_free_median_error_bpm: Median |error| of fresh fault-free
            estimates.
        post_recovery_median_error_bpm: Median |error| of fresh estimates
            after the recovery horizon (``nan`` when none exist).
        recovery_horizon_s: Time from which estimates count as
            post-recovery (last fault end + one analysis window).
        n_post_recovery: Number of fresh post-recovery estimates.
        trace_quality: One-line quality summary of the (possibly degraded)
            capture the faulted run consumed.
    """

    scenario: ChaosScenario
    truth_bpm: float
    estimates: list[ServiceEstimate] = field(repr=False)
    events: EventLog = field(repr=False)
    health: dict[str, Any]
    fault_free_median_error_bpm: float
    post_recovery_median_error_bpm: float
    recovery_horizon_s: float
    n_post_recovery: int
    trace_quality: str

    def violations(self, *, tolerance_bpm: float = 0.5) -> list[str]:
        """Recovery invariants violated by this run (empty = recovered).

        Args:
            tolerance_bpm: Allowed excess of the post-recovery median
                error over the fault-free median error.
        """
        found = []
        if self.n_post_recovery == 0:
            found.append("no-post-recovery-estimates")
        elif math.isnan(self.post_recovery_median_error_bpm) or (
            self.post_recovery_median_error_bpm
            > self.fault_free_median_error_bpm + tolerance_bpm
        ):
            found.append("post-recovery-error-above-budget")
        if self.health["health"] != SubjectHealth.HEALTHY.value:
            found.append("final-health-not-healthy")
        if self.health["breaker"] != "closed":
            found.append("breaker-not-closed")
        return found

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe summary (estimates collapsed to counts/medians)."""
        return {
            "scenario": self.scenario.to_dict(),
            "truth_bpm": self.truth_bpm,
            "n_estimates": len(self.estimates),
            "n_post_recovery": self.n_post_recovery,
            "fault_free_median_error_bpm": self.fault_free_median_error_bpm,
            "post_recovery_median_error_bpm": (
                self.post_recovery_median_error_bpm
            ),
            "recovery_horizon_s": self.recovery_horizon_s,
            "trace_quality": self.trace_quality,
            "health": self.health,
            "violations": self.violations(),
            "n_events": len(self.events),
        }


def _median_error(
    estimates: list[ServiceEstimate],
    truth_bpm: float,
    *,
    after_s: float = 0.0,
) -> tuple[float, int]:
    errors = [
        abs(e.rate_bpm - truth_bpm)
        for e in estimates
        if e.fresh and e.ok and e.time_s >= after_s
    ]
    if not errors:
        return float("nan"), 0
    return float(np.median(errors)), len(errors)


def _run_supervised(
    trace: Any,
    sample_rate_hz: float,
    *,
    source_faults: tuple[SourceFault, ...],
    streaming_config: StreamingConfig,
    supervisor_config: SupervisorConfig,
    seed: int,
    subject_name: str,
    registry: MetricsRegistry | None = None,
    monitor_crash_times_s: tuple[float, ...] = (),
    learned_bundle: Any | None = None,
) -> tuple[MonitorSupervisor, list[ServiceEstimate]]:
    clock = SimulatedClock(float(trace.timestamps_s[0]))
    instrumentation = (
        Instrumentation(clock=clock, registry=registry)
        if registry is not None
        else None
    )
    learned_estimator = None
    if learned_bundle is not None:
        # Each run gets its own estimator instance so its feature cache and
        # metrics stay confined to that run.
        from ..learn import LearnedEstimator

        learned_estimator = LearnedEstimator(
            learned_bundle, instrumentation=instrumentation
        )
    supervisor = MonitorSupervisor(
        clock=clock,
        config=supervisor_config,
        streaming_config=streaming_config,
        seed=seed,
        instrumentation=instrumentation,
        learned_estimator=learned_estimator,
    )
    interval_s = 1.0 / sample_rate_hz
    supervisor.add_subject(
        subject_name,
        flaky_source_factory(
            trace,
            clock,
            source_faults,
            seed=seed + 11,
            nominal_interval_s=interval_s,
        ),
        sample_rate_hz,
    )
    t0_s = float(trace.timestamps_s[0])
    for crash_at_s in monitor_crash_times_s:
        supervisor.schedule_monitor_crash(subject_name, t0_s + crash_at_s)
    duration_s = float(trace.timestamps_s[-1] - trace.timestamps_s[0])
    # Budgeted well past the trace so exhaustion, not the budget, normally
    # ends the run — the budget only bounds pathological stall loops.
    return supervisor, supervisor.run(max_duration_s=duration_s + 30.0)


def run_chaos(
    scenario: ChaosScenario,
    *,
    duration_s: float = 90.0,
    sample_rate_hz: float = 100.0,
    seed: int = 0,
    streaming_config: StreamingConfig | None = None,
    supervisor_config: SupervisorConfig | None = None,
    registry: MetricsRegistry | None = None,
) -> ChaosReport:
    """Run the supervised service through one chaos scenario.

    Builds a one-person laboratory scene, captures a clean trace, applies
    any ``degrade`` faults to the capture, runs the service once fault-free
    (clean trace, no source faults) and once under the scenario, and
    reports recovery statistics relative to the fault-free run.

    Args:
        scenario: The fault schedule to execute.
        duration_s: Simulated capture length.
        sample_rate_hz: Packet rate of the capture.
        seed: Master seed (scene, capture, impairments, service jitter).
        streaming_config: Monitor parameters; a chaos-friendly default
            (15 s window, 5 s hop, 30 s holdover) when omitted.
        supervisor_config: Supervision parameters; defaults when omitted.
        registry: Optional metrics registry the *faulted* run records into
            (timed on its simulated clock, so snapshots are deterministic).
            The fault-free reference run is never instrumented.

    Returns:
        The :class:`ChaosReport`.
    """
    if scenario.last_fault_end_s >= duration_s:
        raise ConfigurationError(
            f"scenario {scenario.name!r} ends at "
            f"{scenario.last_fault_end_s:.1f}s but the capture is only "
            f"{duration_s:.1f}s — no clean tail to recover in"
        )
    if streaming_config is None:
        streaming_config = StreamingConfig(
            window_s=15.0, hop_s=5.0, holdover_s=30.0
        )
    if supervisor_config is None:
        supervisor_config = SupervisorConfig()

    rng = np.random.default_rng(seed)
    person = default_subject(rng)
    scene = laboratory_scenario([person], clutter_seed=seed)
    trace = capture_trace(
        scene,
        duration_s=duration_s,
        sample_rate_hz=sample_rate_hz,
        seed=seed,
    )
    truth_bpm = float(trace.meta["breathing_rates_bpm"][0])

    degraded_trace = trace
    degrades = scenario.degrade_faults()
    if degrades:
        degraded_trace = apply_impairments(
            trace,
            [
                SegmentImpairment(
                    inner=BernoulliLoss(loss_fraction=f.loss_fraction),
                    start_s=f.at_s,
                    end_s=f.end_s,
                )
                for f in degrades
            ],
            seed=seed + 1,
        )

    learned_bundle = None
    if scenario.use_learned_rung:
        # One deterministic training pass shared by both runs; each run
        # then wraps the bundle in its own estimator instance.
        from ..learn import TrainingConfig, train

        learned_bundle = train(
            TrainingConfig(
                mode="synthetic", n_windows=96, seed=seed, with_mlp=False
            )
        )

    _, reference_estimates = _run_supervised(
        trace,
        sample_rate_hz,
        source_faults=(),
        streaming_config=streaming_config,
        supervisor_config=supervisor_config,
        seed=seed,
        subject_name="subject",
        learned_bundle=learned_bundle,
    )
    fault_free_median, _ = _median_error(reference_estimates, truth_bpm)

    faulted, estimates = _run_supervised(
        degraded_trace,
        sample_rate_hz,
        source_faults=scenario.source_faults(),
        streaming_config=streaming_config,
        supervisor_config=supervisor_config,
        seed=seed,
        subject_name="subject",
        registry=registry,
        monitor_crash_times_s=scenario.monitor_crash_times_s(),
        learned_bundle=learned_bundle,
    )
    health = faulted.health_summary()

    horizon_s = (
        float(trace.timestamps_s[0])
        + scenario.last_fault_end_s
        + streaming_config.window_s
    )
    post_median, n_post = _median_error(
        estimates, truth_bpm, after_s=horizon_s
    )
    return ChaosReport(
        scenario=scenario,
        truth_bpm=truth_bpm,
        estimates=estimates,
        events=faulted.events,
        health=health,
        fault_free_median_error_bpm=fault_free_median,
        post_recovery_median_error_bpm=post_median,
        recovery_horizon_s=horizon_s,
        n_post_recovery=n_post,
        trace_quality=assess_trace(degraded_trace).summary(),
    )
