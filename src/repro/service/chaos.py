"""Scripted chaos harness: drive the service through declarative failures.

A :class:`Scenario` is a named list of :class:`Fault` entries — a
JSON-serializable script of *when* each fault starts, how long it lasts
and whom it hits.  One schema covers every fault the service must
survive; two drivers run it:

* :func:`run_chaos` drives one :class:`MonitorSupervisor` through the
  single-subject kinds (:data:`SOLO_KINDS`).  ``crash`` / ``stall`` /
  ``hang`` / ``transient-errors`` are injected at the source by
  :class:`FlakySourceAdapter`; ``degrade`` instead corrupts the capture
  itself for a window (:class:`~repro.rf.impairments.SegmentImpairment` +
  Bernoulli loss), which exercises the quality gates and the estimator
  fallback ladder rather than the breaker; ``monitor-crash`` kills the
  monitor, which must come back from its latest checkpoint.  The run is
  repeated fault-free, and :meth:`ChaosReport.violations` checks the
  recovery contract: the subject ends healthy with a closed breaker, and
  the post-recovery median error stays within a tolerance of the
  fault-free run's.
* :func:`run_fleet_chaos` drives a
  :class:`~repro.service.fleet.gateway.FleetGateway` through the faults
  that only exist at fleet scale (:data:`FLEET_KINDS`):

  * ``shard-crash`` — a worker shard dies: every session on it loses its
    queued packets and its monitor, which must restart through the
    normal checkpoint-restore path;
  * ``ingest-burst`` — targeted sessions' upstreams deliver a backlog far
    faster than realtime, flooding their bounded queues;
  * ``slow-consumer`` — targeted sessions' drain budget collapses, so
    their queues back up while ingest continues;
  * ``correlated-source-loss`` — N sessions lose their upstream packets
    simultaneously (a shared capture appliance dying);
  * ``recorder-crash`` — the recording taps on N sessions die mid-write
    (optionally tearing the bytes they had in flight) and are restarted,
    resuming in a fresh segment while the torn one is left for salvage;
    each crashed tap records one ``recorder-crash`` event.

  :meth:`FleetChaosReport.violations` checks three invariants:

  1. **isolation** — every unfaulted session's estimate stream is
     byte-identical to a solo run of the same trace through a one-session
     gateway (identity fields excluded);
  2. **recovery** — every faulted session that was not shed produces a
     fresh estimate again by the recovery horizon (last fault end + one
     window + one hop, on the *fleet* clock — data time jumps when a
     burst delivers a backlog).  Two escape hatches keep the check
     honest: a session that drained its whole stream and finished
     cleanly while still emitting fresh estimates after the fault began
     was never wedged, and a trace whose fault-free solo run also yields
     nothing fresh in the interval (for example one the stationarity
     gate rejects throughout) cannot convict the fleet of failing to
     recover it;
  3. **bounded shedding** — the gateway never sheds more sessions than
     the configured ``max_shed_sessions`` budget.

  Session-targeted faults hit the *first* ``n_sessions`` admitted
  sessions — a deliberate, transparent choice: targeting is
  deterministic, faults in one scenario overlap predictably, and the
  unfaulted remainder is known without running anything.

Each driver rejects a kind it cannot run before it simulates anything.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.streaming import StreamingConfig
from ..errors import (
    ConfigurationError,
    SourceCrashedError,
    TransientSourceError,
)
from ..eval.harness import default_subject
from ..io_.quality import assess_trace
from ..io_.trace import CSITrace
from ..obs import Instrumentation, MetricsRegistry, canonical_json
from ..rf.impairments import BernoulliLoss, SegmentImpairment, apply_impairments
from ..rf.receiver import capture_trace
from ..rf.scene import laboratory_scenario
from ..store.backend import MemoryBackend
from ..store.tap import RecordingTap, store_digest
from .clock import SimulatedClock
from .events import EventLog
from .fleet.config import FleetConfig
from .fleet.gateway import FleetGateway, SessionStatus
from .sources import Packet, PacketSource, TracePacketSource
from .supervisor import (
    MonitorSupervisor,
    ServiceEstimate,
    SubjectHealth,
    SupervisorConfig,
)

__all__ = [
    "SOLO_KINDS",
    "FLEET_KINDS",
    "Fault",
    "Scenario",
    "SCENARIOS",
    "load_scenario",
    "FlakySourceAdapter",
    "flaky_source_factory",
    "ChaosReport",
    "run_chaos",
    "FleetChaosReport",
    "run_fleet_chaos",
    "estimates_jsonl",
    "anonymous_estimates_jsonl",
]

# The kinds run_chaos injects into one supervised subject.
SOLO_KINDS = (
    "crash",
    "stall",
    "hang",
    "transient-errors",
    "degrade",
    "monitor-crash",
)
# The kinds run_fleet_chaos injects into a gateway's sessions.
FLEET_KINDS = (
    "shard-crash",
    "ingest-burst",
    "slow-consumer",
    "correlated-source-loss",
    "recorder-crash",
)
# The kinds FlakySourceAdapter injects at the source.
_SOURCE_KINDS = ("crash", "stall", "hang", "transient-errors")
# The kinds whose effect lasts a window of duration_s > 0.
_WINDOWED_KINDS = (
    "stall",
    "transient-errors",
    "degrade",
    "ingest-burst",
    "slow-consumer",
    "correlated-source-loss",
)
_INT_FIELDS = ("shard", "n_sessions", "torn_tail_bytes")


@dataclass(frozen=True)
class Fault:
    """One scripted fault in a chaos scenario.

    Each kind reads only the fields it names below; the others keep their
    defaults.

    Attributes:
        kind: One of :data:`SOLO_KINDS` or :data:`FLEET_KINDS`.
        at_s: Fault start, in simulated seconds from the run start.
        duration_s: Effect-window length (``stall``, ``transient-errors``,
            ``degrade``, ``ingest-burst``, ``slow-consumer``,
            ``correlated-source-loss``).
        probability: Per-read error probability (``transient-errors``).
        hang_s: Blocked-read length (``hang``).
        loss_fraction: Packet-loss rate inside the window (``degrade``).
        shard: Target shard (``shard-crash``).
        n_sessions: How many sessions the fault targets, the first N in
            admission order (the session-targeted fleet kinds).
        ingest_factor: Ingest-budget multiplier (``ingest-burst``).
        drain_factor: Drain-budget multiplier in (0, 1]
            (``slow-consumer``).
        torn_tail_bytes: How many in-flight bytes the crash tears off the
            recorder's current segment (``recorder-crash``).
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    probability: float = 1.0
    hang_s: float = 0.0
    loss_fraction: float = 0.6
    shard: int = 0
    n_sessions: int = 0
    ingest_factor: float = 4.0
    drain_factor: float = 0.25
    torn_tail_bytes: int = 0

    def __post_init__(self) -> None:
        kinds = SOLO_KINDS + FLEET_KINDS
        if self.kind not in kinds:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {kinds}"
            )
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            whole = f.name in _INT_FIELDS
            if (
                isinstance(value, bool)
                or not isinstance(value, int if whole else (int, float))
                or not math.isfinite(value)
            ):
                expected = "an integer" if whole else "a finite number"
                raise ConfigurationError(
                    f"fault {f.name} must be {expected}, got {value!r}"
                )
        kind = self.kind
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if kind in _WINDOWED_KINDS and self.duration_s <= 0:
            raise ConfigurationError(f"{kind} fault needs duration_s > 0")
        if kind == "hang" and self.hang_s <= 0:
            raise ConfigurationError("hang fault needs hang_s > 0")
        if kind in _SOURCE_KINDS and not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")
        if kind == "degrade" and not 0.0 < self.loss_fraction < 1.0:
            raise ConfigurationError("loss_fraction must be in (0, 1)")
        if kind == "shard-crash" and self.shard < 0:
            raise ConfigurationError("shard must be >= 0")
        if kind in FLEET_KINDS and kind != "shard-crash" and self.n_sessions < 1:
            raise ConfigurationError(f"{kind} fault needs n_sessions >= 1")
        if kind == "ingest-burst" and self.ingest_factor < 1.0:
            raise ConfigurationError("ingest_factor must be >= 1")
        if kind == "slow-consumer" and not 0.0 < self.drain_factor <= 1.0:
            raise ConfigurationError("drain_factor must be in (0, 1]")
        if kind in FLEET_KINDS and self.torn_tail_bytes < 0:
            raise ConfigurationError("torn_tail_bytes must be >= 0")

    @property
    def end_s(self) -> float:
        """When the fault's effect window closes (a hang's when it returns)."""
        if self.kind == "hang":
            return self.at_s + self.hang_s
        return self.at_s + self.duration_s

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "Fault":
        """Parse one fault entry; unknown keys are rejected."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a fault entry must be a JSON object, got {data!r}"
            )
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
class Scenario:
    """A named, serializable schedule of faults.

    Attributes:
        name: Scenario identifier (used in reports and CLI).
        faults: The fault schedule.
        description: Human-readable intent of the scenario.
        use_learned_rung: Run the service with a learned estimator rung in
            the fallback ladder (a synthetic-corpus bundle is trained
            in-process from the run seed, so reports stay deterministic).
            Only :func:`run_chaos` has a learned rung.
    """

    name: str
    faults: tuple[Fault, ...]
    description: str = ""
    use_learned_rung: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if not isinstance(self.use_learned_rung, bool):
            raise ConfigurationError(
                "use_learned_rung must be true or false, got "
                f"{self.use_learned_rung!r}"
            )
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def last_fault_end_s(self) -> float:
        """When the last fault's effect window closes (0 with no faults)."""
        return max((f.end_s for f in self.faults), default=0.0)

    @property
    def is_fleet(self) -> bool:
        """Whether the schedule needs :func:`run_fleet_chaos`."""
        return any(f.kind in FLEET_KINDS for f in self.faults)

    def max_targeted_sessions(self) -> int:
        """The largest ``n_sessions`` any session-targeted fault needs."""
        return max(
            (f.n_sessions for f in self.faults if f.kind != "shard-crash"),
            default=0,
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
    def from_dict(cls, data: Any) -> "Scenario":
        """Parse a scenario dict (the inverse of :meth:`to_dict`).

        Unknown keys are rejected, so a misspelt flag cannot silently
        fall back to its default.
        """
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must be an object")
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown scenario fields {sorted(unknown)}; allowed: "
                f"{sorted(allowed)}"
            )
        if "name" not in data:
            raise ConfigurationError("scenario dict needs a 'name'")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigurationError("'faults' must be a list")
        return cls(
            name=str(data["name"]),
            faults=tuple(Fault.from_dict(f) for f in faults),
            description=str(data.get("description", "")),
            use_learned_rung=data.get("use_learned_rung", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from its JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def to_json(self) -> str:
        """Serialize to the scenario-file JSON schema."""
        return json.dumps(self.to_dict(), indent=2)


# The shipped scenario library: one scenario per fault domain the service
# must survive.  Solo timings assume the default run_chaos geometry (90 s
# trace, 15 s windows); fleet timings assume the default run_fleet_chaos
# geometry (24 s traces, 8 s windows / 4 s hop, 0.5 s rounds).  Faults
# start after warm-up and leave a clean tail to recover in.
SCENARIOS: dict[str, Scenario] = {
    "source-crash": Scenario(
        name="source-crash",
        description=(
            "The capture process dies mid-run; the resilient wrapper must "
            "rebuild it from the factory and resume live."
        ),
        faults=(Fault(kind="crash", at_s=30.0),),
    ),
    "sustained-stall": Scenario(
        name="sustained-stall",
        description=(
            "The source goes silent for several watchdog periods while its "
            "backlog is lost; the watchdog must detect the stall and "
            "force-restart the source."
        ),
        faults=(Fault(kind="stall", at_s=30.0, duration_s=6.0),),
    ),
    "transient-errors": Scenario(
        name="transient-errors",
        description=(
            "Every read fails transiently for a window; retries must be "
            "bounded, the breaker must open, and a half-open probe must "
            "close it once the window passes."
        ),
        faults=(
            Fault(
                kind="transient-errors", at_s=30.0, duration_s=6.0,
                probability=1.0,
            ),
        ),
    ),
    "checkpoint-restore-loss": Scenario(
        name="checkpoint-restore-loss",
        description=(
            "The monitor process dies in the middle of a packet-loss "
            "burst; the supervisor must restore the incremental engine "
            "from its latest periodic checkpoint and ride out the rest of "
            "the burst on the restored state, recovering once it clears."
        ),
        faults=(
            Fault(
                kind="degrade", at_s=28.0, duration_s=16.0, loss_fraction=0.5
            ),
            Fault(kind="monitor-crash", at_s=38.0),
        ),
    ),
    "degradation-burst": Scenario(
        name="degradation-burst",
        description=(
            "A burst of heavy packet loss degrades the capture itself; the "
            "quality gates must fire and the estimator fallback ladder must "
            "escalate, then recover after the burst."
        ),
        faults=(
            Fault(
                kind="degrade", at_s=28.0, duration_s=14.0, loss_fraction=0.6
            ),
        ),
    ),
    "learned-degradation-burst": Scenario(
        name="learned-degradation-burst",
        description=(
            "The degradation burst again, but with a learned estimator "
            "rung in the ladder: escalation must land on the learned rung "
            "first, serve through the burst, and recover to the primary."
        ),
        faults=(
            Fault(
                kind="degrade", at_s=28.0, duration_s=14.0, loss_fraction=0.6
            ),
        ),
        use_learned_rung=True,
    ),
    "shard-crash": Scenario(
        name="shard-crash",
        description=(
            "One worker shard dies, losing its sessions' queues and "
            "monitors; every affected monitor must restart (from its "
            "latest checkpoint when one exists) while the other shards' "
            "sessions are untouched byte for byte."
        ),
        faults=(Fault(kind="shard-crash", at_s=8.0, shard=0),),
    ),
    "ingest-burst": Scenario(
        name="ingest-burst",
        description=(
            "A few sessions' upstreams deliver a backlog at 4x the ingest "
            "budget regardless of capture time; bounded queues must "
            "absorb, watermark throttling must engage, and neighbours "
            "must not notice."
        ),
        faults=(
            Fault(
                kind="ingest-burst",
                at_s=4.0,
                duration_s=6.0,
                n_sessions=4,
                ingest_factor=4.0,
            ),
        ),
    ),
    "slow-consumer": Scenario(
        name="slow-consumer",
        description=(
            "A few sessions' workers collapse to a trickle of the drain "
            "budget for most of the capture; their queues back up past "
            "the high watermark (but inside capacity, so nothing drops), "
            "the pressure ladder throttles them, and the backlog drains "
            "cleanly once the workers recover."
        ),
        faults=(
            Fault(
                kind="slow-consumer",
                at_s=2.0,
                duration_s=7.0,
                n_sessions=4,
                drain_factor=0.15,
            ),
        ),
    ),
    "correlated-source-loss": Scenario(
        name="correlated-source-loss",
        description=(
            "A shared capture appliance dies: several sessions lose their "
            "upstream packets for a window and must ride the gap out "
            "(holdover, quality gates) and recover once packets return."
        ),
        faults=(
            Fault(
                kind="correlated-source-loss",
                at_s=6.0,
                duration_s=4.0,
                n_sessions=5,
            ),
        ),
    ),
    "record-crash-resume": Scenario(
        name="record-crash-resume",
        description=(
            "The recording taps on a few sessions die mid-write, tearing "
            "the bytes they had in flight, and are restarted twice over; "
            "each restart resumes in a fresh segment, the torn segments "
            "salvage down to the last intact record, and the consumers "
            "behind the taps never notice."
        ),
        faults=(
            Fault(
                kind="recorder-crash",
                at_s=5.0,
                n_sessions=3,
                torn_tail_bytes=96,
            ),
            Fault(
                kind="recorder-crash",
                at_s=9.0,
                n_sessions=2,
                torn_tail_bytes=17,
            ),
        ),
    ),
    "overload-shed": Scenario(
        name="overload-shed",
        description=(
            "Sustained burst and a starved consumer on the same sessions "
            "drive them through the whole pressure ladder — throttle, "
            "degrade, shed — while the shed budget caps the damage."
        ),
        faults=(
            Fault(
                kind="ingest-burst",
                at_s=4.0,
                duration_s=7.0,
                n_sessions=6,
                ingest_factor=8.0,
            ),
            Fault(
                kind="slow-consumer",
                at_s=4.0,
                duration_s=7.0,
                n_sessions=6,
                drain_factor=0.1,
            ),
        ),
    ),
}


def load_scenario(name_or_path: str) -> Scenario:
    """A shipped scenario by name, else a scenario JSON file by path.

    Raises:
        ConfigurationError: Neither a shipped name nor a readable file,
            or a file that is not a valid scenario.
    """
    if name_or_path in SCENARIOS:
        return SCENARIOS[name_or_path]
    try:
        text = Path(name_or_path).read_text(encoding="utf-8")
    except OSError as exc:
        names = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"{name_or_path!r} is neither a shipped scenario ({names}) nor "
            "a readable JSON file"
        ) from exc
    return Scenario.from_json(text)


class FlakySourceAdapter:
    """Inject scripted, seeded faults into any packet source.

    Faults are evaluated against the shared simulated clock: a ``crash``
    is permanent from ``at_s`` on; a ``stall`` silently loses the inner
    source's packets for its window while polls return ``None``; a ``hang``
    makes exactly one read consume ``hang_s`` of simulated time before
    delivering; ``transient-errors`` raise with a seeded coin flip while
    the window lasts.  Faults of any other kind are ignored.

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
        faults: tuple[Fault, ...] | list[Fault] = (),
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


def flaky_source_factory(
    trace: CSITrace,
    clock: SimulatedClock,
    faults: tuple[Fault, ...],
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


def _require_kinds(
    scenario: Scenario, kinds: tuple[str, ...], driver: str
) -> None:
    """Reject a schedule naming a kind ``driver`` cannot run."""
    foreign = sorted({f.kind for f in scenario.faults} - set(kinds))
    if foreign:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has fault kinds {foreign} that "
            f"{driver} cannot run; it runs {kinds}"
        )


def _capture(seed: int, duration_s: float, sample_rate_hz: float) -> CSITrace:
    """One single-person laboratory capture, all of it drawn from ``seed``."""
    person = default_subject(np.random.default_rng(seed))
    scene = laboratory_scenario([person], clutter_seed=seed)
    return capture_trace(
        scene, duration_s=duration_s, sample_rate_hz=sample_rate_hz, seed=seed
    )


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one :func:`run_chaos` run, with its fault-free reference.

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
        metrics_json: Canonical JSON metrics snapshot of the faulted run,
            when a registry was supplied (``None`` otherwise).
    """

    scenario: Scenario
    truth_bpm: float
    estimates: list[ServiceEstimate] = field(repr=False)
    events: EventLog = field(repr=False)
    health: dict[str, Any]
    fault_free_median_error_bpm: float
    post_recovery_median_error_bpm: float
    recovery_horizon_s: float
    n_post_recovery: int
    trace_quality: str
    metrics_json: str | None = field(repr=False)

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

    def artifacts(self) -> dict[str, str]:
        """The run's byte-reproducible artifacts: file name -> text.

        The event log, the estimate stream, the final health summary and
        the metrics snapshot (empty without a registry).
        """
        return {
            "events.jsonl": self.events.to_jsonl(),
            "estimates.jsonl": estimates_jsonl(self.estimates),
            "health.json": json.dumps(self.health, sort_keys=True),
            "metrics.json": self.metrics_json or "",
        }


def estimates_jsonl(estimates: list[ServiceEstimate]) -> str:
    """Canonical JSONL encoding of a service-estimate stream."""
    return "\n".join(
        json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
        for e in estimates
    )


def _metrics_json(registry: MetricsRegistry | None) -> str | None:
    """Canonical JSON snapshot of ``registry`` (``None`` without one)."""
    return canonical_json(registry.snapshot()) if registry is not None else None


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
    trace: CSITrace,
    sample_rate_hz: float,
    *,
    faults: tuple[Fault, ...],
    streaming_config: StreamingConfig,
    supervisor_config: SupervisorConfig,
    seed: int,
    learned_bundle: Any | None,
    registry: MetricsRegistry | None = None,
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
        "subject",
        flaky_source_factory(
            trace,
            clock,
            faults,
            seed=seed + 11,
            nominal_interval_s=interval_s,
        ),
        sample_rate_hz,
    )
    t0_s = float(trace.timestamps_s[0])
    for crash_at_s in sorted(
        f.at_s for f in faults if f.kind == "monitor-crash"
    ):
        supervisor.schedule_monitor_crash("subject", t0_s + crash_at_s)
    duration_s = float(trace.timestamps_s[-1] - trace.timestamps_s[0])
    # Budgeted well past the trace so exhaustion, not the budget, normally
    # ends the run — the budget only bounds pathological stall loops.
    return supervisor, supervisor.run(max_duration_s=duration_s + 30.0)


def run_chaos(
    scenario: Scenario,
    *,
    duration_s: float = 90.0,
    sample_rate_hz: float = 100.0,
    seed: int = 0,
    streaming_config: StreamingConfig | None = None,
    supervisor_config: SupervisorConfig | None = None,
    registry: MetricsRegistry | None = None,
) -> ChaosReport:
    """Run the supervised service through one single-subject scenario.

    Builds a one-person laboratory scene, captures a clean trace, applies
    any ``degrade`` faults to the capture, runs the service once fault-free
    (clean trace, no source faults) and once under the scenario, and
    reports recovery statistics relative to the fault-free run.

    Args:
        scenario: The fault schedule to execute; its kinds must all be
            in :data:`SOLO_KINDS`.
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
    _require_kinds(scenario, SOLO_KINDS, "run_chaos")
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

    trace = _capture(seed, duration_s, sample_rate_hz)
    truth_bpm = float(trace.meta["breathing_rates_bpm"][0])

    degraded_trace = trace
    degrades = [f for f in scenario.faults if f.kind == "degrade"]
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

    run = functools.partial(
        _run_supervised,
        sample_rate_hz=sample_rate_hz,
        streaming_config=streaming_config,
        supervisor_config=supervisor_config,
        seed=seed,
        learned_bundle=learned_bundle,
    )
    _, reference_estimates = run(trace, faults=())
    fault_free_median, _ = _median_error(reference_estimates, truth_bpm)

    faulted, estimates = run(
        degraded_trace, faults=scenario.faults, registry=registry
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
        metrics_json=_metrics_json(registry),
    )


@dataclass(frozen=True)
class FleetChaosReport:
    """Outcome of one :func:`run_fleet_chaos` run.

    Attributes:
        scenario: The scenario that was run.
        n_sessions: Fleet size.
        faulted_ids: Sessions the scenario targeted (for a shard crash,
            the sessions on the crashed shard at admission).
        shed_ids: Sessions the overload policy shed.
        interference_ids: Unfaulted sessions whose estimate stream
            differed from their solo baseline (must be empty).
        unrecovered_ids: Faulted, non-shed sessions with no fresh
            estimate past the recovery horizon (must be empty).
        max_shed_sessions: The policy budget in force.
        recovery_horizon_s: Time from which estimates count as recovered.
        fleet_summary: The gateway's final roll-up.
        events: The shared fleet event log.
        metrics_json: Canonical JSON metrics snapshot, when a registry
            was supplied (``None`` otherwise).
        n_estimates_total: Estimates emitted across the whole fleet.
        recordings: Per-session store digests (segment SHA-256s plus the
            salvage outcome) for sessions the scenario recorded through a
            tap; empty when no ``recorder-crash`` fault was scheduled.
    """

    scenario: Scenario
    n_sessions: int
    faulted_ids: tuple[str, ...]
    shed_ids: tuple[str, ...]
    interference_ids: tuple[str, ...]
    unrecovered_ids: tuple[str, ...]
    max_shed_sessions: int
    recovery_horizon_s: float
    fleet_summary: dict[str, Any]
    events: EventLog = field(repr=False)
    metrics_json: str | None = field(repr=False)
    n_estimates_total: int = 0
    recordings: dict[str, Any] = field(default_factory=dict)

    def violations(self) -> list[str]:
        """Fleet invariants violated by this run (empty = all held)."""
        found = []
        for sid in self.interference_ids:
            found.append(f"cross-session-interference:{sid}")
        for sid in self.unrecovered_ids:
            found.append(f"faulted-session-not-recovered:{sid}")
        if len(self.shed_ids) > self.max_shed_sessions:
            found.append("shed-over-budget")
        return found

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe summary (streams collapsed to counts and ids)."""
        return {
            "scenario": self.scenario.to_dict(),
            "n_sessions": self.n_sessions,
            "faulted_ids": list(self.faulted_ids),
            "shed_ids": list(self.shed_ids),
            "interference_ids": list(self.interference_ids),
            "unrecovered_ids": list(self.unrecovered_ids),
            "max_shed_sessions": self.max_shed_sessions,
            "recovery_horizon_s": self.recovery_horizon_s,
            "fleet_summary": self.fleet_summary,
            "violations": self.violations(),
            "n_estimates_total": self.n_estimates_total,
            "n_events": len(self.events),
            "recordings": self.recordings,
        }

    def artifacts(self) -> dict[str, str]:
        """The run's byte-reproducible artifacts: file name -> text.

        The fleet event log, the metrics snapshot (empty without a
        registry) and the summary report.
        """
        return {
            "events.jsonl": self.events.to_jsonl(),
            "metrics.json": self.metrics_json or "",
            "report.json": json.dumps(self.to_jsonable(), sort_keys=True),
        }


def anonymous_estimates_jsonl(estimates: list[ServiceEstimate]) -> str:
    """:func:`estimates_jsonl` with every ``subject`` blanked.

    The ``subject`` field is the session's *name*, not part of the
    estimate; blanking it lets a solo baseline (run under its own id)
    byte-compare against any fleet session consuming the same trace.
    """
    return estimates_jsonl([replace(e, subject="") for e in estimates])


def _trace_factory(trace: CSITrace) -> Callable[[SimulatedClock], PacketSource]:
    """An ``upstream_factory(clock)`` replaying one trace."""

    def factory(clock: SimulatedClock) -> TracePacketSource:
        return TracePacketSource(trace, clock)

    return factory


class _FleetRecorders:
    """In-memory recording taps at the fleet front door.

    One :class:`~repro.store.tap.RecordingTap` per targeted session,
    recording into a per-session :class:`~repro.store.backend.MemoryBackend`.
    The gateway calls a session's upstream factory once, at admission, so
    each session keeps one tap for its whole run; a ``recorder-crash``
    fault crashes that tap and resumes it in place
    (:meth:`~repro.store.tap.RecordingTap.crash_and_resume`), and the
    recording continues in the same store's next segment.
    """

    def __init__(self, session_ids: list[str], sample_rate_hz: float):
        self._sample_rate_hz = float(sample_rate_hz)
        self._backends = {sid: MemoryBackend() for sid in session_ids}
        self._taps: dict[str, RecordingTap] = {}

    @property
    def session_ids(self) -> set[str]:
        return set(self._backends)

    def wrap(
        self, sid: str, factory: Callable[[SimulatedClock], PacketSource]
    ) -> Callable[[SimulatedClock], PacketSource]:
        """Wrap an upstream factory so its source records through a tap."""

        def wrapped(clock: SimulatedClock) -> PacketSource:
            tap = RecordingTap(
                factory(clock),
                self._backends[sid],
                sid,
                sample_rate_hz=self._sample_rate_hz,
                session_id=sid,
                flush_every_records=32,
            )
            self._taps[sid] = tap
            return tap

        return wrapped

    def crash_and_resume(
        self, targets: tuple[str, ...], torn_tail_bytes: int
    ) -> list[str]:
        """Fire one recorder-crash fault at every targeted tap.

        Returns:
            The ids of the sessions whose tap crashed, in target order.
        """
        crashed = []
        for sid in targets:
            tap = self._taps.get(sid)
            if tap is not None:
                tap.crash_and_resume(torn_tail_bytes=torn_tail_bytes)
                crashed.append(sid)
        return crashed

    def finalize(self) -> dict[str, Any]:
        """Close every tap and digest every store, by session id."""
        for sid in sorted(self._taps):
            self._taps[sid].close()
        return {
            sid: store_digest(backend, sid)
            for sid, backend in sorted(self._backends.items())
        }


def _build_gateway(
    traces: list[CSITrace],
    session_ids: list[str],
    sample_rate_hz: float,
    *,
    fleet_config: FleetConfig,
    streaming_config: StreamingConfig,
    supervisor_config: SupervisorConfig,
    seed: int,
    registry: MetricsRegistry | None,
    trace_of: dict[str, int],
    priority_of: dict[str, int],
    recorders: _FleetRecorders | None = None,
) -> FleetGateway:
    clock = SimulatedClock(
        min(float(t.timestamps_s[0]) for t in traces)
    )
    instrumentation = (
        Instrumentation(clock=clock, registry=registry)
        if registry is not None
        else None
    )
    gateway = FleetGateway(
        clock=clock,
        config=fleet_config,
        supervisor_config=supervisor_config,
        streaming_config=streaming_config,
        seed=seed,
        instrumentation=instrumentation,
    )
    for sid in session_ids:
        factory = _trace_factory(traces[trace_of[sid]])
        if recorders is not None and sid in recorders.session_ids:
            factory = recorders.wrap(sid, factory)
        gateway.admit(
            sid,
            factory,
            sample_rate_hz,
            priority=priority_of[sid],
        )
    return gateway


def _fault_firer(
    scenario: Scenario,
    faulted_ids: tuple[str, ...],
    recorders: _FleetRecorders | None = None,
) -> Callable[[FleetGateway], None]:
    """An ``on_round`` hook firing scenario faults as their time arrives."""
    pending = sorted(scenario.faults, key=lambda f: f.at_s)
    cursor = {"next": 0}

    def on_round(gateway: FleetGateway) -> None:
        while (
            cursor["next"] < len(pending)
            and gateway.clock.now_s >= pending[cursor["next"]].at_s
        ):
            fault = pending[cursor["next"]]
            cursor["next"] += 1
            targets = tuple(faulted_ids[: fault.n_sessions])
            if fault.kind == "shard-crash":
                gateway.crash_shard(fault.shard)
            elif fault.kind == "ingest-burst":
                gateway.set_ingest_burst(
                    targets,
                    until_s=fault.end_s,
                    ingest_factor=fault.ingest_factor,
                )
            elif fault.kind == "slow-consumer":
                gateway.set_slow_consumer(
                    targets,
                    until_s=fault.end_s,
                    drain_factor=fault.drain_factor,
                )
            elif fault.kind == "recorder-crash":
                if recorders is not None:
                    for sid in recorders.crash_and_resume(
                        targets, fault.torn_tail_bytes
                    ):
                        gateway.events.record(
                            gateway.clock.now_s,
                            sid,
                            "recorder-crash",
                            torn_tail_bytes=fault.torn_tail_bytes,
                        )
            else:
                gateway.set_source_loss(targets, until_s=fault.end_s)

    return on_round


def run_fleet_chaos(
    scenario: Scenario,
    *,
    n_sessions: int = 20,
    duration_s: float = 24.0,
    sample_rate_hz: float = 50.0,
    seed: int = 0,
    trace_pool_size: int = 4,
    fleet_config: FleetConfig | None = None,
    streaming_config: StreamingConfig | None = None,
    supervisor_config: SupervisorConfig | None = None,
    registry: MetricsRegistry | None = None,
    check_isolation: bool = True,
) -> FleetChaosReport:
    """Run a seeded fleet through one fleet chaos scenario.

    Simulates a small pool of distinct captures, admits ``n_sessions``
    sessions over it (round-robin; priorities cycle 0/1/2 so the shed
    policy has an ordering to respect), runs the gateway under the
    scenario's fault schedule, then runs a one-session solo baseline per
    distinct trace and byte-compares every unfaulted session's estimate
    stream against it.

    Args:
        scenario: The fault schedule to execute; its kinds must all be in
            :data:`FLEET_KINDS`, and it cannot ask for a learned rung.
        n_sessions: Fleet size.
        duration_s: Simulated capture length per session.
        sample_rate_hz: Packet rate of each capture.
        seed: Master seed (scenes, captures, gateway).  Capture ``k`` of
            the pool is :func:`run_chaos`'s capture at seed
            ``seed + 137 * k``.
        trace_pool_size: Distinct captures shared round-robin across the
            fleet (simulation cost is per-trace, not per-session).
        fleet_config: Gateway parameters; defaults when omitted.
        streaming_config: Monitor parameters; a fleet-friendly default
            (8 s window, 4 s hop) when omitted.
        supervisor_config: Supervision parameters; a default with a 5 s
            checkpoint interval when omitted (so a shard crash lands on a
            restorable checkpoint).
        registry: Optional metrics registry for the *fleet* run (timed on
            the fleet clock, so snapshots are deterministic).
        check_isolation: Run the solo baselines and byte-compare; switch
            off only for pure capability benchmarks where the extra runs
            would dominate the measurement.

    Returns:
        The :class:`FleetChaosReport`.
    """
    _require_kinds(scenario, FLEET_KINDS, "run_fleet_chaos")
    if scenario.use_learned_rung:
        raise ConfigurationError(
            f"scenario {scenario.name!r} asks for a learned rung, which "
            "run_fleet_chaos does not run"
        )
    if n_sessions < 1:
        raise ConfigurationError("n_sessions must be >= 1")
    if fleet_config is None:
        fleet_config = FleetConfig()
    if streaming_config is None:
        streaming_config = StreamingConfig(
            window_s=8.0, hop_s=4.0, holdover_s=20.0
        )
    if supervisor_config is None:
        supervisor_config = SupervisorConfig(checkpoint_interval_s=5.0)
    horizon_margin_s = streaming_config.window_s + streaming_config.hop_s
    if scenario.last_fault_end_s + horizon_margin_s >= duration_s:
        raise ConfigurationError(
            f"scenario {scenario.name!r} needs a clean tail: last fault "
            f"ends at {scenario.last_fault_end_s:.1f}s, recovery horizon "
            f"is {scenario.last_fault_end_s + horizon_margin_s:.1f}s, but "
            f"the capture is only {duration_s:.1f}s"
        )
    if scenario.max_targeted_sessions() > n_sessions:
        raise ConfigurationError(
            f"scenario {scenario.name!r} targets "
            f"{scenario.max_targeted_sessions()} sessions but the fleet "
            f"only has {n_sessions}"
        )

    pool = [
        _capture(seed + 137 * k, duration_s, sample_rate_hz)
        for k in range(min(trace_pool_size, n_sessions))
    ]
    session_ids = [f"session-{i:04d}" for i in range(n_sessions)]
    trace_of = {sid: i % len(pool) for i, sid in enumerate(session_ids)}
    priority_of = {sid: i % 3 for i, sid in enumerate(session_ids)}

    build = dict(
        sample_rate_hz=sample_rate_hz,
        fleet_config=fleet_config,
        streaming_config=streaming_config,
        supervisor_config=supervisor_config,
        seed=seed,
        trace_of=trace_of,
        priority_of=priority_of,
    )
    # Sessions targeted by recorder-crash faults get a write-through
    # recording tap at the front door; the solo baselines do not — a tap
    # is transparent to the consumer, and the isolation byte-compare
    # proves exactly that for any tapped-but-unfaulted configuration.
    n_recorded = max(
        (
            f.n_sessions
            for f in scenario.faults
            if f.kind == "recorder-crash"
        ),
        default=0,
    )
    recorders = (
        _FleetRecorders(session_ids[:n_recorded], sample_rate_hz)
        if n_recorded
        else None
    )

    gateway = _build_gateway(
        pool, session_ids, registry=registry, recorders=recorders, **build
    )

    # Who counts as faulted: targeted sessions, plus (for a shard crash)
    # whoever sits on the crashed shard.
    targeted = set(
        session_ids[: scenario.max_targeted_sessions()]
    )
    for fault in scenario.faults:
        if fault.kind == "shard-crash":
            targeted.update(gateway.sessions_on_shard(fault.shard))
    faulted_ids = tuple(sid for sid in session_ids if sid in targeted)

    run_budget_s = duration_s + 30.0
    gateway.run(
        max_duration_s=run_budget_s,
        on_round=_fault_firer(scenario, faulted_ids, recorders),
    )
    recordings = recorders.finalize() if recorders is not None else {}

    shed_ids = tuple(
        sid
        for sid in session_ids
        if gateway.status(sid) is SessionStatus.SHED
    )

    gateway_start_s = min(float(t.timestamps_s[0]) for t in pool)
    fault_end_abs_s = gateway_start_s + scenario.last_fault_end_s
    horizon_s = fault_end_abs_s + horizon_margin_s

    # Solo baselines: one fault-free, one-session gateway run per distinct
    # trace, computed lazily and shared between the recovery check (was
    # the failure fault-induced?) and the isolation check (byte-compare).
    # Each entry is (estimate stream, fresh-emission fleet times).
    baseline_cache: dict[
        int, tuple[list[ServiceEstimate], tuple[float, ...]]
    ] = {}

    def solo_baseline(
        k: int,
    ) -> tuple[list[ServiceEstimate], tuple[float, ...]]:
        if k not in baseline_cache:
            sid = next(s for s in session_ids if trace_of[s] == k)
            solo = _build_gateway(pool, [sid], registry=None, **build)
            solo.run(max_duration_s=run_budget_s)
            baseline_cache[k] = (
                solo.estimates(sid),
                solo.fresh_emission_times(sid),
            )
        return baseline_cache[k]

    def recovers_in_time(emit_times_s: tuple[float, ...]) -> bool:
        # Judged on *fleet* time, not estimate data time: a burst fault
        # fast-forwards the upstream, so post-burst estimates carry
        # near-end-of-trace data timestamps even though the session is
        # healthy again within seconds on the gateway clock.
        return any(
            fault_end_abs_s <= t <= horizon_s for t in emit_times_s
        )

    fault_start_abs_s = gateway_start_s + min(
        (f.at_s for f in scenario.faults), default=0.0
    )

    def session_recovered(sid: str) -> bool:
        emit = gateway.fresh_emission_times(sid)
        if recovers_in_time(emit):
            return True
        # A burst can deliver the entire remaining capture and finish
        # the session before the fault window nominally closes.  A
        # session that drained its whole stream and exited cleanly —
        # still producing fresh estimates after the fault began — was
        # never wedged; one that finished but went silent at the fault
        # is not excused.
        return gateway.status(sid) is SessionStatus.FINISHED and any(
            t >= fault_start_abs_s for t in emit
        )

    unrecovered = []
    for sid in faulted_ids:
        if sid in shed_ids:
            continue
        if session_recovered(sid):
            continue
        # No fresh emission between the fault end and the horizon — a
        # violation only when the same trace *does* produce one in its
        # fault-free solo run.
        if recovers_in_time(solo_baseline(trace_of[sid])[1]):
            unrecovered.append(sid)

    interference: list[str] = []
    if check_isolation:
        for sid in session_ids:
            if sid in targeted or sid in shed_ids:
                continue
            k = trace_of[sid]
            if anonymous_estimates_jsonl(
                gateway.estimates(sid)
            ) != anonymous_estimates_jsonl(solo_baseline(k)[0]):
                interference.append(sid)

    results = gateway.results()
    return FleetChaosReport(
        scenario=scenario,
        n_sessions=n_sessions,
        faulted_ids=faulted_ids,
        shed_ids=shed_ids,
        interference_ids=tuple(interference),
        unrecovered_ids=tuple(unrecovered),
        max_shed_sessions=fleet_config.max_shed_sessions,
        recovery_horizon_s=horizon_s,
        fleet_summary=gateway.fleet_summary(),
        events=gateway.events,
        metrics_json=_metrics_json(registry),
        n_estimates_total=sum(len(v) for v in results.values()),  # phaselint: insertion-order -- integer count, order-independent
        recordings=recordings,
    )
