"""Fleet-scale chaos: prove sessions fail alone, never together.

Extends the single-subject harness (:mod:`repro.service.chaos`) to faults
that only exist at fleet scale:

* ``shard-crash`` — a worker shard dies: every session on it loses its
  queued packets and its monitor, which must restart through the normal
  checkpoint-restore path;
* ``ingest-burst`` — targeted sessions' upstreams deliver a backlog far
  faster than realtime, flooding their bounded queues;
* ``slow-consumer`` — targeted sessions' drain budget collapses, so their
  queues back up while ingest continues;
* ``correlated-source-loss`` — N sessions lose their upstream packets
  simultaneously (a shared capture appliance dying);
* ``recorder-crash`` — the recording taps on N sessions die mid-write
  (optionally tearing the bytes they had in flight) and are restarted,
  resuming in a fresh segment while the torn one is left for salvage;
  each crashed tap records one ``recorder-crash`` event.

:func:`run_fleet_chaos` runs a seeded fleet under one scenario and checks
three invariants in :meth:`FleetChaosReport.violations`:

1. **isolation** — every unfaulted session's estimate stream is
   byte-identical to a solo run of the same trace through a one-session
   gateway (identity fields excluded);
2. **recovery** — every faulted session that was not shed produces a
   fresh estimate again by the recovery horizon (last fault end + one
   window + one hop, on the *fleet* clock — data time jumps when a burst
   delivers a backlog).  Two escape hatches keep the check honest: a
   session that drained its whole stream and finished cleanly while
   still emitting fresh estimates after the fault began was never
   wedged, and a trace whose fault-free solo run also yields nothing
   fresh in the interval (for example one the stationarity gate rejects
   throughout) cannot convict the fleet of failing to recover it;
3. **bounded shedding** — the gateway never sheds more sessions than the
   configured ``max_shed_sessions`` budget.

Session-targeted faults hit the *first* ``n_sessions`` admitted sessions
— a deliberate, transparent choice: targeting is deterministic, faults in
one scenario overlap predictably, and the unfaulted remainder is known
without running anything.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from ...core.streaming import StreamingConfig
from ...errors import ConfigurationError
from ...eval.harness import default_subject
from ...obs import Instrumentation, MetricsRegistry, canonical_json
from ...rf.receiver import capture_trace
from ...rf.scene import laboratory_scenario
from ..clock import SimulatedClock
from ..events import EventLog
from ...store.backend import MemoryBackend
from ...store.tap import RecordingTap, store_digest
from ..sources import PacketSource, TracePacketSource
from ..supervisor import ServiceEstimate, SupervisorConfig
from .config import FleetConfig
from .gateway import FleetGateway, SessionStatus

__all__ = [
    "FleetFault",
    "FleetScenario",
    "FleetChaosReport",
    "FLEET_SCENARIOS",
    "run_fleet_chaos",
]

_FLEET_FAULT_KINDS = (
    "shard-crash",
    "ingest-burst",
    "slow-consumer",
    "correlated-source-loss",
    "recorder-crash",
)


@dataclass(frozen=True)
class FleetFault:
    """One scripted fleet-level fault.

    Attributes:
        kind: One of :data:`_FLEET_FAULT_KINDS`.
        at_s: Fault start, in simulated seconds from the run start.
        duration_s: Effect-window length (windowed kinds; a
            ``shard-crash`` is instantaneous).
        shard: Target shard (``shard-crash`` only).
        n_sessions: How many sessions the fault targets (the first N in
            admission order; session-targeted kinds only).
        ingest_factor: Ingest-budget multiplier (``ingest-burst``).
        drain_factor: Drain-budget multiplier in (0, 1]
            (``slow-consumer``).
        torn_tail_bytes: How many in-flight bytes the crash tears off the
            recorder's current segment (``recorder-crash`` only).
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    shard: int = 0
    n_sessions: int = 0
    ingest_factor: float = 4.0
    drain_factor: float = 0.25
    torn_tail_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _FLEET_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fleet fault kind {self.kind!r}; expected one of "
                f"{_FLEET_FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if self.kind == "shard-crash":
            if self.shard < 0:
                raise ConfigurationError("shard must be >= 0")
        else:
            if self.n_sessions < 1:
                raise ConfigurationError(
                    f"{self.kind} fault needs n_sessions >= 1"
                )
            # A recorder crash is instantaneous, like a shard crash.
            if self.kind != "recorder-crash" and self.duration_s <= 0:
                raise ConfigurationError(
                    f"{self.kind} fault needs duration_s > 0"
                )
        if self.kind == "ingest-burst" and self.ingest_factor < 1.0:
            raise ConfigurationError("ingest_factor must be >= 1")
        if self.kind == "slow-consumer" and not (
            0.0 < self.drain_factor <= 1.0
        ):
            raise ConfigurationError("drain_factor must be in (0, 1]")
        if self.torn_tail_bytes < 0:
            raise ConfigurationError("torn_tail_bytes must be >= 0")

    @property
    def end_s(self) -> float:
        """When the fault's effect window closes."""
        return self.at_s + self.duration_s

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetFault":
        """Parse one fault entry; unknown keys are rejected."""
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown fleet fault fields {sorted(unknown)}; allowed: "
                f"{sorted(allowed)}"
            )
        if "kind" not in data or "at_s" not in data:
            raise ConfigurationError(
                "a fleet fault needs at least 'kind' and 'at_s'"
            )
        return cls(**data)


@dataclass(frozen=True)
class FleetScenario:
    """A named, serializable schedule of fleet faults.

    Attributes:
        name: Scenario identifier (reports and CLI).
        faults: The fault schedule.
        description: Human-readable intent.
    """

    name: str
    faults: tuple[FleetFault, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def last_fault_end_s(self) -> float:
        """When the last fault's effect window closes (0 with no faults)."""
        return max((f.end_s for f in self.faults), default=0.0)

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
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetScenario":
        """Parse a scenario dict (the inverse of :meth:`to_dict`)."""
        if "name" not in data:
            raise ConfigurationError("scenario dict needs a 'name'")
        faults = data.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ConfigurationError("'faults' must be a list")
        return cls(
            name=str(data["name"]),
            faults=tuple(FleetFault.from_dict(f) for f in faults),
            description=str(data.get("description", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetScenario":
        """Parse a scenario from its JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fleet scenario is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("fleet scenario JSON must be an object")
        return cls.from_dict(data)

    def to_json(self) -> str:
        """Serialize to the scenario-file JSON schema."""
        return json.dumps(self.to_dict(), indent=2)


# Shipped fleet scenarios.  Timings assume the default run_fleet_chaos
# geometry (24 s traces, 8 s windows / 4 s hop, 0.5 s rounds): faults start
# after warm-up and leave a clean tail inside the recovery horizon.
FLEET_SCENARIOS: dict[str, FleetScenario] = {
    "shard-crash": FleetScenario(
        name="shard-crash",
        description=(
            "One worker shard dies, losing its sessions' queues and "
            "monitors; every affected monitor must restart (from its "
            "latest checkpoint when one exists) while the other shards' "
            "sessions are untouched byte for byte."
        ),
        faults=(FleetFault(kind="shard-crash", at_s=8.0, shard=0),),
    ),
    "ingest-burst": FleetScenario(
        name="ingest-burst",
        description=(
            "A few sessions' upstreams deliver a backlog at 4x the ingest "
            "budget regardless of capture time; bounded queues must "
            "absorb, watermark throttling must engage, and neighbours "
            "must not notice."
        ),
        faults=(
            FleetFault(
                kind="ingest-burst",
                at_s=4.0,
                duration_s=6.0,
                n_sessions=4,
                ingest_factor=4.0,
            ),
        ),
    ),
    "slow-consumer": FleetScenario(
        name="slow-consumer",
        description=(
            "A few sessions' workers collapse to a trickle of the drain "
            "budget for most of the capture; their queues back up past "
            "the high watermark (but inside capacity, so nothing drops), "
            "the pressure ladder throttles them, and the backlog drains "
            "cleanly once the workers recover."
        ),
        faults=(
            FleetFault(
                kind="slow-consumer",
                at_s=2.0,
                duration_s=7.0,
                n_sessions=4,
                drain_factor=0.15,
            ),
        ),
    ),
    "correlated-source-loss": FleetScenario(
        name="correlated-source-loss",
        description=(
            "A shared capture appliance dies: several sessions lose their "
            "upstream packets for a window and must ride the gap out "
            "(holdover, quality gates) and recover once packets return."
        ),
        faults=(
            FleetFault(
                kind="correlated-source-loss",
                at_s=6.0,
                duration_s=4.0,
                n_sessions=5,
            ),
        ),
    ),
    "record-crash-resume": FleetScenario(
        name="record-crash-resume",
        description=(
            "The recording taps on a few sessions die mid-write, tearing "
            "the bytes they had in flight, and are restarted twice over; "
            "each restart resumes in a fresh segment, the torn segments "
            "salvage down to the last intact record, and the consumers "
            "behind the taps never notice."
        ),
        faults=(
            FleetFault(
                kind="recorder-crash",
                at_s=5.0,
                n_sessions=3,
                torn_tail_bytes=96,
            ),
            FleetFault(
                kind="recorder-crash",
                at_s=9.0,
                n_sessions=2,
                torn_tail_bytes=17,
            ),
        ),
    ),
    "overload-shed": FleetScenario(
        name="overload-shed",
        description=(
            "Sustained burst and a starved consumer on the same sessions "
            "drive them through the whole pressure ladder — throttle, "
            "degrade, shed — while the shed budget caps the damage."
        ),
        faults=(
            FleetFault(
                kind="ingest-burst",
                at_s=4.0,
                duration_s=7.0,
                n_sessions=6,
                ingest_factor=8.0,
            ),
            FleetFault(
                kind="slow-consumer",
                at_s=4.0,
                duration_s=7.0,
                n_sessions=6,
                drain_factor=0.1,
            ),
        ),
    ),
}


@dataclass(frozen=True)
class FleetChaosReport:
    """Outcome of one fleet chaos run.

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
        events_jsonl: Canonical JSONL encoding of the event log (the
            byte-reproducibility artefact).
        metrics_json: Canonical JSON metrics snapshot, when a registry
            was supplied (``None`` otherwise).
        n_estimates_total: Estimates emitted across the whole fleet.
        recordings: Per-session store digests (segment SHA-256s plus the
            salvage outcome) for sessions the scenario recorded through a
            tap; empty when no ``recorder-crash`` fault was scheduled.
    """

    scenario: FleetScenario
    n_sessions: int
    faulted_ids: tuple[str, ...]
    shed_ids: tuple[str, ...]
    interference_ids: tuple[str, ...]
    unrecovered_ids: tuple[str, ...]
    max_shed_sessions: int
    recovery_horizon_s: float
    fleet_summary: dict[str, Any]
    events: EventLog = field(repr=False)
    events_jsonl: str = field(repr=False)
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


def _estimate_stream_bytes(estimates: list[ServiceEstimate]) -> bytes:
    """Canonical byte encoding of an estimate stream, identity excluded.

    The ``subject`` field is the session's *name*, not part of the
    estimate; dropping it lets a solo baseline (run under its own id)
    byte-compare against any fleet session consuming the same trace.
    """
    lines = []
    for estimate in estimates:
        payload = estimate.to_dict()
        del payload["subject"]
        lines.append(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
    return "\n".join(lines).encode("utf-8")


def _build_trace_pool(
    pool_size: int, duration_s: float, sample_rate_hz: float, seed: int
) -> list[Any]:
    """Simulate ``pool_size`` distinct single-person captures."""
    traces = []
    for k in range(pool_size):
        rng = np.random.default_rng(seed + 137 * k)
        person = default_subject(rng)
        scene = laboratory_scenario([person], clutter_seed=seed + 137 * k)
        traces.append(
            capture_trace(
                scene,
                duration_s=duration_s,
                sample_rate_hz=sample_rate_hz,
                seed=seed + 137 * k,
            )
        )
    return traces


def _trace_factory(trace: Any):
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

    def wrap(self, sid: str, factory: Any) -> Any:
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
    traces: list[Any],
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
    scenario: FleetScenario,
    faulted_ids: tuple[str, ...],
    recorders: _FleetRecorders | None = None,
):
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
    scenario: FleetScenario,
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
        scenario: The fleet fault schedule to execute.
        n_sessions: Fleet size.
        duration_s: Simulated capture length per session.
        sample_rate_hz: Packet rate of each capture.
        seed: Master seed (scenes, captures, gateway).
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

    pool = _build_trace_pool(
        min(trace_pool_size, n_sessions), duration_s, sample_rate_hz, seed
    )
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
            if _estimate_stream_bytes(
                gateway.estimates(sid)
            ) != _estimate_stream_bytes(solo_baseline(k)[0]):
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
        events_jsonl=gateway.events.to_jsonl(),
        metrics_json=(
            canonical_json(registry.snapshot())
            if registry is not None
            else None
        ),
        n_estimates_total=sum(len(v) for v in results.values()),  # phaselint: insertion-order -- integer count, order-independent
        recordings=recordings,
    )
