"""The three workloads: inputs made from a seed, and one service pass.

Each workload fixes its input size (sessions × capture seconds at a
packet rate, window and hop), so every pass does the same work:

* ``fleet-400hz`` — 4 clean laboratory captures at the paper's 400 Hz,
  64 s each, 30 s window / 1 s hop, through :class:`FleetGateway`.  The
  uniformly timed stream runs the incremental calibration engine.
* ``solo-lossy`` — one subject at 400 Hz for 60 s with 10 % Bernoulli
  frame loss throughout and 60 % loss for 20 s, 10 s window / 0.5 s hop,
  written to a :class:`MemoryBackend` store at set-up and replayed
  through :class:`ReplayPacketSource` into one
  :class:`MonitorSupervisor`.  Non-uniform timing bypasses the
  incremental engine, so every window runs the batch pipeline, and the
  lossy stretch walks the estimator fallback ladder down and back.
* ``fleet-record-20hz`` — 32 clean sessions at the 20 Hz post-decimation
  rate, 60 s each, 8 s window / 4 s hop, each recorded through a
  :class:`RecordingTap` into its own :class:`MemoryBackend` with a
  flush every 32 records: many small sessions, so per-round gateway
  policy and per-packet dispatch weigh beside the DSP, plus the store's
  write path.

Every session replays one capture from a fixed panel per workload: session
``k`` is a one-person laboratory scene whose subject, clutter, receiver
errors and (solo) frame-loss pattern are all drawn from the panel seed
``panel_base + 137 k``.  ``fleet-400hz`` and ``fleet-record-20hz`` use
``panel_base = 0``, so their first captures are the same seed-0 captures
the fleet chaos harness builds; the subject at panel seed 274 fails the
stationarity gate in every window and the one at 411 locks onto a
harmonic — both are kept.  A fixed panel makes accuracy and failure
ratios a function of the code alone: with only 4–64 subjects, drawing
them (or their receiver noise) from the run seed moves the breathing-error
percentiles by 30–200 % from seed to seed, far beyond any usable bound.

The run seed draws what the service does with that panel: the order in
which fleet sessions are admitted and scheduled (and so which session
waits behind which in a round), the segment size of the solo store (and
so how many segments the replay reads), and the service's own seed.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import capture_trace, laboratory_scenario
from repro.core.streaming import StreamingConfig
from repro.eval.harness import default_subject
from repro.obs import Instrumentation
from repro.rf.impairments import (
    BernoulliLoss,
    SegmentImpairment,
    apply_impairments,
)
from repro.service.clock import SimulatedClock
from repro.service.fleet import FleetConfig, FleetGateway, SessionStatus
from repro.service.sources import TracePacketSource
from repro.service.supervisor import MonitorSupervisor, ServiceEstimate
from repro.store import MemoryBackend, RecordingTap, ReplayPacketSource, TraceWriter

from .stats import BenchError, promised_windows, stream_digest

__all__ = [
    "ROUND_INTERVAL_S",
    "WorkloadSpec",
    "WORKLOADS",
    "SessionInput",
    "PassResult",
    "fleet_config",
    "make_inputs",
    "run_pass",
    "promised_per_session",
]

# One gateway round represents this much capture time.
ROUND_INTERVAL_S = 0.5
# RecordingTap durability boundary in the recording workload.
FLUSH_EVERY_RECORDS = 32


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed input size and service geometry of one workload."""

    name: str
    kind: str  # "fleet" or "solo"
    rate_hz: float
    duration_s: float
    window_s: float
    hop_s: float
    n_sessions: int
    panel_base: int
    record: bool = False
    lossy: bool = False

    @property
    def streaming_config(self) -> StreamingConfig:
        return StreamingConfig(window_s=self.window_s, hop_s=self.hop_s)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fleet-400hz",
            kind="fleet",
            rate_hz=400.0,
            duration_s=64.0,
            window_s=30.0,
            hop_s=1.0,
            n_sessions=4,
            panel_base=0,
        ),
        WorkloadSpec(
            name="solo-lossy",
            kind="solo",
            rate_hz=400.0,
            duration_s=60.0,
            window_s=10.0,
            hop_s=0.5,
            n_sessions=1,
            panel_base=1000,
            lossy=True,
        ),
        WorkloadSpec(
            name="fleet-record-20hz",
            kind="fleet",
            rate_hz=20.0,
            duration_s=60.0,
            window_s=8.0,
            hop_s=4.0,
            n_sessions=32,
            panel_base=0,
            record=True,
        ),
    )
}

# solo-lossy: 10 % loss throughout, 60 % loss over [25 s, 45 s).
_BASE_LOSS = 0.10
_BURST_LOSS = 0.60
_BURST_START_S = 25.0
_BURST_LENGTH_S = 20.0


@dataclass
class SessionInput:
    """One session's capture, its ground truth, and (solo) its store."""

    session_id: str
    timestamps_s: np.ndarray
    truth_bpm: float
    trace: Any = None
    backend: MemoryBackend | None = None

    def capture_s(self, rate_hz: float) -> float:
        """Capture seconds the session's packets span, counting one
        nominal interval for the last packet (a clean 60 s capture is
        60 s)."""
        ts = self.timestamps_s
        return float(ts[-1] - ts[0]) + 1.0 / rate_hz


@dataclass
class PassResult:
    """What one service pass produced and how long it took."""

    wall_s: float
    estimates: dict[str, list[ServiceEstimate]]
    latencies_ms: list[float]
    event_kinds: list[str]
    rounds: int = 0
    queue_dropped: int = 0
    store_bytes: int = 0

    def digests(self) -> dict[str, str]:
        """Per-session digest of the canonical-JSON estimate stream."""
        return {
            sid: stream_digest(e.to_dict() for e in stream)
            for sid, stream in self.estimates.items()
        }

    @property
    def n_windows(self) -> int:
        return sum(len(stream) for stream in self.estimates.values())


def fleet_config(rate_hz: float) -> FleetConfig:
    """Gateway budgets sized from ``rate × round_interval_s``.

    Each round ingests and drains every packet that came due (twice the
    per-round packet count of headroom), so after a drain the queue is
    empty and the pressure ladder never has cause to act.
    """
    per_round = math.ceil(rate_hz * ROUND_INTERVAL_S) + 1
    return dataclasses.replace(
        FleetConfig(),
        round_interval_s=ROUND_INTERVAL_S,
        ingest_budget_packets=2 * per_round,
        drain_budget_packets=2 * per_round,
        queue_capacity_packets=4 * per_round,
        high_watermark_packets=2 * per_round,
        low_watermark_packets=max(1, per_round // 2),
    )


def _panel_capture(spec: WorkloadSpec, k: int) -> tuple[Any, float]:
    """Panel session ``k``'s capture (impaired for solo) and true rate."""
    scene_seed = spec.panel_base + 137 * k
    person = default_subject(np.random.default_rng(scene_seed))
    trace = capture_trace(
        laboratory_scenario([person], clutter_seed=scene_seed),
        duration_s=spec.duration_s,
        sample_rate_hz=spec.rate_hz,
        seed=scene_seed,
    )
    truth_bpm = float(trace.meta["breathing_rates_bpm"][0])
    if spec.lossy:
        trace = apply_impairments(
            trace,
            [
                BernoulliLoss(loss_fraction=_BASE_LOSS),
                SegmentImpairment(
                    inner=BernoulliLoss(loss_fraction=_BURST_LOSS),
                    start_s=_BURST_START_S,
                    end_s=_BURST_START_S + _BURST_LENGTH_S,
                ),
            ],
            seed=scene_seed + 1,
        )
    return trace, truth_bpm


def make_inputs(spec: WorkloadSpec, seed: int) -> list[SessionInput]:
    """Simulate (and, for solo, impair and store) every session's capture,
    in the seed's admission order."""
    rng = np.random.default_rng(seed)
    sessions = []
    for k in rng.permutation(spec.n_sessions):
        trace, truth_bpm = _panel_capture(spec, int(k))
        sid = f"{spec.name}-{int(k):03d}"
        session = SessionInput(
            session_id=sid,
            timestamps_s=np.asarray(trace.timestamps_s, dtype=float),
            truth_bpm=truth_bpm,
        )
        if spec.kind == "solo":
            rotate_bytes = 4096 * int(rng.integers(64, 257))
            session.backend = _write_store(trace, sid, spec.rate_hz, rotate_bytes)
        else:
            session.trace = trace
        sessions.append(session)
    return sessions


def _write_store(
    trace: Any, stem: str, rate_hz: float, rotate_bytes: int
) -> MemoryBackend:
    backend = MemoryBackend()
    with TraceWriter(
        backend,
        stem,
        session_id=stem,
        n_rx=int(trace.csi.shape[1]),
        n_subcarriers=int(trace.csi.shape[2]),
        sample_rate_hz=rate_hz,
        subcarrier_indices=tuple(int(i) for i in trace.subcarrier_indices),
        rotate_bytes=rotate_bytes,
    ) as writer:
        for csi, t in zip(trace.csi, trace.timestamps_s):
            writer.append(csi, float(t))
    return backend


def run_pass(spec: WorkloadSpec, sessions: list[SessionInput], seed: int) -> PassResult:
    """One pass of the workload through the public service API."""
    if spec.kind == "fleet":
        return _fleet_pass(spec, sessions, seed)
    return _solo_pass(spec, sessions, seed)


class _EmissionClock(Instrumentation):
    """Gateway instrumentation sink that stamps each window's emission.

    The gateway reports ``fleet_window_latency_s`` (fleet time from the
    window's last packet to its emission round) right after the session's
    drain that emitted it; that call is where a window's wall latency
    ends.  Every other series is dropped.
    """

    def __init__(self) -> None:
        super().__init__(enabled=True)
        self.gateway: FleetGateway | None = None
        self.emissions: list[tuple[float, int, float]] = []

    def count(self, *args: Any, **kwargs: Any) -> None:
        return None

    def gauge_set(self, *args: Any, **kwargs: Any) -> None:
        return None

    def observe(self, name: str, value: float, *args: Any, **kwargs: Any) -> None:
        if name == "fleet_window_latency_s":
            self.emissions.append(
                (time.perf_counter(), self.gateway.round_index, float(value))
            )


def _fleet_pass(spec: WorkloadSpec, sessions: list[SessionInput], seed: int) -> PassResult:
    t_start = time.perf_counter()
    sink = _EmissionClock()
    gateway = FleetGateway(
        config=fleet_config(spec.rate_hz),
        streaming_config=spec.streaming_config,
        seed=seed,
        instrumentation=sink,
    )
    sink.gateway = gateway
    taps: list[RecordingTap] = []
    for session in sessions:
        gateway.admit(
            session.session_id,
            _upstream_factory(spec, session, taps),
            spec.rate_hz,
        )
    sids = gateway.session_ids
    max_rounds = math.ceil(spec.duration_s / ROUND_INTERVAL_S) + 4
    round_starts: list[float] = []
    while any(gateway.status(sid) is SessionStatus.ACTIVE for sid in sids):
        if len(round_starts) >= max_rounds:
            raise BenchError(
                f"{spec.name}: sessions still active after {max_rounds} rounds"
            )
        round_starts.append(time.perf_counter())
        gateway.run_round()
    for tap in taps:
        tap.close()
    wall_s = time.perf_counter() - t_start

    latencies_ms = []
    for t_emit, round_index, lag_s in sink.emissions:
        # The window's last packet came due, and was ingested, in the first
        # round whose fleet time reached its timestamp.
        ingest_round = round_index - math.floor(lag_s / ROUND_INTERVAL_S)
        latencies_ms.append((t_emit - round_starts[ingest_round - 1]) * 1e3)
    summary = gateway.fleet_summary()
    store_bytes = sum(
        len(tap.backend.read_bytes(name))
        for tap in taps
        for name in tap.backend.list_names()
    )
    return PassResult(
        wall_s=wall_s,
        estimates=gateway.results(),
        latencies_ms=latencies_ms,
        event_kinds=gateway.events.kinds(),
        rounds=gateway.round_index,
        queue_dropped=int(summary["n_queue_dropped"]),
        store_bytes=store_bytes,
    )


def _upstream_factory(spec: WorkloadSpec, session: SessionInput, taps: list[RecordingTap]):
    trace = session.trace
    if not spec.record:
        return lambda clock: TracePacketSource(trace, clock)

    def recording(clock: SimulatedClock) -> RecordingTap:
        tap = RecordingTap(
            TracePacketSource(trace, clock),
            MemoryBackend(),
            session.session_id,
            sample_rate_hz=spec.rate_hz,
            session_id=session.session_id,
            flush_every_records=FLUSH_EVERY_RECORDS,
        )
        taps.append(tap)
        return tap

    return recording


def _solo_pass(spec: WorkloadSpec, sessions: list[SessionInput], seed: int) -> PassResult:
    (session,) = sessions
    sid = session.session_id
    n_packets = session.timestamps_s.size
    ticks = [0.0] * (n_packets + 1)
    t_start = time.perf_counter()
    clock = SimulatedClock()
    supervisor = MonitorSupervisor(
        clock=clock, streaming_config=spec.streaming_config, seed=seed
    )
    backend = session.backend
    supervisor.add_subject(
        sid,
        lambda start_at_s: ReplayPacketSource(
            backend, sid, clock, start_at_s=start_at_s
        ),
        spec.rate_hz,
    )
    # A clean replay delivers exactly one packet per tick, so tick k
    # consumes packet k and its wall time is ticks[k + 1] - ticks[k].
    for k in range(n_packets):
        ticks[k] = time.perf_counter()
        supervisor.tick(sid)
    ticks[n_packets] = time.perf_counter()
    wall_s = ticks[n_packets] - t_start
    if not supervisor.subject_done(sid):
        raise BenchError(f"{spec.name}: replay not finished after {n_packets} ticks")

    estimates = supervisor.estimates_for(sid)
    packet_index = np.searchsorted(
        session.timestamps_s, [e.time_s for e in estimates]
    )
    latencies_ms = []
    for k, estimate in zip(packet_index, estimates):
        if k >= n_packets or session.timestamps_s[k] != estimate.time_s:
            raise BenchError(
                f"{spec.name}: window at {estimate.time_s} s matches no packet"
            )
        latencies_ms.append((ticks[k + 1] - ticks[k]) * 1e3)
    return PassResult(
        wall_s=wall_s,
        estimates={sid: estimates},
        latencies_ms=latencies_ms,
        event_kinds=supervisor.events.kinds(),
    )


def promised_per_session(spec: WorkloadSpec) -> list[int]:
    """Windows each session's capture geometry promises."""
    promised = promised_windows(spec.duration_s, spec.window_s, spec.hop_s)
    return [promised] * spec.n_sessions
