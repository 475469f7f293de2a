"""The gateway's one-tick block drain against the per-packet drain.

``FleetGateway._drain`` hands a session's queued packets to its supervisor
in one ``tick(max_packets=n)``.  The reference is the drain it replaced: a
``FleetGateway`` subclass whose ``_drain`` calls ``tick(max_packets=1)`` up
to ``n`` times, stopping once the subject is done.  Fleet time only moves
with the round heartbeat, so the two must agree exactly — events, estimate
streams, metrics and reports — on every fleet chaos scenario, and a
subject that fails partway through a block must leave the packets it never
took in its queue.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.streaming import StreamingConfig
from repro.errors import ConfigurationError
from repro.obs import Instrumentation, MetricsRegistry
from repro.service import chaos
from repro.service.clock import SimulatedClock
from repro.service.fleet import FleetGateway
from repro.service.fleet.queue import BoundedPacketQueue, QueuedPacketSource
from repro.service.sources import Packet, ResilientSource, TracePacketSource
from repro.service.supervisor import MAX_MONITOR_RESTARTS, MonitorSupervisor

FLEET_SCENARIOS = (
    "shard-crash",
    "ingest-burst",
    "slow-consumer",
    "correlated-source-loss",
    "record-crash-resume",
    "overload-shed",
)


def per_packet_drain(supervisor: MonitorSupervisor) -> None:
    """Make ``supervisor.tick`` behave as the old per-packet drain loop."""
    block_tick = supervisor.tick

    def tick(name, *, max_packets=1):
        for _ in range(max_packets):
            if supervisor.subject_done(name):
                break
            block_tick(name, max_packets=1)

    supervisor.tick = tick


class PerPacketGateway(FleetGateway):
    """Drains one ``tick(max_packets=1)`` per queued packet."""

    instances: list[FleetGateway] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        PerPacketGateway.instances.append(self)

    def _drain(self, session, now_s):
        per_packet_drain(session.supervisor)
        super()._drain(session, now_s)


class BlockGateway(FleetGateway):
    """The shipped gateway, recording its instances."""

    instances: list[FleetGateway] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        BlockGateway.instances.append(self)


def run(monkeypatch, gateway_class, scenario):
    gateway_class.instances = []
    monkeypatch.setattr(chaos, "FleetGateway", gateway_class)
    registry = MetricsRegistry()
    report = chaos.run_fleet_chaos(
        chaos.SCENARIOS[scenario],
        n_sessions=8,
        duration_s=24.0,
        seed=3,
        trace_pool_size=2,
        registry=registry,
        check_isolation=False,
    )
    # The fleet run is built first; solo baselines follow when the
    # recovery check needs them.
    gateway = gateway_class.instances[0]
    streams = {
        sid: [e.to_dict() for e in stream]
        for sid, stream in gateway.results().items()
    }
    return {
        "report": json.dumps(report.to_jsonable(), sort_keys=True),
        "events": report.events_jsonl,
        "metrics": report.metrics_json,
        "estimates": json.dumps(streams, sort_keys=True),
        "queue_depths": [gateway._session(s).queue.depth for s in gateway.session_ids],
        "health": [
            gateway._session(s).supervisor.health_summary()
            for s in gateway.session_ids
        ],
    }


@pytest.mark.parametrize("scenario", FLEET_SCENARIOS)
def test_block_drain_equals_per_packet_drain(monkeypatch, scenario):
    block = run(monkeypatch, BlockGateway, scenario)
    reference = run(monkeypatch, PerPacketGateway, scenario)
    assert "checkpoint" in reference["events"]
    for key in reference:
        assert block[key] == reference[key], key


# ----------------------------------------------------------------------
# One supervisor over a queue: a subject that fails partway through.


def queued_supervisor(trace, packets):
    clock = SimulatedClock(float(trace.timestamps_s[0]))
    queue = BoundedPacketQueue(len(packets) + 1)
    for packet in packets:
        queue.offer(packet)
    source = QueuedPacketSource(queue)
    supervisor = MonitorSupervisor(
        clock=clock, streaming_config=StreamingConfig(window_s=8.0, hop_s=2.0)
    )
    supervisor.add_subject("s", lambda _t: source, trace.sample_rate_hz)
    return supervisor, queue


def broken_packets(trace, bad):
    """The trace's packets, with the ones at ``bad`` cut to a wrong shape
    (each crashes the monitor)."""
    packets = [
        Packet(trace.csi[k], float(trace.timestamps_s[k]))
        for k in range(trace.n_packets)
    ]
    for k in bad:
        packets[k] = Packet(packets[k].csi[:, :-1], packets[k].timestamp_s)
    return packets


@pytest.mark.parametrize(
    "restarts_before, bad",
    [
        # One restart short of failing: the first bad packet ends it.
        (MAX_MONITOR_RESTARTS, (40,)),
        # Two restarts short: the second bad packet in the block ends it.
        (MAX_MONITOR_RESTARTS - 1, (30, 70)),
    ],
)
def test_subject_failing_mid_block_leaves_the_rest_queued(
    fleet_trace, restarts_before, bad
):
    packets = broken_packets(fleet_trace, bad)[:200]
    runs = []
    for per_packet in (False, True):
        supervisor, queue = queued_supervisor(fleet_trace, packets)
        if per_packet:
            per_packet_drain(supervisor)
        for _ in range(restarts_before):
            supervisor.crash_monitor("s")
        supervisor.tick("s", max_packets=len(packets))
        assert supervisor.subject_done("s")
        runs.append(
            (
                queue.depth,
                [p.timestamp_s for p in queue.pop_block(queue.depth)],
                supervisor.events.to_jsonl(),
                supervisor.health_summary(),
            )
        )
    block, reference = runs
    assert block == reference
    # The packet that failed the subject was consumed; nothing after it.
    assert block[0] == len(packets) - bad[-1] - 1
    assert block[1][0] == packets[bad[-1] + 1].timestamp_s
    assert block[3]["source_counters"]["reads_ok"] == bad[-1] + 1


def test_block_tick_equals_per_packet_ticks_with_checkpoints(fleet_trace):
    """Blocks of mixed sizes on a standing clock, checkpoint interval
    crossed between them: state and events match tick by tick."""
    packets = broken_packets(fleet_trace, ())
    sizes = np.random.default_rng(4).integers(1, 60, size=40)
    runs = []
    for per_packet in (False, True):
        supervisor, queue = queued_supervisor(fleet_trace, packets)
        if per_packet:
            per_packet_drain(supervisor)
        trail = []
        for size in sizes:
            if queue.depth == 0:
                break
            supervisor.clock.advance(1.0)
            supervisor.tick("s", max_packets=int(min(size, queue.depth)))
            trail.append(
                (
                    queue.depth,
                    supervisor.health_summary(),
                    supervisor._last_checkpoint is not None
                    and len(supervisor._last_checkpoint["buffer"]),
                )
            )
        estimates = [e.to_dict() for e in supervisor.estimates_for("s")]
        runs.append((trail, supervisor.events.to_jsonl(), estimates))
    block, reference = runs
    assert block == reference
    assert '"checkpoint"' in reference[1]
    assert reference[2], "no window emitted"


def test_trace_source_delivers_one_packet_per_tick(fleet_trace):
    """A source without a block read is read once per tick."""
    clock = SimulatedClock()
    supervisor = MonitorSupervisor(clock=clock)
    supervisor.add_subject(
        "s",
        lambda start: TracePacketSource(fleet_trace, clock, start_at_s=start),
        fleet_trace.sample_rate_hz,
    )
    supervisor.tick("s", max_packets=50)
    assert supervisor.health_summary()["source_counters"]["reads_ok"] == 1


def test_block_read_accounts_like_single_reads(fleet_trace):
    """One supervised read of n queued packets leaves counters, breaker
    and the instrumented series as n single reads do."""
    packets = broken_packets(fleet_trace, ())[:50]
    outcomes = []
    for block in (True, False):
        clock = SimulatedClock()
        queue = BoundedPacketQueue(len(packets))
        for packet in packets:
            queue.offer(packet)
        registry = MetricsRegistry()
        source = ResilientSource(
            lambda _t: QueuedPacketSource(queue),
            clock,
            subject="s",
            instrumentation=Instrumentation(clock=clock, registry=registry),
        )
        if block:
            got = source.next_packets(len(packets))
        else:
            got = [source.next_packet() for _ in packets]
        assert [p.timestamp_s for p in got] == [p.timestamp_s for p in packets]
        outcomes.append(
            (
                dict(source.counters),
                source.breaker.state,
                json.dumps(registry.snapshot(), sort_keys=True),
            )
        )
    assert outcomes[0] == outcomes[1]


def test_max_packets_must_be_positive(fleet_trace):
    supervisor, _ = queued_supervisor(fleet_trace, broken_packets(fleet_trace, ())[:5])
    with pytest.raises(ConfigurationError):
        supervisor.tick("s", max_packets=0)
