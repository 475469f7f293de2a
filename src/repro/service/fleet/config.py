"""Fleet gateway configuration.

One frozen dataclass holds every knob of the fleet layer — admission
ceilings, queue geometry, the watermarks of the pressure ladder, the shed
budget, and the scheduling cadence — validated eagerly so a bad fleet
deployment fails at construction, not twenty minutes into a run.  The
ladder's fixed steps (escalation, recovery and shed delays, hop stretches,
degraded fallback floor) are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigurationError

__all__ = [
    "FleetConfig",
    "THROTTLE_AFTER_ROUNDS",
    "RECOVER_AFTER_ROUNDS",
    "SHED_AFTER_ROUNDS",
    "THROTTLE_HOP_STRETCH",
    "DEGRADE_HOP_STRETCH",
    "DEGRADE_FALLBACK_LEVEL",
]

# Consecutive over-watermark rounds before the pressure ladder steps up one
# level.
THROTTLE_AFTER_ROUNDS = 2
# Consecutive under-watermark rounds before the pressure ladder steps back
# down one level.
RECOVER_AFTER_ROUNDS = 2
# Rounds a session must remain over the high watermark *at the deepest
# pressure level* before it becomes a shed candidate — degradation always
# precedes shedding.
SHED_AFTER_ROUNDS = 4
# Hop-widening factor at pressure level 1 (estimates emitted less often,
# geometry unchanged).
THROTTLE_HOP_STRETCH = 2.0
# Hop-widening factor at pressure level 2.
DEGRADE_HOP_STRETCH = 3.0
# Estimator-ladder floor pinned at pressure level 2 (1 = csi-ratio),
# trading accuracy for cycles.
DEGRADE_FALLBACK_LEVEL = 1


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of the fleet gateway (times in simulated seconds).

    Attributes:
        max_sessions: Fleet-wide admission ceiling (active sessions).
        n_shards: Number of deterministic worker shards sessions are
            assigned to (least-loaded, lowest-index tie-break).
        shard_capacity: Admission ceiling per shard.
        queue_capacity_packets: Bound of each session's ingest queue;
            on overflow the oldest packet is dropped (freshest data wins
            for vital-sign streams).
        high_watermark_packets: Queue depth at or above which a session
            accrues over-pressure rounds.
        low_watermark_packets: Queue depth at or below which a session
            accrues recovery rounds.
        max_shed_sessions: Hard budget of sessions the gateway may shed
            over a run — the invariant the chaos report enforces.
        round_interval_s: Simulated time one scheduling round represents;
            the gateway heartbeat is the sole driver of the fleet clock.
        ingest_budget_packets: Max packets pulled from one session's
            upstream per round.
        drain_budget_packets: Max queued packets fed to one session's
            monitor per round (scaled down by slow-consumer faults).
    """

    max_sessions: int = 1024
    n_shards: int = 8
    shard_capacity: int = 256
    queue_capacity_packets: int = 256
    high_watermark_packets: int = 160
    low_watermark_packets: int = 48
    max_shed_sessions: int = 16
    round_interval_s: float = 0.5
    ingest_budget_packets: int = 64
    drain_budget_packets: int = 64

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if self.shard_capacity < 1:
            raise ConfigurationError("shard_capacity must be >= 1")
        if self.queue_capacity_packets < 1:
            raise ConfigurationError("queue_capacity_packets must be >= 1")
        if not (
            0
            < self.low_watermark_packets
            < self.high_watermark_packets
            <= self.queue_capacity_packets
        ):
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high <= capacity, got "
                f"low={self.low_watermark_packets}, "
                f"high={self.high_watermark_packets}, "
                f"capacity={self.queue_capacity_packets}"
            )
        if self.max_shed_sessions < 0:
            raise ConfigurationError("max_shed_sessions must be >= 0")
        if self.round_interval_s <= 0:
            raise ConfigurationError("round_interval_s must be positive")
        if self.ingest_budget_packets < 1:
            raise ConfigurationError("ingest_budget_packets must be >= 1")
        if self.drain_budget_packets < 1:
            raise ConfigurationError("drain_budget_packets must be >= 1")
