"""Supervised long-running monitoring service.

The pipeline and streaming monitor assume someone hands them packets; this
package is that someone, hardened.  It supplies the capture-side fault
domain (:mod:`~repro.service.sources`), the per-source circuit breaker
(:mod:`~repro.service.breaker`), the one-subject supervisor with
watchdog, checkpoint/restore and an estimator fallback ladder
(:mod:`~repro.service.supervisor`), the fleet gateway that runs one such
supervisor per session (:mod:`~repro.service.fleet`), and a scripted
chaos harness that proves the whole thing recovers
(:mod:`~repro.service.chaos`) — all timed on one
:class:`~repro.service.clock.SimulatedClock` so every run is
deterministic and bit-replayable.

See ``docs/service.md`` for the fault-domain map and state machines.
"""

from .breaker import BreakerState, CircuitBreaker
from .chaos import (
    SHIPPED_SCENARIOS,
    ChaosReport,
    ChaosScenario,
    TimedFault,
    flaky_source_factory,
    load_scenario,
    run_chaos,
)
from .clock import SimulatedClock
from .events import EventLog, ServiceEvent
from .sources import (
    FlakySourceAdapter,
    Packet,
    PacketSource,
    ResilientSource,
    SourceFault,
    TracePacketSource,
)
from .supervisor import (
    FALLBACK_METHODS,
    MonitorSupervisor,
    ServiceEstimate,
    SubjectHealth,
    SupervisorConfig,
)

__all__ = [
    "SimulatedClock",
    "EventLog",
    "ServiceEvent",
    "BreakerState",
    "CircuitBreaker",
    "Packet",
    "PacketSource",
    "TracePacketSource",
    "SourceFault",
    "FlakySourceAdapter",
    "ResilientSource",
    "SubjectHealth",
    "FALLBACK_METHODS",
    "SupervisorConfig",
    "ServiceEstimate",
    "MonitorSupervisor",
    "TimedFault",
    "ChaosScenario",
    "ChaosReport",
    "SHIPPED_SCENARIOS",
    "load_scenario",
    "flaky_source_factory",
    "run_chaos",
]
