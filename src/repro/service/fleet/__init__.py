"""Fleet-scale service layer: one gateway, thousands of monitor sessions.

A :class:`~repro.service.supervisor.MonitorSupervisor` hardens exactly one
subject; this package hardens the *population*, and its
:class:`~repro.service.fleet.gateway.FleetGateway` is the only component
that runs many subjects — one supervisor per session.  The gateway is the
ingest front door: it admits sessions through an
:class:`~repro.service.fleet.admission.AdmissionController` (max-sessions
and per-shard capacity, typed
:class:`~repro.errors.FleetAdmissionError` refusals), multiplexes each
admitted packet stream through a bounded per-session ingest queue
(:mod:`~repro.service.fleet.queue`) onto a deterministic shard pool, and
protects itself under overload with a graduated pressure ladder —
throttle (wider hop), degrade (pin the estimator fallback ladder), and
only then shed — with every transition recorded in the shared
:class:`~repro.service.events.EventLog`.

:func:`repro.service.chaos.run_fleet_chaos` drives the gateway through
fleet-level faults (shard crash, ingest burst, slow consumer, correlated
source loss, recorder crash) and checks the isolation contract: a fault
injected into some sessions must not perturb any other session's
estimate stream by even one byte.

Everything runs on one :class:`~repro.service.clock.SimulatedClock`
advanced only by the gateway's round heartbeat, so a fleet run — event
log, estimate streams, and metrics snapshot — is byte-reproducible under
a fixed seed.  See ``docs/fleet.md``.
"""

from .admission import AdmissionController
from .config import FleetConfig
from .gateway import FleetGateway, SessionStatus
from .queue import BoundedPacketQueue, QueuedPacketSource

__all__ = [
    "AdmissionController",
    "BoundedPacketQueue",
    "FleetConfig",
    "FleetGateway",
    "QueuedPacketSource",
    "SessionStatus",
]
