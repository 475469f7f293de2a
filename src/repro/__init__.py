"""PhaseBeat reproduction: CSI phase-difference vital-sign monitoring.

A from-scratch reimplementation of *PhaseBeat: Exploiting CSI Phase Data for
Vital Sign Monitoring with Commodity WiFi Devices* (Wang, Yang & Mao,
ICDCS 2017), together with the simulated commodity-WiFi substrate the
algorithms run on: an OFDM multipath channel (paper Eq. 2), the Intel-5300
measured-phase error model (Eqs. 3-4), physiological chest-displacement
models, and the three experimental deployments.

Quickstart::

    from repro import PhaseBeat, laboratory_scenario, capture_trace

    trace = capture_trace(laboratory_scenario(), duration_s=60.0)
    result = PhaseBeat().process(trace)
    print(result.breathing_rates_bpm)   # breaths per minute
    print(result.heart_rate_bpm)        # beats per minute
"""

from .core import (
    PhaseBeat,
    PhaseBeatResult,
    StreamingConfig,
    StreamingMonitor,
    VitalSignEstimate,
)
from .errors import (
    ConfigurationError,
    DataGapError,
    DegradedInputError,
    EstimationError,
    NotStationaryError,
    ReproError,
    SignalTooShortError,
    TraceFormatError,
)
from .io_ import CSITrace, TraceQualityReport
from .physio import (
    ActivityScript,
    ActivityState,
    Person,
    PulseHeartbeat,
    RealisticBreathing,
    SinusoidalBreathing,
    SinusoidalHeartbeat,
    random_cohort,
)
from .rf import (
    HardwareConfig,
    Scenario,
    capture_trace,
    corridor_scenario,
    laboratory_scenario,
    through_wall_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "ActivityScript",
    "ActivityState",
    "CSITrace",
    "ConfigurationError",
    "DataGapError",
    "DegradedInputError",
    "EstimationError",
    "HardwareConfig",
    "NotStationaryError",
    "Person",
    "PhaseBeat",
    "PhaseBeatResult",
    "PulseHeartbeat",
    "RealisticBreathing",
    "ReproError",
    "Scenario",
    "SignalTooShortError",
    "SinusoidalBreathing",
    "SinusoidalHeartbeat",
    "StreamingConfig",
    "StreamingMonitor",
    "TraceFormatError",
    "TraceQualityReport",
    "VitalSignEstimate",
    "capture_trace",
    "corridor_scenario",
    "laboratory_scenario",
    "random_cohort",
    "through_wall_scenario",
    "__version__",
]
