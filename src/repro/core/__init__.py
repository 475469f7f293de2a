"""The paper's contribution: the PhaseBeat processing pipeline."""

from .apnea import ApneaEvent, breathing_envelope, detect_apnea
from .breathing import (
    BREATHING_SEARCH_BAND_HZ,
    FFTBreathingEstimator,
    MusicBreathingEstimator,
    PeakBreathingEstimator,
)
from .calibration import CalibratedData, calibrate
from .dwt_stage import DWTBands, DWTConfig, decompose
from .environment import (
    classify_windows,
    v_statistic,
    windowed_v,
)
from .heart import HEART_SEARCH_BAND_HZ, FFTHeartEstimator
from .phase_difference import phase_difference, raw_phase
from .pipeline import PhaseBeat, PhaseBeatConfig, prepare_calibrated_matrix
from .results import PhaseBeatResult, PipelineDiagnostics, VitalSignEstimate
from .streaming import StreamingConfig, StreamingEstimate, StreamingMonitor
from .waveform import BreathingWaveformStats, analyze_waveform, breath_intervals
from .subcarrier_selection import (
    SelectionResult,
    amplitude_quality_mask,
    select_subcarrier,
    subcarrier_sensitivities,
)

__all__ = [
    "ApneaEvent",
    "BREATHING_SEARCH_BAND_HZ",
    "BreathingWaveformStats",
    "CalibratedData",
    "DWTBands",
    "DWTConfig",
    "FFTBreathingEstimator",
    "FFTHeartEstimator",
    "HEART_SEARCH_BAND_HZ",
    "MusicBreathingEstimator",
    "PeakBreathingEstimator",
    "PhaseBeat",
    "PhaseBeatConfig",
    "PhaseBeatResult",
    "PipelineDiagnostics",
    "SelectionResult",
    "StreamingConfig",
    "StreamingEstimate",
    "StreamingMonitor",
    "VitalSignEstimate",
    "amplitude_quality_mask",
    "analyze_waveform",
    "breath_intervals",
    "breathing_envelope",
    "calibrate",
    "detect_apnea",
    "classify_windows",
    "decompose",
    "phase_difference",
    "prepare_calibrated_matrix",
    "raw_phase",
    "select_subcarrier",
    "subcarrier_sensitivities",
    "v_statistic",
    "windowed_v",
]
