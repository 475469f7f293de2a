"""The paper's contribution: the PhaseBeat processing pipeline."""

from .apnea import ApneaEvent, breathing_envelope, detect_apnea
from .breathing import (
    BREATHING_SEARCH_BAND_HZ,
    fft_breathing_bpm,
    music_breathing_bpm,
    peak_breathing_bpm,
)
from .calibration import CalibratedData, calibrate
from .dwt_stage import DWTBands, DWTConfig, decompose
from .environment import (
    classify_windows,
    v_statistic,
    windowed_v,
)
from .heart import HEART_SEARCH_BAND_HZ, fft_heart_bpm
from .phase_difference import phase_difference, raw_phase
from .pipeline import PhaseBeat, prepare_calibrated_matrix
from .results import PhaseBeatResult, PipelineDiagnostics, VitalSignEstimate
from .streaming import StreamingConfig, StreamingEstimate, StreamingMonitor
from .subcarrier_selection import (
    SelectionResult,
    amplitude_quality_mask,
    select_subcarrier,
    subcarrier_sensitivities,
)

__all__ = [
    "ApneaEvent",
    "BREATHING_SEARCH_BAND_HZ",
    "CalibratedData",
    "DWTBands",
    "DWTConfig",
    "HEART_SEARCH_BAND_HZ",
    "PhaseBeat",
    "PhaseBeatResult",
    "PipelineDiagnostics",
    "SelectionResult",
    "StreamingConfig",
    "StreamingEstimate",
    "StreamingMonitor",
    "VitalSignEstimate",
    "amplitude_quality_mask",
    "breathing_envelope",
    "calibrate",
    "classify_windows",
    "decompose",
    "detect_apnea",
    "fft_breathing_bpm",
    "fft_heart_bpm",
    "music_breathing_bpm",
    "peak_breathing_bpm",
    "phase_difference",
    "prepare_calibrated_matrix",
    "raw_phase",
    "select_subcarrier",
    "subcarrier_sensitivities",
    "v_statistic",
    "windowed_v",
]
