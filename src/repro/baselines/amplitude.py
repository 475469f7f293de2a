"""The CSI-amplitude baseline (Liu et al., MobiHoc 2015 — paper ref. [13]).

The benchmark PhaseBeat is compared against in Fig. 11: track vital signs
from the *amplitude* |CSI| of a single receive chain.  The processing chain
mirrors PhaseBeat's (same calibration, subcarrier selection, DWT, and peak
detection) so the comparison isolates the input representation — amplitude
versus cross-antenna phase difference — rather than differences in the
downstream machinery.

Amplitude is intrinsically noisier on commodity NICs: per-packet AGC and TX
power-control gain jitter multiplies every subcarrier of a packet by a
common random factor.  That factor cancels exactly in the cross-antenna
phase difference but lands directly on |CSI|, which is why the amplitude
method's error tail is heavier (the paper's observed 70% < 0.5 bpm vs
PhaseBeat's 90%).
"""

from __future__ import annotations

import numpy as np

from ..core.breathing import peak_breathing_bpm
from ..core.calibration import calibrate
from ..core.dwt_stage import decompose
from ..core.subcarrier_selection import select_subcarrier
from ..errors import ConfigurationError
from ..io_.trace import CSITrace

__all__ = ["ANTENNA", "AmplitudeMethod"]

# Receive chain whose |CSI| is used.
ANTENNA = 0


class AmplitudeMethod:
    """Amplitude-based breathing estimation (the Fig. 11 benchmark).

    Calibration, selection, the DWT and the estimator use PhaseBeat's stage
    defaults.
    """

    def estimate_breathing_bpm(self, trace: CSITrace) -> float:
        """Single-person breathing rate from CSI amplitude."""
        if ANTENNA >= trace.n_rx:
            raise ConfigurationError(
                f"antenna {ANTENNA} out of range for {trace.n_rx} chains"
            )
        amplitude = np.abs(trace.csi[:, ANTENNA, :])
        calibrated = calibrate(amplitude, trace.sample_rate_hz)
        selection = select_subcarrier(calibrated.series)
        series = calibrated.series[:, selection.selected]
        bands = decompose(series, calibrated.sample_rate_hz)
        return peak_breathing_bpm(bands.breathing, bands.sample_rate_hz)
