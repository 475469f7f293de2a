"""UbiBreathe-style RSS baseline (paper ref. [10]).

UbiBreathe estimates breathing from plain WiFi RSS — one coarse, quantized
power number per packet instead of 30 complex subcarrier responses.  The
paper cites it as the motivating contrast for fine-grained CSI: RSS needs
the subject on the LOS path and degrades quickly otherwise.

The model here derives RSS from the simulated CSI (total received power
summed over subcarriers and chains), quantizes it to the 1 dB granularity
real RSSI reports have, then runs a breathing-band FFT peak search on the
smoothed series.
"""

from __future__ import annotations

import numpy as np

from ..core.breathing import BREATHING_SEARCH_BAND_HZ
from ..dsp.fft_utils import fundamental_frequency
from ..dsp.hampel import HAMPEL_THRESHOLD, hampel_filter
from ..dsp.resample import decimate, decimation_factor, downsampled_rate
from ..contracts import FloatArray
from ..io_.trace import CSITrace

__all__ = ["QUANTIZATION_DB", "SMOOTH_WINDOW_S", "rss_breathing_bpm", "rss_series_db"]

# RSSI reporting granularity of commodity NICs.
QUANTIZATION_DB = 1.0
# Hampel smoothing window over the RSS series.
SMOOTH_WINDOW_S = 0.25


def rss_series_db(trace: CSITrace) -> FloatArray:
    """Received signal strength per packet, quantized like a real RSSI.

    Values are rounded to :data:`QUANTIZATION_DB` steps (0 disables
    quantization).

    Args:
        trace: The CSI capture.

    Returns:
        ``(n_packets,)`` RSS values in dB (arbitrary reference).
    """
    power = np.sum(np.abs(trace.csi) ** 2, axis=(1, 2))
    rss = 10.0 * np.log10(np.maximum(power, 1e-30))
    if QUANTIZATION_DB > 0:
        rss = np.round(rss / QUANTIZATION_DB) * QUANTIZATION_DB
    return rss


def rss_breathing_bpm(trace: CSITrace) -> float:
    """Breathing rate (bpm) from quantized RSS (the UbiBreathe-style contrast).

    Smooths the quantized RSS series, decimates it to the paper's
    processing rate and takes the FFT peak in the breathing search band.
    """
    rss = rss_series_db(trace)
    window = max(3, int(round(SMOOTH_WINDOW_S * trace.sample_rate_hz)))
    smoothed = hampel_filter(rss, min(window, rss.size), HAMPEL_THRESHOLD)
    detrended = smoothed - hampel_filter(
        smoothed, min(rss.size, 8 * window), HAMPEL_THRESHOLD
    )
    factor = decimation_factor(trace.sample_rate_hz)
    series = decimate(detrended, factor)
    rate = downsampled_rate(trace.sample_rate_hz, factor)
    return 60.0 * fundamental_frequency(series, rate, band=BREATHING_SEARCH_BAND_HZ)
