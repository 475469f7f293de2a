"""The paper's detrend and denoise steps (Section III-B2) as Hampel filters.

Calibration detrends with ``x - hampel_filter(x, 2000, 0.01)`` and denoises
with ``hampel_filter(x, 50, 0.01)`` at 400 Hz; these check what each step
keeps and removes.
"""

import numpy as np

from repro.dsp.hampel import hampel_filter


class TestHampelDetrend:
    def test_removes_slow_ramp(self):
        t = np.arange(8000) / 400.0
        signal = 0.3 * np.sin(2 * np.pi * 0.25 * t)
        ramp = 0.2 * t
        x = signal + ramp
        out = x - hampel_filter(x, 2000, 0.01)
        interior = slice(1000, -1000)
        # The ramp is gone; the oscillation survives.
        assert abs(np.polyfit(t[interior], out[interior], 1)[0]) < 0.02
        assert np.corrcoef(out[interior], signal[interior])[0, 1] > 0.9

    def test_keeps_breathing_band_energy(self):
        t = np.arange(8000) / 400.0
        signal = np.sin(2 * np.pi * 0.25 * t)
        x = signal + 3.0
        out = x - hampel_filter(x, 2000, 0.01)
        interior = slice(1000, -1000)
        retained = np.sum(out[interior] ** 2) / np.sum(signal[interior] ** 2)
        assert retained > 0.5


class TestHampelDenoise:
    def test_suppresses_impulses(self):
        t = np.arange(2000) / 400.0
        clean = np.sin(2 * np.pi * 0.25 * t)
        dirty = clean.copy()
        dirty[97::97] += 5.0  # sparse impulses (interior — the replicated
        # edge padding lets a spike at sample 0 survive, by construction)
        out = hampel_filter(dirty, 50, 0.01)
        interior = slice(50, -50)
        assert np.max(np.abs(out[interior] - clean[interior])) < 0.5

    def test_narrowband_signal_survives(self):
        t = np.arange(2000) / 400.0
        clean = np.sin(2 * np.pi * 0.25 * t)
        out = hampel_filter(clean, 50, 0.01)
        assert np.corrcoef(out, clean)[0, 1] > 0.999
