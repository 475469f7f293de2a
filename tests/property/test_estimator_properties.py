"""Property-based tests for the rate estimators on synthetic signals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.breathing import music_breathing_bpm, peak_breathing_bpm
from repro.core.heart import fft_heart_bpm
from repro.dsp.fft_utils import fundamental_frequency


@given(
    f=st.floats(min_value=0.18, max_value=0.45, allow_nan=False),
    phase=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
    amplitude=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_peak_estimator_tracks_any_clean_rate(f, phase, amplitude):
    """The peak estimator recovers any in-band clean sinusoid's rate."""
    fs = 20.0
    t = np.arange(1800) / fs
    signal = amplitude * np.sin(2 * np.pi * f * t + phase)
    rate = peak_breathing_bpm(signal, fs)
    assert abs(rate - 60 * f) < 0.6


@given(
    f=st.floats(min_value=0.18, max_value=0.45, allow_nan=False),
    noise=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_peak_estimator_amplitude_invariance(f, noise, seed):
    """Scaling the signal (and its noise) must not change the estimate."""
    fs = 20.0
    rng = np.random.default_rng(seed)
    t = np.arange(1200) / fs
    base = np.sin(2 * np.pi * f * t) + noise * rng.normal(size=t.size)
    r1 = peak_breathing_bpm(base, fs)
    r2 = peak_breathing_bpm(100.0 * base, fs)
    assert abs(r1 - r2) < 1e-9


@given(
    f=st.floats(min_value=0.9, max_value=1.9, allow_nan=False),
    phase=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_heart_estimator_tracks_any_clean_rate(f, phase):
    fs = 20.0
    t = np.arange(1200) / fs
    signal = np.sin(2 * np.pi * f * t + phase)
    rate = fft_heart_bpm(signal, fs)
    assert abs(rate - 60 * f) < 1.0


@given(
    f1=st.floats(min_value=0.15, max_value=0.30, allow_nan=False),
    gap=st.floats(min_value=0.06, max_value=0.25, allow_nan=False),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_music_separates_well_spaced_pairs(f1, gap, seed):
    """root-MUSIC resolves any two rates ≥ 0.06 Hz apart in the band."""
    f2 = f1 + gap
    if f2 > 0.55:
        f2 = 0.55
        if f2 - f1 < 0.06:
            return  # degenerate draw
    if abs(f2 - 2 * f1) < 0.03:
        return  # documented limitation: a rate at exactly 2× another is
        # indistinguishable from that rate's harmonic (suppressed by design)
    fs = 20.0
    rng = np.random.default_rng(seed)
    t = np.arange(1200) / fs
    x = (
        np.sin(2 * np.pi * f1 * t)
        + np.sin(2 * np.pi * f2 * t + 1.0)
        + 0.05 * rng.normal(size=t.size)
    )
    rates = music_breathing_bpm(x, fs, 2)
    assert abs(rates[0] - 60 * f1) < 1.0
    assert abs(rates[1] - 60 * f2) < 1.0


@given(
    f=st.floats(min_value=0.15, max_value=0.35, allow_nan=False),
    harmonic_gain=st.floats(min_value=1.2, max_value=3.5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_octave_correction_beats_dominant_harmonic(f, harmonic_gain):
    """Even when the 2nd harmonic is the tallest line, the fundamental
    estimate resolves down (the null-point failure mode)."""
    fs = 20.0
    t = np.arange(1200) / fs
    x = np.sin(2 * np.pi * f * t) + harmonic_gain * np.sin(
        2 * np.pi * 2 * f * t + 0.7
    )
    estimate = fundamental_frequency(x, fs, band=(0.1, 0.7))
    assert abs(estimate - f) < 0.02
