"""Tests for the RSS (UbiBreathe-style) baseline."""

import numpy as np
import pytest

from repro.baselines import rss
from repro.baselines.rss import rss_breathing_bpm, rss_series_db


class TestRSSSeries:
    def test_shape(self, short_lab_trace):
        rss = rss_series_db(short_lab_trace)
        assert rss.shape == (short_lab_trace.n_packets,)

    def test_quantization_applied(self, short_lab_trace):
        assert rss.QUANTIZATION_DB == 1.0
        series = rss_series_db(short_lab_trace)
        assert np.allclose(series, np.round(series))

    def test_quantization_disabled(self, short_lab_trace, monkeypatch):
        monkeypatch.setattr(rss, "QUANTIZATION_DB", 0.0)
        series = rss_series_db(short_lab_trace)
        assert not np.allclose(series, np.round(series))

    def test_rss_is_coarser_than_csi(self, lab_trace):
        # One scalar per packet versus 90 complex numbers.
        rss = rss_series_db(lab_trace)
        assert rss.ndim == 1


class TestRSSMethod:
    def test_estimates_breathing_when_signal_strong(self, monkeypatch):
        """RSS works in the easy regime: strong modulation, no quantization."""
        from repro.physio.breathing import SinusoidalBreathing
        from repro.physio.person import Person
        from repro.rf.receiver import capture_trace
        from repro.rf.scene import laboratory_scenario

        person = Person(
            position=(2.2, 3.0, 1.0),
            breathing=SinusoidalBreathing(frequency_hz=0.25, amplitude_m=8e-3),
            heartbeat=None,
        )
        scenario = laboratory_scenario([person], clutter_seed=13)
        trace = capture_trace(scenario, duration_s=30.0, seed=13)
        monkeypatch.setattr(rss, "QUANTIZATION_DB", 0.0)
        rate = rss_breathing_bpm(trace)
        assert rate == pytest.approx(15.0, abs=1.5)

    def test_quantization_degrades_estimate(
        self, lab_trace, lab_person, monkeypatch
    ):
        truth = lab_person.breathing_rate_bpm
        errors = {}
        for quantization_db in (0.0, 4.0):
            monkeypatch.setattr(rss, "QUANTIZATION_DB", quantization_db)
            rate = rss_breathing_bpm(lab_trace)
            errors[quantization_db] = abs(rate - truth)
        assert errors[4.0] >= errors[0.0]
