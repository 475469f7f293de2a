"""Tests for the CSI-amplitude baseline."""

import numpy as np
import pytest

from repro.baselines import amplitude
from repro.baselines.amplitude import AmplitudeMethod
from repro.errors import ConfigurationError


class TestAmplitudeMethod:
    def test_breathing_estimate_on_lab_trace(self, lab_trace, lab_person):
        method = AmplitudeMethod()
        rate = method.estimate_breathing_bpm(lab_trace)
        assert rate == pytest.approx(lab_person.breathing_rate_bpm, abs=1.0)

    def test_antenna_selection(self, lab_trace, lab_person, monkeypatch):
        # A single-antenna amplitude method has no cross-antenna diversity;
        # an unlucky chain can sit at a null point.  Require the majority of
        # chains to produce an accurate rate.
        good = 0
        for antenna in range(lab_trace.n_rx):
            monkeypatch.setattr(amplitude, "ANTENNA", antenna)
            rate = AmplitudeMethod().estimate_breathing_bpm(lab_trace)
            if abs(rate - lab_person.breathing_rate_bpm) < 1.5:
                good += 1
        assert good >= 2

    def test_out_of_range_antenna_rejected(self, short_lab_trace, monkeypatch):
        monkeypatch.setattr(amplitude, "ANTENNA", 5)
        with pytest.raises(ConfigurationError):
            AmplitudeMethod().estimate_breathing_bpm(short_lab_trace)

    def test_agc_jitter_hurts_amplitude_more_than_phase(self):
        """The Fig. 11 mechanism: gain jitter hits |CSI|, not Δ∠CSI."""
        from repro.core.pipeline import PhaseBeat
        from repro.physio.person import Person
        from repro.rf.hardware import HardwareConfig
        from repro.rf.receiver import capture_trace
        from repro.rf.scene import laboratory_scenario

        person = Person(position=(2.2, 3.0, 1.0), heartbeat=None)
        truth = person.breathing_rate_bpm
        pipeline = PhaseBeat(enforce_stationarity=False)
        phase_errors, amplitude_errors = [], []
        for seed in (11, 12, 13, 14):
            scenario = laboratory_scenario([person], clutter_seed=seed)
            heavy_jitter = HardwareConfig(
                noise_sigma=0.004, agc_jitter_sigma=0.12, seed=seed
            )
            trace = capture_trace(
                scenario, duration_s=30.0, seed=seed, hardware=heavy_jitter
            )
            phase_errors.append(
                abs(
                    pipeline.process(
                        trace, estimate_heart=False
                    ).breathing_rates_bpm[0]
                    - truth
                )
            )
            amplitude_errors.append(
                abs(AmplitudeMethod().estimate_breathing_bpm(trace) - truth)
            )
        # Per-trial outcomes are noisy; the advantage is statistical.
        assert np.mean(phase_errors) < 1.0
        assert np.mean(amplitude_errors) >= 0.8 * np.mean(phase_errors)
