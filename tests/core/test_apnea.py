"""Tests for apnea (breathing-cessation) detection."""

import numpy as np
import pytest

from repro.core.apnea import (
    DROP_FRACTION,
    ApneaEvent,
    breathing_envelope,
    detect_apnea,
)
from repro.errors import ConfigurationError, SignalTooShortError
from repro.physio import ApneicBreathing, SinusoidalBreathing


def breathing_with_pauses(pauses, fs=20.0, duration=120.0, residual=0.0):
    model = ApneicBreathing(
        base=SinusoidalBreathing(frequency_hz=0.25),
        pauses_s=pauses,
        residual=residual,
    )
    t = np.arange(int(duration * fs)) / fs
    return model.displacement(t)


class TestEnvelope:
    def test_constant_amplitude_tone(self):
        fs = 20.0
        x = np.sin(2 * np.pi * 0.25 * np.arange(1200) / fs)
        envelope = breathing_envelope(x, fs)
        interior = envelope[100:-100]
        # The envelope of a unit sine sits near its median |value| ≈ 0.71.
        assert np.all(interior > 0.4)
        assert np.all(interior < 1.01)

    def test_collapses_during_pause(self):
        fs = 20.0
        x = breathing_with_pauses(((30.0, 20.0),), fs=fs, duration=80.0)
        envelope = breathing_envelope(x, fs)
        inside = envelope[int(35 * fs) : int(45 * fs)]
        outside = envelope[int(5 * fs) : int(25 * fs)]
        assert inside.max() < 0.2 * np.median(outside)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            breathing_envelope(np.zeros((5, 2)), 20.0)
        with pytest.raises(ConfigurationError):
            breathing_envelope(np.zeros(100), 0.0)


class TestDetectApnea:
    def test_single_event(self):
        x = breathing_with_pauses(((40.0, 15.0),))
        events = detect_apnea(x, 20.0)
        assert len(events) == 1
        assert events[0].start_s == pytest.approx(40.0, abs=2.0)
        assert events[0].end_s == pytest.approx(55.0, abs=2.0)
        assert events[0].duration_s == pytest.approx(15.0, abs=3.0)

    def test_two_events(self):
        x = breathing_with_pauses(((30.0, 12.0), (80.0, 20.0)))
        events = detect_apnea(x, 20.0)
        assert len(events) == 2
        assert events[0].start_s < events[1].start_s

    def test_short_pause_not_scored(self):
        # 5 s pause is below the 10 s clinical minimum.
        x = breathing_with_pauses(((40.0, 5.0),))
        events = detect_apnea(x, 20.0)
        assert events == []

    def test_no_pause_no_events(self):
        fs = 20.0
        x = np.sin(2 * np.pi * 0.25 * np.arange(2400) / fs)
        assert detect_apnea(x, fs) == []

    def test_partial_obstruction_depth(self):
        # 20% residual motion is still below the 30% cessation threshold.
        x = breathing_with_pauses(((40.0, 15.0),), residual=0.2)
        events = detect_apnea(x, 20.0)
        assert len(events) == 1
        assert 0.1 < events[0].depth < DROP_FRACTION

    def test_merge_gap_joins_flickers(self):
        # Two 6 s pauses separated by 1 s merge into one ≥10 s event.
        x = breathing_with_pauses(((40.0, 6.0), (47.0, 6.0)))
        events = detect_apnea(x, 20.0)
        assert len(events) == 1
        assert events[0].duration_s > 10.0

    def test_too_short_signal_rejected(self):
        with pytest.raises(SignalTooShortError):
            detect_apnea(np.zeros(50), 20.0)

    def test_event_dataclass(self):
        event = ApneaEvent(start_s=10.0, end_s=25.0, depth=0.05)
        assert event.duration_s == 15.0


class TestEndToEnd:
    def test_detection_through_rf_chain(self):
        """Apnea events survive the full simulate → pipeline → detect path."""
        from repro import (
            Person,
            PhaseBeat,
            capture_trace,
            laboratory_scenario,
        )

        sleeper = Person(
            position=(2.2, 3.0, 0.6),
            breathing=ApneicBreathing(
                base=SinusoidalBreathing(frequency_hz=0.22),
                pauses_s=((40.0, 15.0),),
            ),
            heartbeat=None,
        )
        scenario = laboratory_scenario([sleeper], clutter_seed=9)
        trace = capture_trace(scenario, duration_s=90.0, seed=9)
        result = PhaseBeat(enforce_stationarity=False).process(
            trace, estimate_heart=False
        )
        events = detect_apnea(
            result.breathing_signal, result.diagnostics.calibrated_rate_hz
        )
        assert len(events) == 1
        assert events[0].start_s == pytest.approx(40.0, abs=3.0)
        assert events[0].duration_s == pytest.approx(15.0, abs=4.0)
