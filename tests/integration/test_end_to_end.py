"""End-to-end integration tests: simulate → save → load → estimate.

These walk the full user journey across module boundaries, including
persistence, multi-person monitoring, streaming, and the three deployment
scenarios.
"""

import pytest

from repro import (
    CSITrace,
    PhaseBeat,
    Person,
    SinusoidalBreathing,
    StreamingConfig,
    StreamingMonitor,
    capture_trace,
    corridor_scenario,
    laboratory_scenario,
    through_wall_scenario,
)


class TestFullJourney:
    def test_simulate_save_load_estimate(self, tmp_path, lab_trace, lab_person):
        path = lab_trace.save(tmp_path / "capture.npz")
        loaded = CSITrace.load(path)
        result = PhaseBeat().process(loaded, estimate_heart=False)
        truth = loaded.meta["breathing_rates_bpm"][0]
        assert truth == lab_person.breathing_rate_bpm
        assert result.breathing_rates_bpm[0] == pytest.approx(truth, abs=0.5)

    def test_all_three_deployments_estimate_breathing(self):
        person = Person(
            position=(1.5, 2.0, 1.0),
            breathing=SinusoidalBreathing(frequency_hz=0.3),
            heartbeat=None,
        )
        scenarios = [
            laboratory_scenario([person], clutter_seed=21),
            through_wall_scenario(
                4.0,
                [Person(position=(1.5, 1.2, 1.0), heartbeat=None,
                        breathing=SinusoidalBreathing(frequency_hz=0.3))],
                clutter_seed=21,
            ),
            corridor_scenario(
                5.0,
                [Person(position=(1.0, 2.5, 1.0), heartbeat=None,
                        breathing=SinusoidalBreathing(frequency_hz=0.3))],
                clutter_seed=21,
            ),
        ]
        pipeline = PhaseBeat(enforce_stationarity=False)
        # Through-wall traces are the hard regime (wall loss + a dominant
        # second harmonic at this geometry): allow the wider tolerance the
        # paper's own Fig. 16 errors imply.
        tolerances = {"laboratory": 1.0, "through_wall": 1.6, "corridor": 1.0}
        for scenario in scenarios:
            trace = capture_trace(scenario, duration_s=30.0, seed=21)
            result = pipeline.process(trace, estimate_heart=False)
            assert result.breathing_rates_bpm[0] == pytest.approx(
                18.0, abs=tolerances[scenario.name]
            ), scenario.name

    def test_streaming_matches_batch(self, lab_trace, lab_person):
        batch = PhaseBeat().process(lab_trace, estimate_heart=False)
        monitor = StreamingMonitor(
            400.0, StreamingConfig(window_s=25.0, hop_s=5.0)
        )
        streamed = [e for e in monitor.push_trace(lab_trace) if e.ok]
        assert streamed
        last = streamed[-1].result.breathing_rates_bpm[0]
        assert last == pytest.approx(batch.breathing_rates_bpm[0], abs=0.8)

    def test_metadata_ground_truth_consistency(self, lab_trace, lab_person):
        assert lab_trace.meta["n_persons"] == 1
        assert lab_trace.meta["scenario"] == "laboratory"
        assert lab_trace.meta["heart_rates_bpm"][0] == pytest.approx(
            lab_person.heart_rate_bpm
        )


class TestSamplingRateRobustness:
    @pytest.mark.parametrize("rate", [100.0, 200.0, 400.0])
    def test_breathing_across_rates(self, rate, lab_person):
        scenario = laboratory_scenario([lab_person], clutter_seed=22)
        trace = capture_trace(
            scenario, duration_s=20.0, sample_rate_hz=rate, seed=22
        )
        result = PhaseBeat(enforce_stationarity=False).process(trace, estimate_heart=False)
        assert result.breathing_rates_bpm[0] == pytest.approx(
            lab_person.breathing_rate_bpm, abs=0.8
        )


class TestRealisticPhysiology:
    def test_breathing_with_wander_and_harmonics(self):
        from repro import RealisticBreathing

        person = Person(
            position=(2.2, 3.0, 1.0),
            breathing=RealisticBreathing(
                frequency_hz=0.27, rate_jitter_fraction=0.02, seed=5
            ),
            heartbeat=None,
        )
        scenario = laboratory_scenario([person], clutter_seed=23)
        trace = capture_trace(scenario, duration_s=30.0, seed=23)
        result = PhaseBeat(enforce_stationarity=False).process(trace, estimate_heart=False)
        assert result.breathing_rates_bpm[0] == pytest.approx(16.2, abs=1.2)

    def test_pulse_heartbeat_detectable(self):
        from repro import PulseHeartbeat

        person = Person(
            position=(2.2, 3.0, 1.0),
            breathing=SinusoidalBreathing(frequency_hz=0.22, amplitude_m=3e-3),
            heartbeat=PulseHeartbeat(frequency_hz=1.25, amplitude_m=5e-4),
        )
        scenario = laboratory_scenario(
            [person], directional_tx=True, clutter_seed=24
        )
        trace = capture_trace(scenario, duration_s=60.0, seed=24)
        result = PhaseBeat(enforce_stationarity=False).process(trace)
        assert result.heart_rate_bpm == pytest.approx(75.0, abs=3.0)


class TestReadmeQuickstart:
    def test_readme_snippet_verbatim(self):
        """The README quickstart must work exactly as printed."""
        from repro import PhaseBeat, capture_trace, laboratory_scenario

        trace = capture_trace(laboratory_scenario(), duration_s=60.0)
        result = PhaseBeat().process(trace)

        assert len(result.breathing_rates_bpm) == 1
        truth_breathing = trace.meta["breathing_rates_bpm"][0]
        truth_heart = trace.meta["heart_rates_bpm"][0]
        assert result.breathing_rates_bpm[0] == pytest.approx(
            truth_breathing, abs=0.5
        )
        # Default lab scenario uses an omni TX; the heart estimate exists
        # and is at least physiological, though the paper (and this repo)
        # only promise accuracy with the directional-TX setup.
        assert result.heart_rate_bpm is None or 40 < result.heart_rate_bpm < 130
