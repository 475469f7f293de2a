"""Integration tests for the end-to-end PhaseBeat pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import PhaseBeat
from repro.errors import NotStationaryError
from repro.io_.trace import CSITrace
from repro.physio.breathing import SinusoidalBreathing
from repro.physio.motion import ActivityScript, ActivityState, MotionEvent
from repro.physio.person import Person
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


class TestSinglePerson:
    def test_breathing_accuracy(self, lab_trace, lab_person):
        result = PhaseBeat().process(lab_trace, estimate_heart=False)
        assert result.breathing_rates_bpm[0] == pytest.approx(
            lab_person.breathing_rate_bpm, abs=0.5
        )
        assert result.breathing[0].method == "peak"

    def test_heart_accuracy_with_directional_tx(
        self, directional_trace, lab_person
    ):
        # The V band is calibrated on the omni setup; heart runs use the
        # directional TX and skip enforcement (as the fig. 12 harness does).
        result = PhaseBeat(enforce_stationarity=False).process(
            directional_trace
        )
        assert result.heart_rate_bpm == pytest.approx(
            lab_person.heart_rate_bpm, abs=2.0
        )
        assert result.heart.method == "fft+3bin"

    def test_heart_skipped_when_not_requested(self, lab_trace):
        result = PhaseBeat().process(lab_trace, estimate_heart=False)
        assert result.heart is None
        assert result.heart_rate_bpm is None

    def test_diagnostics_populated(self, lab_trace):
        result = PhaseBeat().process(lab_trace, estimate_heart=False)
        d = result.diagnostics
        assert d.environment_state is ActivityState.SITTING
        assert 0 <= d.selected_subcarrier < 30
        assert d.calibrated_rate_hz == pytest.approx(20.0)
        assert d.breathing_band_hz == (0.0, 0.625)
        assert d.heart_band_hz == (0.625, 2.5)
        assert len(d.candidate_subcarriers) == 3
        assert d.selected_antenna_pair in [(0, 1), (1, 2)]

    def test_signals_exposed_for_plotting(self, lab_trace):
        result = PhaseBeat().process(lab_trace, estimate_heart=False)
        assert result.breathing_signal.size == result.diagnostics.n_calibrated_samples

    def test_forced_fft_method(self, lab_trace, lab_person):
        result = PhaseBeat().process(
            lab_trace, estimate_heart=False, breathing_method="fft"
        )
        assert result.breathing[0].method == "fft"
        assert result.breathing_rates_bpm[0] == pytest.approx(
            lab_person.breathing_rate_bpm, abs=0.5
        )

    def test_unknown_method_rejected(self, lab_trace):
        with pytest.raises(ValueError):
            PhaseBeat().process(lab_trace, breathing_method="wavelet")


class TestEnvironmentGating:
    def test_walking_trace_rejected(self):
        scenario = dataclasses.replace(
            laboratory_scenario(clutter_seed=4),
            activity=ActivityScript(
                events=(MotionEvent(ActivityState.WALKING, 0.0, 20.0),), seed=4
            ),
        )
        trace = capture_trace(scenario, duration_s=15.0, seed=4)
        with pytest.raises(NotStationaryError) as excinfo:
            PhaseBeat().process(trace)
        assert excinfo.value.state == "walking"

    def test_enforcement_can_be_disabled(self):
        scenario = dataclasses.replace(
            laboratory_scenario(clutter_seed=4),
            activity=ActivityScript(
                events=(MotionEvent(ActivityState.WALKING, 0.0, 20.0),), seed=4
            ),
        )
        trace = capture_trace(scenario, duration_s=15.0, seed=4)
        # Must not raise NotStationaryError (the estimate may be poor).
        try:
            PhaseBeat(enforce_stationarity=False).process(
                trace, estimate_heart=False
            )
        except NotStationaryError:  # pragma: no cover
            pytest.fail("stationarity was enforced despite the config")
        except Exception:
            pass  # estimation failures are acceptable on garbage input

    def test_empty_room_rejected(self):
        scenario = dataclasses.replace(
            laboratory_scenario(clutter_seed=5),
            activity=ActivityScript(
                events=(MotionEvent(ActivityState.NO_PERSON, 0.0, 30.0),)
            ),
        )
        trace = capture_trace(scenario, duration_s=15.0, seed=5)
        with pytest.raises(NotStationaryError) as excinfo:
            PhaseBeat().process(trace)
        assert excinfo.value.state == "no_person"


class TestMultiPerson:
    @pytest.fixture(scope="class")
    def two_person_trace(self):
        persons = [
            Person(
                position=(0.8, 5.5, 1.0),
                breathing=SinusoidalBreathing(
                    frequency_hz=0.20, amplitude_m=3e-3
                ),
                heartbeat=None,
            ),
            Person(
                position=(3.8, 5.8, 1.0),
                breathing=SinusoidalBreathing(
                    frequency_hz=0.30, amplitude_m=3e-3, phase=1.0
                ),
                heartbeat=None,
            ),
        ]
        scenario = laboratory_scenario(persons, clutter_seed=6)
        return capture_trace(scenario, duration_s=60.0, seed=6)

    def test_root_music_resolves_both(self, two_person_trace):
        result = PhaseBeat().process(
            two_person_trace, n_persons=2, estimate_heart=False
        )
        rates = np.asarray(result.breathing_rates_bpm)
        assert rates.size == 2
        assert rates[0] == pytest.approx(12.0, abs=0.7)
        assert rates[1] == pytest.approx(18.0, abs=0.7)
        assert result.breathing[0].method == "root-music"

    def test_music_single_subcarrier_variant(self, two_person_trace):
        result = PhaseBeat().process(
            two_person_trace,
            n_persons=2,
            estimate_heart=False,
            breathing_method="music-single",
        )
        assert result.breathing[0].method == "root-music-1sc"

    def test_no_heart_for_multi_person(self, two_person_trace):
        result = PhaseBeat().process(
            two_person_trace, n_persons=2, estimate_heart=True
        )
        assert result.heart is None


def _first_two_chains(trace):
    return CSITrace(
        csi=trace.csi[:, :2, :],
        timestamps_s=trace.timestamps_s,
        sample_rate_hz=trace.sample_rate_hz,
        subcarrier_indices=trace.subcarrier_indices,
        meta={},
    )


class TestPairDiversity:
    def test_diversity_can_select_second_pair(self, lab_trace):
        # A 3-chain capture offers both adjacent pairs to selection; the
        # same capture cut to 2 chains has only pair (0, 1).
        with_div = PhaseBeat().process(lab_trace, estimate_heart=False)
        without = PhaseBeat().process(
            _first_two_chains(lab_trace), estimate_heart=False
        )
        assert without.diagnostics.selected_antenna_pair == (0, 1)
        assert with_div.diagnostics.selected_antenna_pair in [(0, 1), (1, 2)]

    def test_both_modes_estimate_correctly(self, lab_trace, lab_person):
        for trace in (lab_trace, _first_two_chains(lab_trace)):
            result = PhaseBeat().process(trace, estimate_heart=False)
            assert result.breathing_rates_bpm[0] == pytest.approx(
                lab_person.breathing_rate_bpm, abs=0.6
            )
