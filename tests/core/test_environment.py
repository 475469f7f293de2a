"""Unit tests for environment detection (Eq. 8)."""

import dataclasses

import numpy as np
import pytest

from repro.core.environment import (
    STATIONARY_BAND,
    classify_v,
    classify_windows,
    v_statistic,
    windowed_v,
)
from repro.core.phase_difference import phase_difference
from repro.errors import ConfigurationError
from repro.physio.motion import ActivityScript, ActivityState
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def is_stationary(phase_diff):
    """Whole-segment decision: V of the full segment inside the band."""
    return classify_v(v_statistic(phase_diff)) is ActivityState.SITTING


class TestVStatistic:
    def test_constant_input_is_zero(self):
        assert v_statistic(np.ones((100, 30))) == 0.0

    def test_sine_value(self):
        t = np.arange(400) / 20.0
        x = np.sin(2 * np.pi * 0.25 * t)[:, None] * np.ones((1, 30))
        # MAD of a sine is 2A/π.
        assert v_statistic(x) == pytest.approx(2 / np.pi, rel=0.02)

    def test_robust_to_single_broken_subcarrier(self):
        # One random-walking column must not move the (median-based) V.
        rng = np.random.default_rng(0)
        clean = 0.1 * np.sin(
            2 * np.pi * 0.25 * np.arange(400)[:, None] / 20.0
        ) * np.ones((1, 30))
        broken = clean.copy()
        broken[:, 7] = np.cumsum(rng.normal(size=400))
        assert v_statistic(broken) == pytest.approx(v_statistic(clean), rel=0.05)

    def test_1d_input_accepted(self):
        assert v_statistic(np.ones(50)) == 0.0


class TestWindowedV:
    def test_window_count(self):
        x = np.zeros((400, 3))
        centers, v = windowed_v(x, 100.0)
        assert centers.size == v.size == 3
        assert centers[0] == pytest.approx(1.0)

    def test_segment_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            windowed_v(np.zeros((10, 3)), 100.0)

    def test_detects_local_motion_burst(self):
        # At 50 Hz the burst spans 8-12 s; the 2 s windows touching it are
        # centred inside (7, 13) s.
        rng = np.random.default_rng(1)
        x = 0.05 * rng.normal(size=(1200, 5))
        x[400:600] += np.cumsum(rng.normal(size=(200, 5)), axis=0)
        centers, v = windowed_v(x, 50.0)
        burst = (centers > 7.0) & (centers < 13.0)
        assert v[burst].mean() > 5 * v[~burst].mean()


class TestClassifyWindows:
    def test_three_way_split(self):
        states = classify_windows(np.array([0.01, 0.5, 5.0]))
        assert states[0] is ActivityState.NO_PERSON
        assert states[1] is ActivityState.SITTING
        assert states[2] is ActivityState.WALKING

    def test_scalar_rule_matches_windows_and_detector(self, rng):
        assert STATIONARY_BAND == (0.05, 1.0)
        values = [0.0, 0.049, 0.05, 0.5, 1.0, 1.001, 7.0]
        expected = (
            [ActivityState.NO_PERSON] * 2
            + [ActivityState.SITTING] * 3
            + [ActivityState.WALKING] * 2
        )
        assert [classify_v(v) for v in values] == expected
        assert list(classify_windows(np.array(values))) == expected
        # V of unit-normal columns is about 0.8 times the scale.
        for scale, stationary in [(1e-3, False), (0.3, True), (50.0, False)]:
            x = scale * rng.normal(size=(400, 4))
            assert is_stationary(x) is stationary

    def test_nan_sample_is_never_stationary(self, rng):
        """One NaN in an otherwise stationary 400 Hz, 20 s matrix."""
        from repro.core.pipeline import PhaseBeat

        x = 0.3 * rng.normal(size=(8000, 30))
        assert is_stationary(x)
        x[4000, 7] = np.nan
        assert classify_v(v_statistic(x)) is ActivityState.NO_PERSON
        _, v = windowed_v(x, 400.0)
        states = classify_windows(v)
        assert np.isnan(v).any()
        assert all(
            state is not ActivityState.SITTING
            for state, value in zip(states, v)
            if np.isnan(value)
        )
        assert not is_stationary(x)
        _, state = PhaseBeat().classify_environment(x, 400.0)
        assert state is not ActivityState.SITTING

    def test_band_edges_are_stationary(self):
        states = classify_windows(np.array(STATIONARY_BAND))
        assert all(s is ActivityState.SITTING for s in states)


class TestDetectorOnSimulatedStates(object):
    @pytest.fixture(scope="class")
    def fig3_trace(self):
        scenario = dataclasses.replace(
            laboratory_scenario(clutter_seed=1),
            activity=ActivityScript.figure3_script(seed=1),
        )
        return capture_trace(scenario, duration_s=60.0, seed=1)

    def test_segment_classification(self, fig3_trace):
        diff = phase_difference(fig3_trace)
        centers, v = windowed_v(diff, 400.0)
        states = classify_windows(v)
        script = ActivityScript.figure3_script(seed=1)

        def dominant_state(lo, hi):
            mask = (centers >= lo) & (centers < hi)
            values, counts = np.unique(
                [s.value for s in states[mask]], return_counts=True
            )
            return values[np.argmax(counts)]

        assert dominant_state(2.0, 13.0) == "sitting"
        assert dominant_state(17.0, 28.0) == "no_person"
        assert dominant_state(42.0, 58.0) == "walking"

    def test_is_stationary_on_pure_sitting(self, lab_trace):
        assert is_stationary(phase_difference(lab_trace))
