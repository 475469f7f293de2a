"""Extension — TensorBeat (ref. [23]) vs root-MUSIC vs FFT.

The PhaseBeat authors' follow-up replaces root-MUSIC with Hankel-tensor CP
decomposition.  This bench runs all three multi-person estimators on the
same Fig. 8-style three-person captures (including the 0.025 Hz-close
pair) and compares worst-case per-person errors.
"""

import numpy as np
from conftest import banner, run_once

from repro import Person, SinusoidalBreathing, capture_trace, laboratory_scenario
from repro.core.breathing import fft_breathing_bpm, music_breathing_bpm
from repro.core.pipeline import prepare_calibrated_matrix
from repro.errors import EstimationError
from repro.eval.metrics import multi_person_errors
from repro.eval.reporting import format_table
from repro.extensions import tensorbeat_breathing_bpm

RATES_HZ = (0.1467, 0.2233, 0.2483)
POSITIONS = ((0.8, 5.5, 1.0), (2.2, 6.2, 1.0), (3.8, 5.8, 1.0))


def _run(n_trials: int = 4, base_seed: int = 1) -> dict:
    truth_bpm = 60.0 * np.asarray(RATES_HZ)
    worst = {"tensorbeat": [], "root_music": [], "fft": []}
    for k in range(n_trials):
        seed = base_seed + k
        persons = [
            Person(
                position=POSITIONS[i],
                heartbeat=None,
                breathing=SinusoidalBreathing(
                    frequency_hz=f, amplitude_m=3e-3, phase=0.7 * i
                ),
            )
            for i, f in enumerate(RATES_HZ)
        ]
        scenario = laboratory_scenario(persons, clutter_seed=seed)
        trace = capture_trace(scenario, duration_s=60.0, seed=seed)
        matrix, quality, rate = prepare_calibrated_matrix(trace)
        usable = matrix[:, quality] if quality.any() else matrix

        estimators = {
            "tensorbeat": tensorbeat_breathing_bpm,
            "root_music": music_breathing_bpm,
            "fft": fft_breathing_bpm,
        }
        for name, estimate_bpm in estimators.items():
            try:
                estimates = np.asarray(estimate_bpm(usable, rate, 3))
            except EstimationError:
                estimates = np.empty(0)
            worst[name].append(
                float(multi_person_errors(estimates, truth_bpm).max())
            )
    return {name: float(np.median(val)) for name, val in worst.items()}


def test_ext_tensorbeat_vs_music(benchmark):
    result = run_once(benchmark, _run)

    banner("Extension — TensorBeat vs root-MUSIC vs FFT (3 persons)")
    print(
        format_table(
            ["estimator", "median worst-person error (bpm)"],
            [
                ["TensorBeat (CP tensor)", result["tensorbeat"]],
                ["root-MUSIC (paper)", result["root_music"]],
                ["FFT", result["fft"]],
            ],
        )
    )
    print(
        "\nTensorBeat reads one frequency per CP component, avoiding both "
        "the FFT's Rayleigh limit and root-MUSIC's root-selection issues."
    )

    # Shape: both subspace/tensor methods resolve all three persons; FFT
    # fails on the close pair.  TensorBeat is competitive with root-MUSIC.
    assert result["tensorbeat"] < 1.0
    assert result["root_music"] < 1.0
    assert result["fft"] > 3.0
    assert result["tensorbeat"] <= result["root_music"] + 0.5
