"""Ablation — input representation: phase difference vs raw phase vs |CSI|.

The paper's core claim: cross-antenna phase *difference* is the right input
— raw per-antenna phase is scrambled by per-packet hardware offsets
(Theorem 1 / Fig. 1), and amplitude is noisier (Fig. 11).  This ablation
runs the identical downstream pipeline on all three representations.

Subjects breathe quietly (2.5-3.5 mm chest amplitude): the paper's linear
small-signal theory — and its subcarrier-sensitivity narrative — applies in
that regime.  (At 5+ mm the phase nonlinearity inverts the picture: the
highest-MAD columns carry the most harmonic distortion, an effect the
original paper never encounters because its analysis is linear.)
"""

import numpy as np
from conftest import banner, run_once

from repro.baselines.amplitude import AmplitudeMethod
from repro.core.breathing import peak_breathing_bpm
from repro.core.calibration import calibrate
from repro.core.dwt_stage import decompose
from repro.core.phase_difference import phase_difference, raw_phase
from repro.core.pipeline import prepare_calibrated_matrix
from repro.core.subcarrier_selection import select_subcarrier
from repro.errors import EstimationError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def _pipeline_error(
    matrix: np.ndarray, rate_hz: float, truth: float, quality=None
) -> float:
    calibrated = calibrate(matrix, rate_hz)
    column = select_subcarrier(calibrated.series, mask=quality).selected
    bands = decompose(calibrated.series[:, column], calibrated.sample_rate_hz)
    try:
        rate = peak_breathing_bpm(
            bands.breathing, bands.sample_rate_hz
        )
    except EstimationError:
        return truth
    return min(abs(rate - truth), truth)


def _run(n_trials: int = 10, base_seed: int = 760) -> dict:
    errors = {"phase_difference": [], "raw_phase": [], "amplitude": []}
    for k in range(n_trials):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        person = default_subject(
            rng,
            with_heartbeat=False,
            breathing_amplitude_range_m=(2.5e-3, 3.5e-3),
        )
        scenario = laboratory_scenario([person], clutter_seed=seed)
        trace = capture_trace(scenario, duration_s=30.0, seed=seed)
        truth = person.breathing_rate_bpm

        # Phase difference gets the full front end (pair diversity +
        # quality gating), exactly as the pipeline runs it.
        matrix, quality, sample_rate = prepare_calibrated_matrix(trace)
        column = select_subcarrier(matrix, mask=quality).selected
        bands = decompose(matrix[:, column], sample_rate)
        try:
            rate = peak_breathing_bpm(
                bands.breathing, bands.sample_rate_hz
            )
            errors["phase_difference"].append(min(abs(rate - truth), truth))
        except EstimationError:
            errors["phase_difference"].append(truth)
        errors["raw_phase"].append(
            _pipeline_error(
                np.unwrap(raw_phase(trace), axis=0), 400.0, truth
            )
        )
        errors["amplitude"].append(
            min(
                abs(
                    AmplitudeMethod().estimate_breathing_bpm(trace) - truth
                ),
                truth,
            )
        )
    return {
        key: {
            "median": float(np.median(val)),
            "p90": float(np.percentile(val, 90)),
        }
        for key, val in errors.items()
    }


def test_ablation_phase_vs_amplitude(benchmark):
    result = run_once(benchmark, _run)

    banner("Ablation — input representation (breathing |error|, bpm)")
    print(
        format_table(
            ["input", "median", "p90"],
            [
                [
                    "phase difference (paper)",
                    result["phase_difference"]["median"],
                    result["phase_difference"]["p90"],
                ],
                [
                    "raw single-antenna phase",
                    result["raw_phase"]["median"],
                    result["raw_phase"]["p90"],
                ],
                [
                    "CSI amplitude",
                    result["amplitude"]["median"],
                    result["amplitude"]["p90"],
                ],
            ],
        )
    )
    print(
        "\nraw phase carries the per-packet PBD/SFO/CFO scramble (Fig. 1); "
        "amplitude carries the per-packet AGC gain jitter.  As in the "
        "paper\'s Fig. 11, phase and amplitude share similar medians — "
        "the phase difference wins in the tail."
    )

    # Shape: raw phase is catastrophically worse than phase difference;
    # phase difference stays usable; the medians of phase and amplitude
    # are comparable (the paper\'s observation) while the unusable raw
    # phase dwarfs both.
    assert result["phase_difference"]["median"] < 1.0
    assert (
        result["raw_phase"]["median"]
        > 3 * result["phase_difference"]["median"]
    )
    assert (
        result["raw_phase"]["median"] > 3 * result["amplitude"]["median"]
    )
