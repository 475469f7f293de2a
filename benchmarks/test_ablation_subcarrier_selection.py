"""Ablation — does MAD-based subcarrier selection actually matter?

The paper asserts (Section III-B3) that subcarriers differ in sensitivity
and selecting by MAD improves reliability, but never sweeps the choice.
This ablation estimates the breathing rate from (a) the selected
subcarrier, (b) the *least* sensitive subcarrier, and (c) every subcarrier
in turn (reporting the error spread), over several trials.

Subjects breathe quietly (2.5-3.5 mm chest amplitude): the paper's linear
small-signal theory — and its subcarrier-sensitivity narrative — applies in
that regime.  (At 5+ mm the phase nonlinearity inverts the picture: the
highest-MAD columns carry the most harmonic distortion, an effect the
original paper never encounters because its analysis is linear.)
"""

import numpy as np
from conftest import banner, run_once

from repro.core.breathing import peak_breathing_bpm
from repro.core.dwt_stage import decompose
from repro.core.pipeline import prepare_calibrated_matrix
from repro.core.subcarrier_selection import select_subcarrier
from repro.errors import EstimationError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def _run(n_trials: int = 10, base_seed: int = 700) -> dict:
    rows = {"selected": [], "worst": [], "all_spread": []}
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
        matrix, quality, sample_rate = prepare_calibrated_matrix(trace)
        selection = select_subcarrier(matrix, mask=quality)
        truth = person.breathing_rate_bpm

        def estimate(column: int) -> float:
            bands = decompose(matrix[:, column], sample_rate)
            try:
                return abs(
                    peak_breathing_bpm(bands.breathing, 20.0) - truth
                )
            except EstimationError:
                return truth  # unusable column scores accuracy 0

        rows["selected"].append(estimate(selection.selected))
        # Worst and per-column comparisons stay within the quality-gated
        # set — deep-faded (unwrap-unstable) columns are unusable for any
        # strategy and would only measure the gate, not the selection rule.
        eligible = np.flatnonzero(quality)
        worst = int(eligible[np.argmin(selection.sensitivities[eligible])])
        rows["worst"].append(estimate(worst))
        per_column = [estimate(int(c)) for c in eligible]
        rows["all_spread"].append(float(np.mean(per_column)))

    return {key: float(np.median(val)) for key, val in rows.items()}


def test_ablation_subcarrier_selection(benchmark):
    result = run_once(benchmark, _run)

    banner("Ablation — subcarrier selection (median |error|, bpm)")
    print(
        format_table(
            ["input series", "median error (bpm)"],
            [
                ["selected (top-k median MAD)", result["selected"]],
                ["least sensitive subcarrier", result["worst"]],
                ["average over all subcarriers", result["all_spread"]],
            ],
        )
    )

    # Shape: the selected subcarrier beats both the worst one and the
    # average over all columns.
    assert result["selected"] <= result["worst"] + 0.05
    assert result["selected"] <= result["all_spread"] + 0.05
    assert result["selected"] < 0.5
