"""Ablation — wavelet order and decomposition depth.

The paper fixes "the Daubechies (db) wavelet" at level 4 without comparing
alternatives.  This ablation sweeps db2/db4/db8 and levels 3/4/5 for
single-person breathing estimation.

Subjects breathe quietly (2.5-3.5 mm chest amplitude): the paper's linear
small-signal theory — and its subcarrier-sensitivity narrative — applies in
that regime.  (At 5+ mm the phase nonlinearity inverts the picture: the
highest-MAD columns carry the most harmonic distortion, an effect the
original paper never encounters because its analysis is linear.)
"""

import numpy as np
from conftest import banner, run_once

from repro.core.breathing import peak_breathing_bpm
from repro.core.dwt_stage import DWTConfig, decompose
from repro.core.pipeline import prepare_calibrated_matrix
from repro.core.subcarrier_selection import select_subcarrier
from repro.errors import EstimationError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def _run(n_trials: int = 8, base_seed: int = 740) -> dict:
    variants = {
        "db2/L4": DWTConfig(wavelet="db2", level=4),
        "db4/L4 (paper)": DWTConfig(wavelet="db4", level=4),
        "db8/L4": DWTConfig(wavelet="db8", level=4),
        "db4/L3": DWTConfig(wavelet="db4", level=3, heart_detail_levels=(2, 3)),
        "db4/L5": DWTConfig(wavelet="db4", level=5, heart_detail_levels=(4, 5)),
    }
    errors: dict = {name: [] for name in variants}
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
        column = select_subcarrier(matrix, mask=quality).selected
        series = matrix[:, column]
        truth = person.breathing_rate_bpm
        for name, config in variants.items():
            bands = decompose(series, sample_rate, config)
            try:
                rate = peak_breathing_bpm(
                    bands.breathing, bands.sample_rate_hz
                )
                errors[name].append(abs(rate - truth))
            except EstimationError:
                errors[name].append(truth)
    return {name: float(np.median(vals)) for name, vals in errors.items()}


def test_ablation_wavelet(benchmark):
    result = run_once(benchmark, _run)

    banner("Ablation — wavelet order / level (median breathing |error|, bpm)")
    print(
        format_table(
            ["variant", "median error (bpm)"],
            [[name, err] for name, err in result.items()],
        )
    )
    print(
        "\nlevel 4 puts the 0.17-0.62 Hz breathing band entirely inside "
        "alpha_L at a 20 Hz rate; level 5 clips fast breathers (alpha_5 "
        "tops out at 0.31 Hz), level 3 admits more noise."
    )

    paper = result["db4/L4 (paper)"]
    # Shape: the paper's choice is competitive (within 0.15 bpm of the best
    # variant) and accurate in absolute terms.
    best = min(result.values())
    assert paper <= best + 0.15
    assert paper < 0.5
    # Level 5 (breathing band clipped) must not beat the paper's level 4.
    assert result["db4/L5"] >= paper - 0.05
