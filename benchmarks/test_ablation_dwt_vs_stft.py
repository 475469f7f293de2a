"""Ablation — DWT vs STFT band splitting (paper Section III-B4 claim).

The paper asserts the DWT beats the FFT/STFT because it gives "optimal
resolution both in the time and frequency domains".  This ablation runs the
identical downstream estimators on breathing/heart bands produced by (a)
the paper's level-4 DWT and (b) an STFT band-pass with the same nominal
bands, over the same captures.

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
from repro.dsp.stft import stft_bandpass
from repro.errors import EstimationError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def _run(n_trials: int = 10, base_seed: int = 780) -> dict:
    errors = {"dwt": [], "stft": []}
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
        matrix, quality, rate = prepare_calibrated_matrix(trace)
        column = select_subcarrier(matrix, mask=quality).selected
        series = matrix[:, column]
        truth = person.breathing_rate_bpm

        bands = decompose(series, rate)
        stft_breathing = stft_bandpass(series, rate, (0.05, 0.625))

        for name, signal in (("dwt", bands.breathing), ("stft", stft_breathing)):
            try:
                estimate = peak_breathing_bpm(signal, rate)
                errors[name].append(min(abs(estimate - truth), truth))
            except EstimationError:
                errors[name].append(truth)
    return {name: float(np.median(vals)) for name, vals in errors.items()}


def test_ablation_dwt_vs_stft(benchmark):
    result = run_once(benchmark, _run)

    banner("Ablation — DWT vs STFT breathing-band split (median |error|, bpm)")
    print(
        format_table(
            ["band splitter", "median error (bpm)"],
            [
                ["DWT approximation alpha_4 (paper)", result["dwt"]],
                ["STFT band-pass 0.05-0.625 Hz", result["stft"]],
            ],
        )
    )
    print(
        "\nboth isolate the breathing band; the DWT needs no window-length "
        "choice and its dyadic split aligns with the paper's 20 Hz chain."
    )

    # Shape: the paper's DWT choice is at least competitive with the STFT
    # alternative, and plainly accurate.
    assert result["dwt"] <= result["stft"] + 0.1
    assert result["dwt"] < 0.5
