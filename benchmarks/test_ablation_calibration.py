"""Ablation — what does the Hampel calibration contribute?

The paper motivates detrending (DC "affects subcarrier selection, peak
detection, and FFT frequency estimation") and denoising, but never runs the
pipeline without them.  This ablation feeds the breathing estimator with
(a) fully calibrated data, (b) decimated-but-raw data (no Hampel at all),
and (c) detrended-but-not-denoised data, reporting *median* errors over the
trials (single null-point trials would otherwise dominate a mean).

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
from repro.core.phase_difference import phase_difference
from repro.core.pipeline import prepare_calibrated_matrix
from repro.core.subcarrier_selection import select_subcarrier
from repro.dsp.hampel import hampel_filter
from repro.dsp.resample import decimate
from repro.errors import EstimationError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.rf.receiver import capture_trace
from repro.rf.scene import laboratory_scenario


def _estimate_from(series: np.ndarray, truth: float) -> float:
    bands = decompose(series, 20.0)
    try:
        rate = peak_breathing_bpm(bands.breathing, 20.0)
    except EstimationError:
        return truth
    return min(abs(rate - truth), truth)


def _run(n_trials: int = 10, base_seed: int = 720) -> dict:
    errors = {"full": [], "raw": [], "detrend_only": []}
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

        # (a) Full calibration (both pairs, quality-gated selection).
        matrix, quality, _ = prepare_calibrated_matrix(trace)
        column = select_subcarrier(matrix, mask=quality).selected
        errors["full"].append(_estimate_from(matrix[:, column], truth))

        # The remaining variants reuse the same selected column so the
        # ablation isolates the preprocessing, not the selection.
        pair = (0, 1) if column < trace.n_subcarriers else (1, 2)
        col = phase_difference(trace, pair)[:, column % trace.n_subcarriers]

        # (b) No Hampel at all: plain 20x decimation of the raw series.
        raw = decimate(col - col.mean(), 20)
        errors["raw"].append(_estimate_from(raw, truth))

        # (c) Detrend only (no denoising before decimation).
        trend = hampel_filter(col, min(2000, col.size), 0.01)
        detrended = decimate(col - trend, 20)
        errors["detrend_only"].append(_estimate_from(detrended, truth))
    return {key: float(np.median(val)) for key, val in errors.items()}


def test_ablation_calibration(benchmark):
    result = run_once(benchmark, _run)

    banner("Ablation — calibration stages (median |error|, bpm)")
    print(
        format_table(
            ["preprocessing", "median error (bpm)"],
            [
                ["detrend + denoise + downsample (paper)", result["full"]],
                ["detrend + downsample only", result["detrend_only"]],
                ["downsample only (no Hampel)", result["raw"]],
            ],
        )
    )

    # Shape: the full chain is at least as good as the partial ones, and
    # plainly usable on its own.
    assert result["full"] <= result["raw"] + 0.05
    assert result["full"] <= result["detrend_only"] + 0.05
    assert result["full"] < 0.5
