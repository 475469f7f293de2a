"""Extension — complex CSI ratio vs phase difference (null-point tails).

The phase difference discards the magnitude half of the cross-antenna
quotient; at phase-null operating points the breathing fundamental then
vanishes and the estimate can lock onto a harmonic.  The FarSense-style
complex-ratio estimator projects the full complex fluctuation on its
principal axis and keeps working there.  This bench compares error
distributions over the same randomized lab trials as Fig. 11.
"""

import numpy as np
from conftest import banner, run_once

from repro import PhaseBeat, capture_trace
from repro.errors import EstimationError, NotStationaryError
from repro.eval.harness import default_subject
from repro.eval.reporting import format_table
from repro.extensions import CsiRatioEstimator
from repro.rf.scene import laboratory_scenario


def _run(n_trials: int = 20, base_seed: int = 100) -> dict:
    pipeline = PhaseBeat(enforce_stationarity=False)
    ratio = CsiRatioEstimator()
    errors = {"phase_difference": [], "csi_ratio": []}
    for k in range(n_trials):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        person = default_subject(rng, with_heartbeat=False)
        scenario = laboratory_scenario([person], clutter_seed=seed)
        trace = capture_trace(scenario, duration_s=30.0, seed=seed)
        truth = person.breathing_rate_bpm
        for label, call in (
            (
                "phase_difference",
                lambda: pipeline.process(
                    trace, estimate_heart=False
                ).breathing_rates_bpm[0],
            ),
            ("csi_ratio", lambda: ratio.estimate_breathing_bpm(trace)),
        ):
            try:
                errors[label].append(min(abs(call() - truth), truth))
            except (EstimationError, NotStationaryError):
                errors[label].append(truth)
    return {
        label: {
            "median": float(np.median(values)),
            "p90": float(np.percentile(values, 90)),
            "max": float(np.max(values)),
        }
        for label, values in errors.items()
    }


def test_ext_csi_ratio(benchmark):
    result = run_once(benchmark, _run)

    banner("Extension — CSI ratio vs phase difference (20 lab trials, bpm)")
    print(
        format_table(
            ["method", "median", "p90", "max"],
            [
                [
                    label,
                    stats["median"],
                    stats["p90"],
                    stats["max"],
                ]
                for label, stats in result.items()
            ],
        )
    )
    print(
        "\nthe complex ratio keeps the magnitude observable, so phase-null "
        "operating points (the phase method's worst trials) stay usable."
    )

    phase = result["phase_difference"]
    ratio = result["csi_ratio"]
    # Both methods are accurate at the median; the ratio's worst case is
    # no worse than the phase method's (null-point robustness).
    assert phase["median"] < 0.5
    assert ratio["median"] < 0.8
    assert ratio["max"] <= phase["max"] + 0.5
