"""Capability — apnea detection through the full RF chain.

Not a paper figure: the paper's introduction motivates sleep-disorder and
SIDS monitoring, whose signature is a breathing *pause*.  This bench scores
the envelope-threshold apnea detector on traces with scripted cessation
episodes: event recall, false-alarm count, and boundary timing error.
"""

import numpy as np
from conftest import banner, run_once

from repro import (
    Person,
    PhaseBeat,
    capture_trace,
    laboratory_scenario,
)
from repro.core import detect_apnea
from repro.eval.reporting import format_table
from repro.physio import ApneicBreathing, SinusoidalBreathing


def _run(n_trials: int = 6, base_seed: int = 900) -> dict:
    pipeline = PhaseBeat(enforce_stationarity=False)
    detected, missed, false_alarms = 0, 0, 0
    boundary_errors = []
    rng = np.random.default_rng(base_seed)
    for k in range(n_trials):
        seed = base_seed + k
        # One or two scripted apneas at randomized times/lengths.
        n_events = 1 + k % 2
        starts = sorted(rng.uniform(25.0, 85.0, size=n_events))
        events = []
        last_end = 0.0
        for start in starts:
            start = max(start, last_end + 15.0)
            duration = float(rng.uniform(11.0, 18.0))
            if start + duration > 110.0:
                break
            events.append((float(start), duration))
            last_end = start + duration
        if not events:
            events = [(40.0, 14.0)]

        sleeper = Person(
            position=(2.2, 3.0, 0.6),
            breathing=ApneicBreathing(
                base=SinusoidalBreathing(
                    frequency_hz=float(rng.uniform(0.2, 0.3))
                ),
                pauses_s=tuple(events),
            ),
            heartbeat=None,
        )
        scenario = laboratory_scenario([sleeper], clutter_seed=seed)
        trace = capture_trace(scenario, duration_s=120.0, seed=seed)
        result = pipeline.process(trace, estimate_heart=False)
        found = detect_apnea(
            result.breathing_signal, result.diagnostics.calibrated_rate_hz
        )

        matched = set()
        for start, duration in events:
            hit = None
            for i, event in enumerate(found):
                if i in matched:
                    continue
                overlap = min(event.end_s, start + duration) - max(
                    event.start_s, start
                )
                if overlap > 0.5 * duration:
                    hit = i
                    break
            if hit is None:
                missed += 1
            else:
                matched.add(hit)
                detected += 1
                boundary_errors.append(abs(found[hit].start_s - start))
                boundary_errors.append(
                    abs(found[hit].end_s - (start + duration))
                )
        false_alarms += len(found) - len(matched)
    total = detected + missed
    return {
        "recall": detected / total if total else 0.0,
        "n_events": total,
        "false_alarms": false_alarms,
        "median_boundary_error_s": float(np.median(boundary_errors))
        if boundary_errors
        else float("nan"),
    }


def test_capability_apnea(benchmark):
    result = run_once(benchmark, _run)

    banner("Capability — apnea detection (scripted cessations, full RF chain)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["scripted events", result["n_events"]],
                ["recall", result["recall"]],
                ["false alarms", result["false_alarms"]],
                ["median boundary error (s)", result["median_boundary_error_s"]],
            ],
        )
    )

    assert result["recall"] >= 0.8
    assert result["false_alarms"] <= max(2, result["n_events"] // 2)
    assert result["median_boundary_error_s"] < 3.0
