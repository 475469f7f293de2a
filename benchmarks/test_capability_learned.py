"""Capability — the learned track beating classical under heavy impairment.

The learned estimator exists for the regimes where the classical
phase-difference chain degrades: long through-wall paths with compound
channel damage (packet loss, timestamp jitter, impulsive bursts, nulled
subcarriers).  This bench trains the shipped model family from the RF
simulator and runs a *paired* head-to-head — every trial's capture is
shared between methods — on exactly that regime, plus the apnea-presence
capability the classical chain does not have at all:

* **learned margin** — classical median |error| minus learned median
  |error| (bpm) on the heavy through-wall scenario.  The acceptance bar
  is a positive margin of at least 0.5 bpm with the learned median under
  3.5 bpm; the committed reference run shows ~1.9 bpm.
* **apnea accuracy** — held-out classification accuracy of the apnea
  head, which must beat both a 0.75 floor and the majority-class rate.

Set ``LEARN_BENCH_JSON=path`` to write the machine-readable report (CI
uploads it as an artifact).  Set ``LEARN_REGRESSION_GATE=1`` to fail if
the learned median error regresses more than 20 % above the committed
``BENCH_learn.json`` baseline at the repo root.
"""

import numpy as np
import pytest
from conftest import banner, regression_gate, run_once, write_bench_json

from repro.eval.harness import default_subject, run_breathing_trials
from repro.eval.reporting import format_table
from repro.learn import LearnedEstimator, TrainingConfig, generate_corpus, train
from repro.physio.person import Person
from repro.rf.impairments import heavy_impairments
from repro.rf.scene import through_wall_scenario


# Acceptance bars (see docs/learned.md): the learned head must beat the
# classical chain by a measurable margin on the heavy scenario, and the
# apnea head must beat both an absolute floor and the base rate.
_MIN_MARGIN_BPM = 0.5
_MAX_LEARNED_MEDIAN_BPM = 3.5
_MIN_APNEA_ACCURACY = 0.75

_N_TRIALS = 12
_TRIAL_SEED = 777
_DURATION_S = 30.0
_SAMPLE_RATE_HZ = 50.0


@pytest.fixture(scope="module")
def bundle():
    """One RF-trained bundle shared by every test in this module."""
    return train(TrainingConfig(mode="rf", n_windows=200, seed=0, with_mlp=True))


def _scenario_factory(k, rng):
    subject = default_subject(rng, with_heartbeat=False)
    person = Person(
        position=(2.5, 0.8, 1.0),
        breathing=subject.breathing,
        heartbeat=None,
    )
    return through_wall_scenario(
        6.5, [person], wall_loss_db=10.0, clutter_seed=_TRIAL_SEED + k
    )


def test_capability_learned_through_wall(benchmark, bundle):
    learned = LearnedEstimator(bundle)
    results = run_once(
        benchmark,
        run_breathing_trials,
        _scenario_factory,
        _N_TRIALS,
        duration_s=_DURATION_S,
        sample_rate_hz=_SAMPLE_RATE_HZ,
        methods=("phasebeat", "learned"),
        base_seed=_TRIAL_SEED,
        learned=learned,
        impairments_factory=lambda k, rng: heavy_impairments(),
    )

    summary = {}
    for method in ("phasebeat", "learned"):
        errors = results.errors(method)
        summary[method] = {
            "median_error_bpm": float(np.median(errors)),
            "mean_error_bpm": float(np.mean(errors)),
            "failure_rate": results.failure_rate(method),
        }
    margin = (
        summary["phasebeat"]["median_error_bpm"]
        - summary["learned"]["median_error_bpm"]
    )
    result = {
        "config": {
            "scenario": "through-wall 6.5 m / 10 dB wall",
            "impairments": "loss 0.4 + jitter 8 ms + impulses 5% x12 + 8 nulls",
            "n_trials": _N_TRIALS,
            "duration_s": _DURATION_S,
            "sample_rate_hz": _SAMPLE_RATE_HZ,
            "train": {"mode": "rf", "n_windows": 200, "seed": 0},
        },
        "train_mae_bpm": float(bundle.meta["train_mae_bpm"]),
        "methods": summary,
        "margin_bpm": margin,
    }

    banner("Capability — learned vs classical, heavy through-wall")
    print(
        format_table(
            ["method", "median |err| (bpm)", "mean |err| (bpm)", "failures"],
            [
                [
                    method,
                    row["median_error_bpm"],
                    row["mean_error_bpm"],
                    row["failure_rate"],
                ]
                for method, row in summary.items()
            ],
        )
    )
    print(
        f"claim: the learned head beats the classical chain by >= "
        f"{_MIN_MARGIN_BPM} bpm median on the heavy scenario "
        f"(measured margin {margin:+.2f} bpm)"
    )

    write_bench_json("LEARN_BENCH_JSON", result)

    learned_median = summary["learned"]["median_error_bpm"]
    assert margin >= _MIN_MARGIN_BPM, (
        f"learned margin {margin:+.2f} bpm below the {_MIN_MARGIN_BPM} bpm "
        f"acceptance bar"
    )
    assert learned_median <= _MAX_LEARNED_MEDIAN_BPM, (
        f"learned median error {learned_median:.2f} bpm above the "
        f"{_MAX_LEARNED_MEDIAN_BPM} bpm ceiling"
    )
    assert summary["learned"]["failure_rate"] == 0.0

    regression_gate(
        "LEARN_REGRESSION_GATE",
        "BENCH_learn.json",
        "methods.learned.median_error_bpm",
        learned_median,
        higher_is_better=False,
    )


def test_capability_learned_apnea(benchmark, bundle):
    # Held-out labelled corpus from a seed disjoint from training.
    corpus = run_once(
        benchmark,
        generate_corpus,
        TrainingConfig(mode="rf", n_windows=64, seed=4321),
    )
    probabilities = bundle.apnea_model.predict_probability(corpus.features)
    labels = corpus.apnea_labels
    predictions = (probabilities >= 0.5).astype(float)
    accuracy = float((predictions == labels).mean())
    base_rate = float(max(labels.mean(), 1.0 - labels.mean()))

    banner("Capability — apnea-presence head (held-out)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["eval windows", len(labels)],
                ["apneic windows", int(labels.sum())],
                ["accuracy", accuracy],
                ["majority-class rate", base_rate],
            ],
        )
    )
    print(
        "claim: the apnea head classifies held-out windows above the "
        f"{_MIN_APNEA_ACCURACY:.2f} floor and the base rate — a capability "
        "the classical chain does not have"
    )

    assert bundle.apnea_model is not None
    assert accuracy >= _MIN_APNEA_ACCURACY, accuracy
    assert accuracy > base_rate, (accuracy, base_rate)
