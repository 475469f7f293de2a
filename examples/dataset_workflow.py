"""Dataset workflow: build a labelled corpus once, evaluate many times.

The paper's evaluation ran four subjects over three months; the equivalent
here is a reproducible on-disk corpus of simulated captures.  This example
generates a small corpus, reloads it, and scores PhaseBeat against the
stored ground truth — the pattern to use for heavier, repeatable studies.

Run:
    python examples/dataset_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import PhaseBeat
from repro.eval.harness import default_subject
from repro.eval.metrics import empirical_cdf
from repro.io_.dataset import TraceDataset, generate_dataset
from repro.rf.scene import laboratory_scenario


def scenario_factory(k: int, rng: np.random.Generator):
    return laboratory_scenario(
        [default_subject(rng, with_heartbeat=False)], clutter_seed=100 + k
    )


def main() -> None:
    root = Path(tempfile.mkdtemp()) / "phasebeat-corpus"
    print(f"generating 6-trace corpus under {root} ...")
    generate_dataset(
        root,
        scenario_factory,
        6,
        duration_s=30.0,
        base_seed=100,
    )

    # A fresh process would start here: reload purely from disk.
    dataset = TraceDataset(root)
    print(f"reloaded {len(dataset)} traces from the index\n")

    pipeline = PhaseBeat(enforce_stationarity=False)
    errors = []
    print(f"{'trace':>10} {'truth':>8} {'estimate':>9} {'error':>7}")
    for entry in dataset:
        trace = dataset.load_trace(entry)
        truth = entry.breathing_rates_bpm[0]
        result = pipeline.process(trace, estimate_heart=False)
        estimate = result.breathing_rates_bpm[0]
        errors.append(abs(estimate - truth))
        print(
            f"{entry.filename:>10} {truth:>8.2f} {estimate:>9.2f} "
            f"{errors[-1]:>7.3f}"
        )

    x, p = empirical_cdf(np.asarray(errors))
    print(f"\nmedian error: {np.median(errors):.3f} bpm")
    print("error CDF points:", [f"{v:.2f}@{q:.2f}" for v, q in zip(x, p)])


if __name__ == "__main__":
    main()
