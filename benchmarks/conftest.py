"""Benchmark-suite helpers.

Each benchmark regenerates one figure of the paper's evaluation section:
it runs the corresponding experiment once (via the ``benchmark`` fixture so
``pytest benchmarks/ --benchmark-only`` drives it), prints the same
rows/series the paper reports, and asserts the qualitative *shape* — who
wins, by what rough factor, where crossovers fall.  Absolute numbers differ
from the paper's testbed; EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark fixture.

    Experiment functions are deterministic and expensive; a single round
    both times them and yields the result object for shape assertions.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def banner(title: str) -> None:
    """Print a section banner so the bench output reads as a report."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def write_bench_json(env_var: str, report: dict) -> None:
    """Write ``report`` as indented JSON to the path ``env_var`` names.

    Does nothing when ``env_var`` is unset; CI sets it to upload the
    report as an artifact.
    """
    out_path = os.environ.get(env_var)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")


def regression_gate(
    env_var: str,
    baseline_file: str,
    field: str,
    measured: float,
    *,
    higher_is_better: bool = True,
) -> None:
    """Under ``env_var=1``, fail if ``measured`` is over 20 % worse than
    the committed baseline.

    Args:
        env_var: The ``*_REGRESSION_GATE`` variable that switches the gate on.
        baseline_file: Committed ``BENCH_*.json`` at the repo root.
        field: Dotted key path of the baseline value in that file.
        measured: This run's value of the same field.
        higher_is_better: The value may fall to 0.8x the baseline if
            True, else rise to 1.2x.
    """
    if os.environ.get(env_var) != "1":
        return
    with open(_REPO_ROOT / baseline_file, encoding="utf-8") as fh:
        baseline = json.load(fh)
    for key in field.split("."):
        baseline = baseline[key]
    if higher_is_better:
        floor = 0.8 * baseline
        assert measured >= floor, (
            f"{field} {measured:.4g} regressed more than 20% below the "
            f"committed baseline {baseline:.4g} in {baseline_file} "
            f"(floor {floor:.4g})"
        )
    else:
        ceiling = 1.2 * baseline
        assert measured <= ceiling, (
            f"{field} {measured:.4g} regressed more than 20% above the "
            f"committed baseline {baseline:.4g} in {baseline_file} "
            f"(ceiling {ceiling:.4g})"
        )
