"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-400hz --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of timed passes; ``--trace 1``
prints per-layer metrics from a traced pass.  The last line of standard
output is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics":
{...}}``; a broken correctness rule prints ``"correct": false`` and exits
with status 1.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2.

Before numpy is imported the process re-executes itself with
``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread, so every run is one
single-threaded process with the same hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Repeats the keys of perfbench.workloads.WORKLOADS: that module imports
# numpy, which has to wait until the environment is pinned.
WORKLOAD_NAMES = ("fleet-400hz", "solo-lossy", "fleet-record-20hz")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _pin_environment(argv: list[str]) -> None:
    """Re-execute under the pinned environment unless already in it."""
    if all(os.environ.get(k) == v for k, v in _PINNED_ENV.items()):
        return
    env = dict(os.environ)
    env.update(_PINNED_ENV)
    script = str(Path(__file__).resolve())
    os.execve(sys.executable, [sys.executable, script, *argv], env)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _pin_environment(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(src), str(ROOT)]

    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from perfbench.harness import timed_run, traced_run
    from perfbench.stats import BenchError
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics = traced_run(spec, args.seed, ROOT)
            n_passes = 1
        else:
            metrics, n_passes = timed_run(spec, args.seed, args.seconds, ROOT)
    except BenchError as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        _emit(False, spec.n_sessions, spec.n_sessions, {})
        return 1
    # One operation is one session carried through one measured pass.
    _emit(True, spec.n_sessions * n_passes, 0, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
