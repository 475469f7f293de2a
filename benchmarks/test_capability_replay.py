"""Capability — faster-than-realtime replay backtesting.

The trace store exists so recorded fleets can be re-run offline; this
bench pins the replay-speed story.  The committed ``corpus/`` (three
20 s scenarios recorded at 30 Hz through the CLI) is replayed through
the full supervised monitor and diffed against its baselines, and the
headline number is

* **replay speedup** — recorded seconds digested per wall second.  The
  acceptance floor is 20x real time; the committed reference run shows
  far more.

Set ``REPLAY_BENCH_JSON=path`` to write the machine-readable report (CI
uploads it as an artifact).  Set ``REPLAY_REGRESSION_GATE=1`` to fail if
the speedup regresses more than 20 % below the committed
``BENCH_replay.json`` baseline at the repo root.
"""

import os
from pathlib import Path

from conftest import banner, regression_gate, write_bench_json

from repro.eval.reporting import format_table
from repro.store.backtest import run_backtest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_CORPUS_DIR = _REPO_ROOT / "corpus"
# Conservative in-test floor (the ISSUE's acceptance bar): replay must
# beat real time by 20x even on a noisy shared runner.
_MIN_SPEEDUP = 20.0


def test_capability_replay_backtest():
    report = run_backtest(str(_CORPUS_DIR), seed=0)

    n_cores = os.cpu_count() or 1
    result = {
        "config": {
            "corpus": "corpus",
            "n_scenarios": len(report.results),
            "n_records_total": sum(r.n_records for r in report.results),
            "recorded_s_total": sum(
                r.recorded_duration_s for r in report.results
            ),
        },
        "wall_s": sum(r.wall_s for r in report.results),
        "n_cores": n_cores,
        "speedup_ratio": report.overall_speedup_ratio,
        "per_scenario": {
            r.name: {
                "speedup_ratio": r.speedup_ratio,
                "median_bpm": r.median_bpm,
                "error_bpm": r.error_bpm,
                "n_estimates": r.n_estimates,
            }
            for r in report.results
        },
    }

    banner("Capability — corpus replay backtest (3 x 20 s @ 30 Hz)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["scenarios", len(report.results)],
                ["records replayed", result["config"]["n_records_total"]],
                ["recorded seconds", result["config"]["recorded_s_total"]],
                ["wall time (s)", result["wall_s"]],
                ["replay speedup (x real time)", report.overall_speedup_ratio],
            ],
        )
    )
    print(report.format_text())

    write_bench_json("REPLAY_BENCH_JSON", result)

    # Every committed scenario must replay cleanly and hit its baseline.
    assert report.passed, report.format_text()
    for r in report.results:
        assert r.salvage_clean, r.name
    assert report.overall_speedup_ratio >= _MIN_SPEEDUP, (
        f"replay ran at only {report.overall_speedup_ratio:.1f}x real time "
        f"(floor {_MIN_SPEEDUP:.0f}x)"
    )

    regression_gate(
        "REPLAY_REGRESSION_GATE",
        "BENCH_replay.json",
        "speedup_ratio",
        report.overall_speedup_ratio,
    )
