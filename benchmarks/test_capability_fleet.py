"""Capability — fleet gateway scale: one thousand concurrent sessions.

The fleet layer exists so one process can monitor many subjects; this
bench pins the scale story.  A 1000-session fleet (round-robin over a
small trace pool, so simulation cost stays bounded) runs fault-free
through the gateway with fleet metrics on, and the headline numbers are

* **sessions / second** — whole sessions fully processed per wall second;
* **session-seconds / second** — aggregate simulated capture time
  digested per wall second (the fleet-level realtime factor: at 1000
  sessions of 24 s each, a factor of 1000 means every session runs in
  realtime simultaneously).

Set ``FLEET_BENCH_JSON=path`` to write the machine-readable report (CI
uploads it as an artifact).  Set ``FLEET_REGRESSION_GATE=1`` to fail if
throughput regresses more than 20 % below the committed
``BENCH_fleet.json`` baseline at the repo root.
"""

import os
import time

from conftest import banner, regression_gate, write_bench_json

from repro.eval.reporting import format_table
from repro.obs import MetricsRegistry
from repro.service.chaos import Scenario, run_fleet_chaos

_N_SESSIONS = 1000
_DURATION_S = 24.0
_SAMPLE_RATE_HZ = 50.0
_TRACE_POOL = 4
# Conservative in-test floor: the committed reference run shows far more;
# this only catches "the gateway stopped being able to run a fleet at
# all", not the exact number on a noisy shared runner.
_MIN_SESSION_SECONDS_PER_S = 50.0


def test_capability_fleet_1k_sessions():
    scenario = Scenario(
        name="fault-free", faults=(), description="capability run"
    )
    registry = MetricsRegistry()

    start = time.perf_counter()
    report = run_fleet_chaos(
        scenario,
        n_sessions=_N_SESSIONS,
        duration_s=_DURATION_S,
        sample_rate_hz=_SAMPLE_RATE_HZ,
        seed=0,
        trace_pool_size=_TRACE_POOL,
        registry=registry,
        check_isolation=False,
    )
    wall_s = time.perf_counter() - start

    n_cores = os.cpu_count() or 1
    sessions_per_s = _N_SESSIONS / wall_s
    session_seconds_per_s = _N_SESSIONS * _DURATION_S / wall_s
    summary = report.fleet_summary

    result = {
        "config": {
            "n_sessions": _N_SESSIONS,
            "duration_s": _DURATION_S,
            "sample_rate_hz": _SAMPLE_RATE_HZ,
            "trace_pool_size": _TRACE_POOL,
            "n_shards": summary["n_shards"],
        },
        "wall_s": wall_s,
        "n_cores": n_cores,
        "sessions_per_s": sessions_per_s,
        "sessions_per_core_s": sessions_per_s / n_cores,
        "session_seconds_per_s": session_seconds_per_s,
        "rounds": summary["rounds"],
        "n_estimates_total": report.n_estimates_total,
    }

    banner("Capability — 1000-session fleet (24 s @ 50 Hz each)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["sessions", _N_SESSIONS],
                ["wall time (s)", wall_s],
                ["sessions / second", sessions_per_s],
                ["sessions / core-second", sessions_per_s / n_cores],
                ["session-seconds / second", session_seconds_per_s],
                ["scheduling rounds", summary["rounds"]],
                ["estimates emitted", report.n_estimates_total],
            ],
        )
    )
    print("a factor of 1000 session-seconds/s means all 1000 sessions")
    print("run in realtime simultaneously on one core")

    write_bench_json("FLEET_BENCH_JSON", result)

    # Every session must complete; nothing is faulted, so nothing may be
    # shed or left degraded by fleet pressure.
    assert summary["by_status"]["finished"] == _N_SESSIONS
    assert summary["n_shed"] == 0
    assert report.violations() == []
    assert report.n_estimates_total > 0
    # Fleet observability was on and populated, labelled by shard only.
    assert '"fleet_sessions_active_count"' in report.metrics_json
    assert '"fleet_shard_queue_depth_packets"' in report.metrics_json
    assert session_seconds_per_s >= _MIN_SESSION_SECONDS_PER_S, (
        f"fleet digested only {session_seconds_per_s:.0f} session-seconds "
        f"per second (floor {_MIN_SESSION_SECONDS_PER_S:.0f})"
    )

    regression_gate(
        "FLEET_REGRESSION_GATE",
        "BENCH_fleet.json",
        "session_seconds_per_s",
        session_seconds_per_s,
    )
