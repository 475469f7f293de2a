"""Robustness — supervised monitoring service under scripted chaos.

Not a paper figure: PhaseBeat's evaluation assumes an uninterrupted
capture process.  A deployed monitor also has to survive the *process*
failing — the capture tool crashing, the NIC stalling, the driver
throwing transient errors, the channel degrading — so this benchmark
replays each shipped single-subject chaos scenario through the
supervised service
(``repro.service``) and checks the recovery contract:

* the run ends healthy with the circuit breaker closed,
* fresh estimates resume after the last fault clears, and
* the post-recovery median breathing error stays within 0.5 bpm of the
  fault-free run on the same scene.

Each scenario's event log is also checked for the expected failure
signature (crash → restart, stall detection, breaker trip/probe/close,
fallback escalation/recovery) so a regression that silently skips the
recovery machinery cannot pass on accuracy alone.
"""

import pytest
from conftest import banner, run_once

from repro.service import SCENARIOS, run_chaos

TOLERANCE_BPM = 0.5

# One shared scene seed for every scenario.  The scene must be one whose
# clean tail is quiet enough that post-recovery error reflects recovery,
# not capture noise — seed 0's tail has intrinsic multi-bpm outliers that
# fail the budget even fault-free.
CHAOS_SEED = 2

# Event-order signatures: for each scenario, these kinds must all appear,
# in this relative order, in the faulted run's event log.
EXPECTED_ORDER = {
    "source-crash": ["source-crash", "source-restart"],
    "sustained-stall": ["stall-detected", "source-restart"],
    "transient-errors": ["breaker-open", "breaker-half-open",
                         "breaker-closed"],
    "degradation-burst": ["fallback-escalated", "fallback-recovered"],
    "learned-degradation-burst": ["fallback-escalated",
                                  "fallback-recovered"],
    "checkpoint-restore-loss": ["checkpoint", "monitor-crash",
                                "monitor-restart"],
}


def _assert_ordered(kinds, expected):
    cursor = -1
    for kind in expected:
        assert kind in kinds, f"missing event {kind!r}"
        index = kinds.index(kind, cursor + 1)
        cursor = index


# The shipped scenarios run_chaos drives; the fleet ones are
# benchmarks/test_fleet_chaos.py's.
SOLO = sorted(n for n, s in SCENARIOS.items() if not s.is_fleet)


@pytest.mark.parametrize("name", SOLO)
def test_service_chaos(benchmark, name):
    scenario = SCENARIOS[name]
    report = run_once(benchmark, run_chaos, scenario, seed=CHAOS_SEED)

    banner(f"Chaos — {name}")
    print(f"scenario: {scenario.description}")
    print(f"capture:  {report.trace_quality}")
    print(f"truth:    {report.truth_bpm:.2f} bpm")
    for event in report.events:
        print(f"  t={event.time_s:7.2f}s  {event.kind}")
    print(
        f"fault-free median error:    "
        f"{report.fault_free_median_error_bpm:.3f} bpm"
    )
    print(
        f"post-recovery median error: "
        f"{report.post_recovery_median_error_bpm:.3f} bpm "
        f"({report.n_post_recovery} fresh estimates after "
        f"t={report.recovery_horizon_s:.0f}s)"
    )
    print(
        f"claim: service recovers and holds post-recovery error within "
        f"{TOLERANCE_BPM} bpm of fault-free"
    )

    assert report.violations(tolerance_bpm=TOLERANCE_BPM) == []
    _assert_ordered(report.events.kinds(), EXPECTED_ORDER[name])
    if name == "checkpoint-restore-loss":
        # The restart must come back from the periodic checkpoint, not
        # cold — that is the incremental checkpoint→restore path this
        # scenario exists to exercise.
        restarts = [
            e for e in report.events if e.kind == "monitor-restart"
        ]
        assert restarts and all(e.detail["restored"] for e in restarts)
    if name == "learned-degradation-burst":
        # Escalation must land on the learned rung (not a classical
        # baseline) and the learned estimator must actually serve
        # estimates through the burst.
        escalations = [
            e for e in report.events if e.kind == "fallback-escalated"
        ]
        assert escalations[0].detail["to_method"] == "learned"
        assert any(e.method == "learned" for e in report.estimates)
    # The last breaker event, if any, must be a close — never leave the
    # service wedged open.
    breaker_kinds = [
        k for k in report.events.kinds() if k.startswith("breaker-")
    ]
    if breaker_kinds:
        assert breaker_kinds[-1] == "breaker-closed"
