"""Robustness — the fleet gateway under fleet-scale chaos.

Not a paper figure: PhaseBeat monitors one subject per capture.  A
deployment serves *fleets* of sessions through one gateway, and faults
there are correlated — a worker shard dies, a backlog floods in, a
consumer slows down, several upstreams vanish together.  This benchmark
replays every shipped fleet scenario through :mod:`repro.service.fleet`
and checks the three fleet invariants:

* **isolation** — unfaulted sessions' estimate streams stay byte-identical
  to a solo run of the same trace (identity fields excluded);
* **recovery** — faulted, non-shed sessions emit fresh estimates again by
  the recovery horizon (judged against their fault-free solo baseline);
* **bounded shedding** — the gateway never sheds past its budget, and when
  it must shed it walks the pressure ladder (throttle → degrade → shed)
  rather than killing sessions outright.

A 100-session acceptance run and a same-seed byte-reproducibility check
pin the scale story; a tightened-budget run proves the shed ladder honours
an explicit cap and sheds lowest-priority sessions first.
"""

import pytest
from conftest import banner, run_once

from repro.obs import MetricsRegistry
from repro.service.chaos import SCENARIOS, run_fleet_chaos
from repro.service.fleet import FleetConfig

# Event kinds that must appear in each scenario's fleet event log — a
# regression that silently skips the fault path cannot pass on the
# invariants alone.
EXPECTED_KINDS = {
    "shard-crash": {"shard-crash", "monitor-crash", "monitor-restart"},
    "ingest-burst": {"session-throttled", "session-degraded"},
    "slow-consumer": {
        "session-throttled",
        "session-degraded",
        "session-pressure-recovered",
    },
    "correlated-source-loss": {"session-finished"},
    "overload-shed": {
        "session-throttled",
        "session-degraded",
        "session-shed",
    },
    "record-crash-resume": {"recorder-crash", "session-finished"},
}


# The shipped scenarios run_fleet_chaos drives; the single-subject ones are
# benchmarks/test_service_chaos.py's.
FLEET = sorted(n for n, s in SCENARIOS.items() if s.is_fleet)


def test_every_scenario_has_expected_kinds():
    """A new fleet scenario must name the events its fault path emits."""
    assert sorted(EXPECTED_KINDS) == FLEET


@pytest.mark.parametrize("name", FLEET)
def test_fleet_chaos(benchmark, name):
    scenario = SCENARIOS[name]
    registry = MetricsRegistry()
    report = run_once(
        benchmark,
        run_fleet_chaos,
        scenario,
        n_sessions=12,
        seed=0,
        registry=registry,
    )

    banner(f"Fleet chaos — {name}")
    print(f"scenario: {scenario.description}")
    summary = report.fleet_summary
    print(
        f"fleet:    {summary['n_sessions']} sessions / "
        f"{summary['n_shards']} shards, {summary['rounds']} rounds"
    )
    print(f"status:   {summary['by_status']}")
    print(
        f"faulted:  {len(report.faulted_ids)}, shed "
        f"{len(report.shed_ids)}/{report.max_shed_sessions}, "
        f"queue drops {summary['n_queue_dropped']}"
    )
    print(f"estimates: {report.n_estimates_total}")
    print("claim: unfaulted sessions are byte-identical to solo runs; "
          "faulted ones recover or are shed within budget")

    assert report.violations() == []
    kinds = set(report.events.kinds())
    missing = EXPECTED_KINDS[name] - kinds
    assert not missing, f"missing fleet events {sorted(missing)}"
    if name == "overload-shed":
        # Degradation must precede shedding for every shed session.
        for sid in report.shed_ids:
            session_kinds = [
                e.kind for e in report.events if e.subject == sid
            ]
            assert session_kinds.index(
                "session-degraded"
            ) < session_kinds.index("session-shed")


def test_fleet_shed_budget_is_a_hard_cap():
    """A tightened budget sheds exactly that many, lowest priority first.

    The overload scenario drives six sessions to shed-eligibility but the
    budget only covers three.  The gateway must stop at three (lowest
    priority first) — and the report must honestly flag the unprotected
    survivors as unrecovered rather than pretending the budget had no
    cost.
    """
    config = FleetConfig(max_shed_sessions=3)
    report = run_fleet_chaos(
        SCENARIOS["overload-shed"],
        n_sessions=12,
        seed=0,
        fleet_config=config,
        check_isolation=False,
    )

    banner("Fleet chaos — shed budget cap")
    print(f"shed {len(report.shed_ids)}/3 budget: {list(report.shed_ids)}")
    print(f"unprotected survivors: {list(report.unrecovered_ids)}")

    assert len(report.shed_ids) == 3
    assert "shed-over-budget" not in report.violations()
    # Priorities cycle 0/1/2 over the 6 targeted sessions; the three shed
    # must all come from the lowest priorities present.
    shed_priorities = sorted(
        int(sid[-4:]) % 3 for sid in report.shed_ids
    )
    assert shed_priorities == [0, 0, 1]
    # The targeted sessions the budget could not protect kept their
    # flooded queues and are reported unrecovered — the report does not
    # hide the cost of capping protective shedding.  (A session whose
    # trace never recovers even fault-free is excused by its baseline.)
    unprotected = set(report.faulted_ids) - set(report.shed_ids)
    assert set(report.unrecovered_ids) <= unprotected
    assert len(report.unrecovered_ids) >= 2


def test_fleet_100_sessions_shard_crash_acceptance(benchmark):
    """The acceptance-scale run: 100 sessions, one shard dies."""
    registry = MetricsRegistry()
    report = run_once(
        benchmark,
        run_fleet_chaos,
        SCENARIOS["shard-crash"],
        n_sessions=100,
        seed=0,
        registry=registry,
    )

    banner("Fleet chaos — 100-session shard crash")
    summary = report.fleet_summary
    print(f"status:  {summary['by_status']}")
    print(
        f"faulted: {len(report.faulted_ids)} on the crashed shard; "
        f"estimates {report.n_estimates_total}"
    )

    assert report.violations() == []
    assert summary["by_status"]["finished"] == 100
    assert len(report.faulted_ids) >= 100 // 8


def test_fleet_runs_are_byte_reproducible():
    """Same seed, same scenario → identical event log and metrics."""
    reports = [
        run_fleet_chaos(
            SCENARIOS["shard-crash"],
            n_sessions=12,
            seed=42,
            registry=MetricsRegistry(),
            check_isolation=False,
        )
        for _ in range(2)
    ]

    banner("Fleet chaos — byte reproducibility")
    print(f"event log: {len(reports[0].events)} events")
    print(f"metrics:   {len(reports[0].metrics_json)} bytes of canonical JSON")

    assert reports[0].events_jsonl == reports[1].events_jsonl
    assert reports[0].metrics_json == reports[1].metrics_json
