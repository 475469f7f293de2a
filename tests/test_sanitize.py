"""Tests for the run-twice determinism sanitizer (`repro.sanitize`).

Two directions are covered: the sanitizer must *pass* on the seeded chaos
scenarios the repo ships (they are byte-reproducible by construction),
and it must *catch* an injected nondeterminism — state shared across runs
through a mutable module-level collection, the exact bug class the
phaselint PL008/PL010 rules ban statically.  The injected-bug tests use
plain runner closures, so they stay fast and fail with a precise
divergence record rather than a flaky scenario.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sanitize import (
    Divergence,
    SanitizeReport,
    run_twice,
    sanitize_chaos,
)


class TestRunTwice:
    def test_identical_runs_are_clean(self):
        report = run_twice(
            "toy", lambda: {"events.jsonl": "a\nb", "metrics.json": "{}"}
        )
        assert report.clean
        assert report.divergence is None
        assert report.artifacts == ("events.jsonl", "metrics.json")
        assert "clean" in report.format_text()

    def test_catches_shared_set_growing_across_runs(self):
        # The injected bug: a mutable module-level-style set survives
        # between runs, so run 2 emits a record run 1 never saw.  This is
        # the runtime face of the unordered-iteration/shared-state bug
        # class PL008/PL010 ban statically.
        seen = set()

        def buggy_runner():
            seen.add(f"record-{len(seen)}")
            return {"events.jsonl": "\n".join(sorted(seen))}

        report = run_twice("injected", buggy_runner)
        assert not report.clean
        assert report.divergence.artifact == "events.jsonl"
        assert report.divergence.line_no == 2
        assert report.divergence.first_run == ""
        assert report.divergence.second_run == "record-1"
        assert "DIVERGENT" in report.format_text()

    def test_catches_unsorted_iteration_of_contaminated_state(self):
        # Closer to the wire format: each run serializes its view of a
        # shared cache; the second run's JSON contains an extra key.
        cache = {}

        def buggy_runner():
            cache[f"k{len(cache)}"] = len(cache)
            return {
                "metrics.json": json.dumps(cache, sort_keys=True),
                "events.jsonl": "boot",
            }

        report = run_twice("injected", buggy_runner)
        assert not report.clean
        assert report.divergence.artifact == "metrics.json"

    def test_divergence_carries_trace_context(self):
        calls = []

        def buggy_runner():
            calls.append(None)
            lines = ["trace=t1 admit", "trace=t1 sample", "trace=t1 estimate"]
            lines.append(f"trace=t1 drain run={len(calls)}")
            return {"events.jsonl": "\n".join(lines)}

        report = run_twice("injected", buggy_runner)
        assert not report.clean
        divergence = report.divergence
        assert divergence.line_no == 4
        assert divergence.context == (
            "trace=t1 admit",
            "trace=t1 sample",
            "trace=t1 estimate",
        )
        assert "run=1" in divergence.first_run
        assert "run=2" in divergence.second_run

    def test_missing_artifact_is_a_divergence(self):
        calls = []

        def buggy_runner():
            calls.append(None)
            artifacts = {"events.jsonl": "x"}
            if len(calls) == 1:
                artifacts["extra.json"] = "{}"
            return artifacts

        report = run_twice("injected", buggy_runner)
        assert not report.clean
        assert report.divergence.artifact == "extra.json"

    def test_report_round_trips_to_json(self):
        report = SanitizeReport(
            label="toy",
            artifacts=("events.jsonl",),
            artifact_bytes_total=1,
            divergence=Divergence(
                artifact="events.jsonl",
                line_no=1,
                first_run="a",
                second_run="b",
                context=("ctx",),
            ),
        )
        payload = report.to_dict()
        assert payload["clean"] is False
        assert payload["divergence"]["line_no"] == 1
        assert json.loads(json.dumps(payload)) == payload


@pytest.mark.determinism
class TestSeededScenarios:
    def test_solo_chaos_scenario_is_byte_reproducible(self):
        report = sanitize_chaos(
            "source-crash", duration_s=90.0, sample_rate_hz=50.0, seed=11
        )
        assert report.clean, report.format_text()
        assert report.artifacts == (
            "estimates.jsonl",
            "events.jsonl",
            "health.json",
            "metrics.json",
        )
        assert report.artifact_bytes_total > 0

    def test_fleet_chaos_scenario_is_byte_reproducible(self):
        report = sanitize_chaos(
            "shard-crash", n_sessions=6, duration_s=24.0, seed=11
        )
        assert report.clean, report.format_text()
        assert report.artifacts == (
            "events.jsonl",
            "metrics.json",
            "report.json",
        )

    def test_record_crash_resume_is_byte_reproducible(self):
        # The report embeds per-session store digests, so a clean run
        # proves record -> crash -> restart -> resume is byte-identical.
        report = sanitize_chaos(
            "record-crash-resume", n_sessions=6, duration_s=24.0, seed=11
        )
        assert report.clean, report.format_text()
        assert "report.json" in report.artifacts

    def test_learned_rung_scenario_is_byte_reproducible(self):
        # The learned rung adds a trained-model inference to the replayed
        # path; seeded training + serving must still be byte-stable.
        report = sanitize_chaos(
            "learned-degradation-burst",
            duration_s=90.0,
            sample_rate_hz=50.0,
            seed=2,
        )
        assert report.clean, report.format_text()
        assert report.artifact_bytes_total > 0

    def test_unknown_scenarios_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="neither a shipped"):
            sanitize_chaos("nope")


class TestSanitizeCli:
    def test_solo_cli_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sanitize",
                "--scenario", "source-crash",
                "--duration", "90",
                "--sample-rate", "50",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_fleet_cli_json_output(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sanitize",
                "--scenario", "shard-crash",
                "--sessions", "6",
                "--seed", "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["label"] == "fleet:shard-crash"

    def test_unknown_scenario_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--scenario", "nope"]) == 2
        assert "neither a shipped scenario" in capsys.readouterr().err
