"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.io_.trace import CSITrace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["simulate", "--out", "x.npz"],
                {"scenario": "lab", "duration": 30.0, "rate": 400.0, "seed": 0,
                 "persons": 1, "distance": None, "directional": False,
                 "out": "x.npz"},
            ),
            (
                ["estimate", "t.npz"],
                {"trace": "t.npz", "persons": 1, "heart": False,
                 "method": None, "no_gate": False},
            ),
            (
                ["dataset", "--out", "d"],
                {"out": "d", "count": 10, "duration": 30.0, "rate": 400.0,
                 "seed": 0},
            ),
            (
                ["experiment", "fig11"],
                {"figure": "fig11", "trials": None, "json": None},
            ),
            (
                ["monitor"],
                {"duration": 90.0, "rate": 100.0, "seed": 0,
                 "chaos_scenario": None, "json": None, "metrics_out": None,
                 "events_out": None},
            ),
            (
                ["fleet"],
                {"sessions": 20, "duration": 24.0, "rate": 50.0, "seed": 0,
                 "scenario": None, "no_isolation_check": False, "json": None,
                 "metrics_out": None, "events_out": None},
            ),
            (
                ["sanitize"],
                {"scenario": None, "duration": None, "sample_rate": None,
                 "sessions": None, "seed": None, "json": False},
            ),
            (
                ["metrics", "render", "m.json"],
                {"metrics_command": "render", "snapshot": "m.json",
                 "format": "table"},
            ),
            (
                ["metrics", "diff", "a.json", "b.json"],
                {"metrics_command": "diff", "old": "a.json", "new": "b.json"},
            ),
            (
                ["record", "--out", "s"],
                {"scenario": "lab", "duration": 20.0, "rate": 30.0, "seed": 0,
                 "persons": 1, "distance": None, "session": "",
                 "stem": "trace", "rotate_kib": 256, "flush_every": 64,
                 "out": "s"},
            ),
            (
                ["replay", "--store", "s"],
                {"store": "s", "stem": "trace", "window": 8.0, "hop": 4.0,
                 "seed": 0, "json": None},
            ),
            (
                ["backtest"],
                {"corpus": "corpus", "scenario": None, "seed": 0,
                 "inject_regression_bpm": 0.0, "json": None},
            ),
            (
                ["learn", "train", "--out", "b.json"],
                {"learn_command": "train", "mode": "rf", "store": None,
                 "stem": None, "windows": 160, "seed": 0, "no_mlp": False,
                 "out": "b.json"},
            ),
            (
                ["learn", "eval", "b.json"],
                {"learn_command": "eval", "bundle": "b.json",
                 "scenario": "through-wall", "distance": 6.5, "trials": 8,
                 "duration": 30.0, "rate": 50.0, "seed": 0, "heavy": False,
                 "mlp": False, "json": None},
            ),
        ],
        ids=[
            "simulate", "estimate", "dataset", "experiment", "monitor",
            "fleet", "sanitize", "metrics-render", "metrics-diff", "record",
            "replay", "backtest", "learn-train", "learn-eval",
        ],
    )
    def test_defaults(self, argv, expected):
        # Every parsed value, its type and the flag order are pinned, so a
        # flag declared through a shared helper cannot drift its default.
        parsed = vars(build_parser().parse_args(argv))
        expected = {"command": argv[0], **expected}
        assert list(parsed) == list(expected)
        assert parsed == expected
        assert [type(v) for v in parsed.values()] == [
            type(v) for v in expected.values()
        ]

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig11"])
        assert args.figure == "fig11"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestSimulateCommand:
    def test_writes_trace(self, tmp_path):
        out = tmp_path / "capture.npz"
        code = main(
            [
                "simulate",
                "--scenario", "lab",
                "--duration", "5",
                "--rate", "200",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        trace = CSITrace.load(out)
        assert trace.n_packets == 1000
        assert trace.sample_rate_hz == 200.0
        assert trace.meta["scenario"] == "laboratory"

    @pytest.mark.parametrize("scenario", ["through-wall", "corridor"])
    def test_other_scenarios(self, tmp_path, scenario):
        out = tmp_path / "capture.npz"
        code = main(
            [
                "simulate",
                "--scenario", scenario,
                "--duration", "3",
                "--distance", "4.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert CSITrace.load(out).n_packets == 1200


class TestEstimateCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        out = tmp_path / "capture.npz"
        main(
            [
                "simulate",
                "--duration", "20",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        return out

    def test_estimate_runs(self, trace_path, capsys):
        code = main(["estimate", str(trace_path), "--no-gate"])
        assert code == 0
        output = capsys.readouterr().out
        assert "breathing:" in output
        assert "ground truth:" in output

    def test_estimate_accuracy(self, trace_path, capsys):
        main(["estimate", str(trace_path), "--no-gate"])
        output = capsys.readouterr().out
        trace = CSITrace.load(trace_path)
        truth = trace.meta["breathing_rates_bpm"][0]
        estimated = float(
            output.split("breathing:")[1].split("]")[0].strip(" [")
        )
        assert abs(estimated - truth) < 1.0

    def test_tensorbeat_method(self, trace_path, capsys):
        code = main(
            ["estimate", str(trace_path), "--no-gate", "--method", "tensorbeat"]
        )
        assert code == 0
        assert "breathing:" in capsys.readouterr().out


class TestDatasetCommand:
    def test_generates_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(
            [
                "dataset",
                "--out", str(out),
                "--count", "2",
                "--duration", "2",
                "--rate", "200",
            ]
        )
        assert code == 0
        assert (out / "index.json").exists()
        assert len(list(out.glob("*.npz"))) == 2


class TestExperimentCommand:
    def test_fig01(self, capsys):
        code = main(["experiment", "fig01"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fig01" in output
        assert "diff_resultant_length" in output


class TestExperimentJsonExport:
    def test_json_written(self, tmp_path, capsys):
        import json

        out = tmp_path / "fig01.json"
        code = main(["experiment", "fig01", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert "diff_resultant_length" in data
        assert isinstance(data["diff_resultant_length"], float)


class TestMonitorCommand:
    def test_monitor_defaults(self):
        args = build_parser().parse_args(["monitor"])
        assert args.duration == 90.0
        assert args.rate == 100.0
        assert args.chaos_scenario is None

    def test_unknown_scenario_is_an_error(self, capsys):
        code = main(["monitor", "--chaos-scenario", "nope"])
        assert code == 2
        assert "neither a shipped scenario" in capsys.readouterr().err

    def test_malformed_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        import json

        path = tmp_path / "faults.json"
        path.write_text(
            json.dumps(
                {"name": "bad", "faults": [{"kind": "crash", "at_s": "30"}]}
            )
        )
        code = main(["monitor", "--chaos-scenario", str(path)])
        assert code == 2
        assert "at_s must be a finite number" in capsys.readouterr().err

    def test_fault_free_run_reports_healthy(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        code = main(
            [
                "monitor",
                "--duration", "40",
                "--rate", "100",
                "--seed", "0",
                "--json", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario fault-free" in output
        assert "recovery invariants: OK" in output
        data = json.loads(out.read_text())
        assert data["violations"] == []
        assert data["health"]["health"] == "healthy"

    def test_scenario_from_json_file(self, tmp_path, capsys):
        from repro.service import Fault, Scenario

        path = tmp_path / "faults.json"
        scenario = Scenario(
            name="one-crash",
            faults=(Fault(kind="crash", at_s=15.0),),
        )
        path.write_text(scenario.to_json())
        code = main(
            [
                "monitor",
                "--duration", "40",
                "--rate", "100",
                "--seed", "0",
                "--chaos-scenario", str(path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario one-crash" in output
        assert "source-crash" in output


class TestMonitorObservabilityOutputs:
    def test_metrics_and_events_written(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        code = main(
            [
                "monitor",
                "--duration", "40",
                "--seed", "0",
                "--metrics-out", str(metrics),
                "--events-out", str(events),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {metrics}" in out
        assert f"wrote {events}" in out

        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == "repro.obs/v1"
        names = {sample["name"] for sample in snapshot["metrics"]}
        assert "pipeline_stage_duration_s" in names

        lines = events.read_text().splitlines()
        assert lines  # the supervisor always checkpoints at least once
        for line in lines:
            event = json.loads(line)
            assert {"time_s", "subject", "kind", "detail"} <= set(event)


class TestFleetCommand:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.sessions == 20
        assert args.duration == 24.0
        assert args.scenario is None
        assert not args.no_isolation_check

    def test_unknown_scenario_is_an_error(self, capsys):
        code = main(["fleet", "--scenario", "nope"])
        assert code == 2
        assert "neither a shipped scenario" in capsys.readouterr().err

    def test_fault_free_fleet_reports_ok(self, tmp_path, capsys):
        import json

        report = tmp_path / "fleet.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "fleet",
                "--sessions", "4",
                "--duration", "20",
                "--seed", "0",
                "--json", str(report),
                "--events-out", str(events),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario fault-free" in out
        assert "fleet invariants: OK" in out
        data = json.loads(report.read_text())
        assert data["violations"] == []
        assert data["fleet_summary"]["by_status"]["finished"] == 4
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == "repro.obs/v1"
        names = {sample["name"] for sample in snapshot["metrics"]}
        assert "fleet_sessions_active_count" in names
        for line in events.read_text().splitlines():
            event = json.loads(line)
            assert {"time_s", "subject", "kind", "detail"} <= set(event)

    def test_scenario_from_json_file(self, tmp_path, capsys):
        from repro.service import Fault, Scenario

        path = tmp_path / "fleet-faults.json"
        scenario = Scenario(
            name="one-shard-down",
            faults=(Fault(kind="shard-crash", at_s=8.0, shard=0),),
        )
        path.write_text(scenario.to_json())
        code = main(
            [
                "fleet",
                "--sessions", "4",
                "--duration", "24",
                "--seed", "0",
                "--scenario", str(path),
            ]
        )
        assert code == 0
        assert "scenario one-shard-down" in capsys.readouterr().out


class TestMetricsCommand:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        """One real --metrics-out file shared by the render/diff tests."""
        path = tmp_path_factory.mktemp("metrics") / "metrics.json"
        assert (
            main(
                [
                    "monitor",
                    "--duration", "40",
                    "--seed", "0",
                    "--metrics-out", str(path),
                ]
            )
            == 0
        )
        return path

    def test_render_table(self, snapshot_path, capsys):
        assert main(["metrics", "render", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "pipeline_stage_duration_s" in out

    def test_render_prometheus(self, snapshot_path, capsys):
        code = main(
            ["metrics", "render", str(snapshot_path), "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE pipeline_stage_duration_s histogram" in out
        assert 'le="+Inf"' in out

    def test_render_json_round_trips_bytes(self, snapshot_path, capsys):
        code = main(
            ["metrics", "render", str(snapshot_path), "--format", "json"]
        )
        assert code == 0
        assert capsys.readouterr().out == snapshot_path.read_text()

    def test_diff_identical(self, snapshot_path, capsys):
        code = main(
            ["metrics", "diff", str(snapshot_path), str(snapshot_path)]
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_reports_changes(self, snapshot_path, tmp_path, capsys):
        import json

        data = json.loads(snapshot_path.read_text())
        data["metrics"] = [
            s
            for s in data["metrics"]
            if s["name"] != "monitor_fresh_windows_total"
        ]
        other = tmp_path / "edited.json"
        other.write_text(json.dumps(data))
        code = main(["metrics", "diff", str(snapshot_path), str(other)])
        assert code == 1
        assert "- monitor_fresh_windows_total" in capsys.readouterr().out

    def test_render_rejects_non_snapshot_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"metrics": []}')
        code = main(["metrics", "render", str(bogus)])
        assert code == 2
        assert "schema marker" in capsys.readouterr().err

    def test_missing_snapshot_is_a_clean_error(self, tmp_path, capsys):
        code = main(["metrics", "render", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read snapshot" in capsys.readouterr().err


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory):
    """A short capture recorded via the CLI, shared by the store commands."""
    out = tmp_path_factory.mktemp("store")
    code = main(
        [
            "record",
            "--duration", "20",
            "--rate", "30",
            "--seed", "3",
            "--session", "cli-test",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestRecordCommand:
    def test_record_defaults(self):
        args = build_parser().parse_args(["record", "--out", "x"])
        assert args.scenario == "lab"
        assert args.stem == "trace"
        assert args.rotate_kib == 256
        assert args.flush_every == 64

    def test_record_writes_segments_and_index(self, recorded_store, capsys):
        names = sorted(p.name for p in recorded_store.iterdir())
        assert "trace-00000.cst" in names
        assert "trace.cidx" in names

    def test_record_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--help"])
        assert excinfo.value.code == 0
        assert "durability boundary" in capsys.readouterr().out


class TestReplayCommand:
    def test_replay_reports_estimates_and_speedup(
        self, recorded_store, tmp_path, capsys
    ):
        import json

        summary = tmp_path / "replay.json"
        code = main(
            ["replay", "--store", str(recorded_store), "--json", str(summary)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x real time" in out
        assert "estimates:" in out
        payload = json.loads(summary.read_text())
        assert payload["n_records"] == 600
        assert payload["speedup_ratio"] > 20.0
        assert payload["salvage"]["clean"] is True

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        code = main(["replay", "--store", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_replay_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--help"])
        assert excinfo.value.code == 0
        assert "replay" in capsys.readouterr().out


class TestBacktestCommand:
    @pytest.fixture(scope="class")
    def corpus(self, recorded_store, tmp_path_factory):
        import json
        import shutil

        from repro.store import DirectoryBackend, TraceReader

        root = tmp_path_factory.mktemp("cli-corpus")
        shutil.copytree(recorded_store, root / "lab")
        backend = DirectoryBackend(str(root / "lab"))
        _, header, _ = TraceReader(backend, "trace").read_packets()
        truth_bpm = float(header.meta["breathing_rates_bpm"][0])
        manifest = {
            "corpus_format_version": 1,
            "stem": "trace",
            "scenarios": {
                "lab": {
                    "expected_breathing_bpm": truth_bpm,
                    "tolerance_bpm": 6.0,
                    "min_estimates": 2,
                }
            },
        }
        (root / "manifest.json").write_text(json.dumps(manifest))
        return root

    def test_backtest_passes_on_clean_corpus(self, corpus, tmp_path, capsys):
        import json

        report = tmp_path / "backtest.json"
        code = main(
            ["backtest", "--corpus", str(corpus), "--json", str(report)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert json.loads(report.read_text())["passed"] is True

    def test_injected_regression_exits_nonzero(self, corpus, capsys):
        code = main(
            [
                "backtest",
                "--corpus", str(corpus),
                "--inject-regression-bpm", "25",
            ]
        )
        assert code == 1
        assert "rate-regression" in capsys.readouterr().out

    def test_missing_corpus_is_a_clean_error(self, tmp_path, capsys):
        code = main(["backtest", "--corpus", str(tmp_path / "nope")])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_backtest_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["backtest", "--help"])
        assert excinfo.value.code == 0
        assert "manifest.json" in capsys.readouterr().out


class TestSanitizeCommand:
    @pytest.fixture()
    def calls(self, monkeypatch):
        """Replace the runner with a recorder of its keyword arguments."""
        import repro.sanitize

        recorded = []

        class CleanReport:
            clean = True

            def format_text(self):
                return "clean"

        def run(**kwargs):
            recorded.append(kwargs)
            return CleanReport()

        monkeypatch.setattr(repro.sanitize, "sanitize_chaos", run)
        return recorded

    def test_bare_fleet_run_passes_no_defaults(self, calls, capsys):
        assert main(["sanitize", "--scenario", "shard-crash"]) == 0
        assert calls == [{"scenario": "shard-crash"}]

    def test_only_given_flags_are_passed(self, calls, capsys):
        assert main(["sanitize", "--duration", "30"]) == 0
        assert main(
            [
                "sanitize", "--scenario", "shard-crash",
                "--sessions", "4", "--seed", "2",
            ]
        ) == 0
        assert calls == [
            {"duration_s": 30.0},
            {"scenario": "shard-crash", "n_sessions": 4, "seed": 2},
        ]


class TestLearnCommand:
    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("learn") / "b.json"
        code = main(
            [
                "learn", "train", "--mode", "synthetic", "--windows", "24",
                "--no-mlp", "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_train_writes_bundle(self, bundle_path):
        import json

        bundle = json.loads(bundle_path.read_text())
        assert set(bundle) >= {
            "apnea_model", "breathing_model", "feature_names", "meta",
            "version",
        }
        assert bundle["breathing_mlp"] is None
        assert bundle["meta"]["mode"] == "synthetic"
        assert bundle["meta"]["n_windows"] == 24

    def test_eval_writes_summary(self, bundle_path, tmp_path, capsys):
        import json

        out = tmp_path / "s.json"
        code = main(
            [
                "learn", "eval", str(bundle_path), "--trials", "1",
                "--duration", "10", "--rate", "20", "--json", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["condition"] == "clean capture"
        for method in ("phasebeat", "learned"):
            assert set(summary["methods"][method]) == {
                "median_error_bpm", "mean_error_bpm", "failure_rate",
            }
        assert "learned margin" in capsys.readouterr().out
