"""Command-line interface: simulate, estimate, and reproduce from a shell.

Twelve subcommands::

    repro-phasebeat simulate  --scenario lab --duration 30 --out trace.npz
    repro-phasebeat estimate  trace.npz --persons 1 --heart
    repro-phasebeat dataset   --out corpus/ --count 10 --duration 30
    repro-phasebeat experiment fig11 --trials 20
    repro-phasebeat monitor   --duration 90 --chaos-scenario faults.json
    repro-phasebeat fleet     --sessions 50 --scenario shard-crash
    repro-phasebeat sanitize  --scenario shard-crash
    repro-phasebeat metrics   render metrics.json --format prometheus
    repro-phasebeat record    --scenario lab --duration 20 --out store/
    repro-phasebeat replay    --store store/ --json report.json
    repro-phasebeat backtest  --corpus corpus/
    repro-phasebeat learn     train --mode rf --out bundle.json

``simulate`` builds one of the paper's three deployments and writes a CSI
trace; ``estimate`` runs the PhaseBeat pipeline on a stored trace;
``dataset`` generates a labelled corpus; ``experiment`` regenerates one of
the paper's figures and prints the same rows/series the benchmarks assert
against; ``monitor`` runs the supervised monitoring service over a
simulated scene, optionally under a chaos scenario (a shipped name or a
JSON fault-schedule file), and prints the event log and health summary —
``--metrics-out`` / ``--events-out`` additionally dump the run's metrics
snapshot (canonical JSON) and event log (JSONL); ``fleet`` runs a whole
fleet of sessions through the gateway under a fleet chaos scenario and
checks the isolation / recovery / bounded-shedding invariants;
``sanitize`` runs a seeded chaos scenario twice in-process, through the
driver its fault kinds need, and byte-diffs the event log, metrics
snapshot, and estimates — the runtime
side of the phaselint determinism rules; ``metrics`` renders or diffs
those snapshots offline.

The storage trio: ``record`` simulates a capture and records it into a
crash-safe ``.cst`` trace store through the recording tap; ``replay``
salvage-reads a store and drives the supervised monitor from it at
simulated speed, reporting estimates and the wall-time speedup;
``backtest`` replays a committed corpus of recorded scenarios and diffs
median estimates against the manifest baselines, exiting non-zero on a
regression (see ``docs/storage.md``).

``learn`` drives the learned estimator track (see ``docs/learned.md``):
``learn train`` fits the tiny numpy model family from the simulator (or a
recorded ``.cst`` store via ``--store``) and writes a byte-reproducible
canonical-JSON bundle; ``learn eval`` loads a bundle and runs a paired
learned-vs-classical head-to-head through the evaluation harness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from . import __version__
from .core.pipeline import PhaseBeat
from .errors import ReproError
from .eval import experiments
from .io_.dataset import generate_dataset
from .io_.trace import CSITrace
from .rf.receiver import capture_trace
from .rf.scene import (
    Scenario,
    corridor_scenario,
    laboratory_scenario,
    through_wall_scenario,
)

if TYPE_CHECKING:
    from .service import chaos

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    name.split("_", 1)[0]: getattr(experiments, name)
    for name in experiments.__all__
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-phasebeat",
        description="PhaseBeat (ICDCS 2017) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="simulate a CSI capture and write it to .npz"
    )
    _add_capture_flags(simulate, duration_s=30.0, rate_hz=400.0)
    simulate.add_argument(
        "--directional", action="store_true",
        help="aim a directional TX at the first subject (heart setup)",
    )
    simulate.add_argument("--out", required=True, help="output .npz path")

    estimate = sub.add_parser(
        "estimate", help="run the PhaseBeat pipeline on a stored trace"
    )
    estimate.add_argument("trace", help="path to a .npz trace")
    estimate.add_argument("--persons", type=int, default=1)
    estimate.add_argument(
        "--heart", action="store_true", help="also estimate heart rate"
    )
    estimate.add_argument(
        "--method",
        choices=("peak", "fft", "music", "music-single", "tensorbeat"),
        default=None,
        help="breathing estimator override",
    )
    estimate.add_argument(
        "--no-gate",
        action="store_true",
        help="skip the environment-detection stationarity gate",
    )

    dataset = sub.add_parser(
        "dataset", help="generate a labelled corpus of simulated traces"
    )
    dataset.add_argument("--out", required=True, help="corpus directory")
    dataset.add_argument("--count", type=int, default=10)
    dataset.add_argument("--duration", type=float, default=30.0)
    dataset.add_argument("--rate", type=float, default=400.0)
    dataset.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure's data"
    )
    experiment.add_argument(
        "figure",
        choices=sorted(_EXPERIMENTS),
        help="which figure to regenerate (e.g. fig11)",
    )
    experiment.add_argument(
        "--trials", type=int, default=None,
        help="override the experiment's default trial count",
    )
    experiment.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the result dictionary as JSON",
    )

    monitor = sub.add_parser(
        "monitor",
        help="run the supervised monitoring service on a simulated scene",
    )
    monitor.add_argument("--duration", type=float, default=90.0, help="seconds")
    monitor.add_argument(
        "--rate", type=float, default=100.0, help="packets per second"
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--chaos-scenario", default=None, metavar="NAME_OR_PATH",
        help="a shipped scenario name (e.g. source-crash) or a JSON "
        "fault-schedule file; omit for a fault-free run",
    )
    _add_report_flags(monitor, "faulted run's")

    fleet = sub.add_parser(
        "fleet",
        help="run a session fleet through the gateway under fleet chaos",
    )
    fleet.add_argument(
        "--sessions", type=int, default=20, help="fleet size"
    )
    fleet.add_argument(
        "--duration", type=float, default=24.0,
        help="simulated capture length per session (seconds)",
    )
    fleet.add_argument(
        "--rate", type=float, default=50.0, help="packets per second"
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--scenario", default=None, metavar="NAME_OR_PATH",
        help="a shipped fleet scenario name (e.g. shard-crash) or a JSON "
        "fault-schedule file; omit for a fault-free run",
    )
    fleet.add_argument(
        "--no-isolation-check", action="store_true",
        help="skip the solo-baseline byte-compare (faster for large fleets)",
    )
    _add_report_flags(fleet, "fleet run's")

    sanitize = sub.add_parser(
        "sanitize",
        help=(
            "run a seeded scenario twice in-process and byte-diff the "
            "event log, metrics snapshot, and estimates"
        ),
    )
    sanitize.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            "a shipped scenario name or a JSON fault-schedule file; fleet "
            "fault kinds run the fleet driver (default: the runner's)"
        ),
    )
    sanitize.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="simulated duration per run (default: the runner's, see repro.sanitize)",
    )
    sanitize.add_argument(
        "--sample-rate", type=float, default=None, metavar="HZ",
        help="CSI sample rate (default: the runner's)",
    )
    sanitize.add_argument(
        "--sessions", type=int, default=None, metavar="N",
        help="fleet size for a fleet scenario (default: the runner's)",
    )
    sanitize.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed for both runs (default: the runner's)",
    )
    sanitize.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )

    metrics = sub.add_parser(
        "metrics", help="render or diff metrics snapshots from --metrics-out"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    render = metrics_sub.add_parser(
        "render", help="pretty-print one snapshot"
    )
    render.add_argument("snapshot", help="path to a --metrics-out JSON file")
    render.add_argument(
        "--format",
        choices=("table", "prometheus", "json"),
        default="table",
        help="output format (default: table)",
    )
    diff = metrics_sub.add_parser(
        "diff", help="compare two snapshots series-by-series"
    )
    diff.add_argument("old", help="baseline snapshot path")
    diff.add_argument("new", help="candidate snapshot path")

    record = sub.add_parser(
        "record",
        help="simulate a capture and record it into a crash-safe trace store",
    )
    _add_capture_flags(record, duration_s=20.0, rate_hz=30.0)
    record.add_argument(
        "--session", default="", metavar="ID",
        help="session id stamped into segment headers",
    )
    record.add_argument(
        "--stem", default="trace", help="store name inside --out"
    )
    record.add_argument(
        "--rotate-kib", type=int, default=256, metavar="KIB",
        help="segment rotation budget in KiB (default: 256)",
    )
    record.add_argument(
        "--flush-every", type=int, default=64, metavar="N",
        help="durability boundary every N records (0 = only on close)",
    )
    record.add_argument(
        "--out", required=True, help="store directory (created if absent)"
    )

    replay = sub.add_parser(
        "replay",
        help="replay a recorded store through the supervised monitor",
    )
    replay.add_argument(
        "--store", required=True, help="store directory written by record"
    )
    replay.add_argument(
        "--stem", default="trace", help="store name inside --store"
    )
    replay.add_argument(
        "--window", type=float, default=8.0, help="analysis window (seconds)"
    )
    replay.add_argument(
        "--hop", type=float, default=4.0, help="estimate cadence (seconds)"
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the replay summary as JSON",
    )

    backtest = sub.add_parser(
        "backtest",
        help="replay a recorded corpus and diff estimates against baselines",
    )
    backtest.add_argument(
        "--corpus", default="corpus", help="corpus directory with manifest.json"
    )
    backtest.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    backtest.add_argument("--seed", type=int, default=0)
    backtest.add_argument(
        "--inject-regression-bpm", type=float, default=0.0, metavar="BPM",
        help="bias every estimate by this much — a gate self-test that "
        "models an estimator regression and must make the backtest fail",
    )
    backtest.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the backtest report as JSON",
    )

    learn = sub.add_parser(
        "learn", help="train or evaluate the learned estimator track"
    )
    learn_sub = learn.add_subparsers(dest="learn_command", required=True)
    learn_train = learn_sub.add_parser(
        "train",
        help="fit the model family and write a canonical-JSON bundle",
    )
    learn_train.add_argument(
        "--mode",
        choices=("synthetic", "rf"),
        default="rf",
        help="corpus source: fast synthetic windows or full RF simulation "
        "(default: rf; ignored with --store)",
    )
    learn_train.add_argument(
        "--store", default=None, metavar="DIR",
        help="train from a recorded .cst store instead of the simulator",
    )
    learn_train.add_argument(
        "--stem", action="append", default=None, metavar="NAME",
        help="store stem inside --store (repeatable; default: all)",
    )
    learn_train.add_argument(
        "--windows", type=int, default=160,
        help="corpus size in windows (default: 160)",
    )
    learn_train.add_argument("--seed", type=int, default=0)
    learn_train.add_argument(
        "--no-mlp", action="store_true",
        help="skip the optional MLP rate head (faster, smaller bundle)",
    )
    learn_train.add_argument(
        "--out", required=True, help="bundle JSON output path"
    )
    learn_eval = learn_sub.add_parser(
        "eval",
        help="paired learned-vs-classical head-to-head on one scenario",
    )
    learn_eval.add_argument("bundle", help="bundle JSON written by learn train")
    learn_eval.add_argument(
        "--scenario",
        choices=("lab", "through-wall"),
        default="through-wall",
        help="deployment family (default: through-wall)",
    )
    learn_eval.add_argument(
        "--distance", type=float, default=6.5,
        help="TX-RX separation for through-wall (m, default: 6.5)",
    )
    learn_eval.add_argument(
        "--trials", type=int, default=8, help="paired trials (default: 8)"
    )
    learn_eval.add_argument(
        "--duration", type=float, default=30.0, help="seconds per trial"
    )
    learn_eval.add_argument(
        "--rate", type=float, default=50.0, help="packets per second"
    )
    learn_eval.add_argument("--seed", type=int, default=0)
    learn_eval.add_argument(
        "--heavy", action="store_true",
        help="degrade every capture with the heavy impairment mix "
        "(loss + timestamp jitter + impulses + subcarrier nulls)",
    )
    learn_eval.add_argument(
        "--mlp", action="store_true",
        help="serve the MLP rate head instead of the ridge head",
    )
    learn_eval.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the per-method error summary as JSON",
    )
    return parser


def _add_capture_flags(
    parser: argparse.ArgumentParser, *, duration_s: float, rate_hz: float
) -> None:
    """The capture flags ``simulate`` and ``record`` share (see
    :func:`_capture`)."""
    parser.add_argument(
        "--scenario",
        choices=("lab", "through-wall", "corridor"),
        default="lab",
        help="deployment to simulate",
    )
    parser.add_argument("--duration", type=float, default=duration_s, help="seconds")
    parser.add_argument(
        "--rate", type=float, default=rate_hz, help="packets per second"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--persons", type=int, default=1, help="number of subjects"
    )
    parser.add_argument(
        "--distance", type=float, default=None,
        help="TX-RX separation for through-wall / corridor (m)",
    )


def _add_report_flags(parser: argparse.ArgumentParser, run: str) -> None:
    """The output flags ``monitor`` and ``fleet`` share (see
    :func:`_finish_chaos_run`)."""
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the chaos report as JSON",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help=f"write the {run} metrics snapshot as canonical JSON "
        "(byte-identical across identical runs)",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="PATH",
        help=f"write the {run} event log as JSON Lines",
    )


def _capture(args: argparse.Namespace, *, directional: bool = False) -> CSITrace:
    """Simulate the capture :func:`_add_capture_flags` describes: one of the
    paper's deployments with seeded subjects."""
    from .eval.harness import default_subject

    rng = np.random.default_rng(args.seed)
    persons = [
        default_subject(rng, with_heartbeat=True) for _ in range(args.persons)
    ]
    scenario: Scenario
    if args.scenario == "lab":
        scenario = laboratory_scenario(
            persons, directional_tx=directional, clutter_seed=args.seed
        )
    elif args.scenario == "through-wall":
        scenario = through_wall_scenario(
            args.distance or 4.0, persons, clutter_seed=args.seed
        )
    else:
        scenario = corridor_scenario(
            args.distance or 5.0, persons, clutter_seed=args.seed
        )
    return capture_trace(
        scenario,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=args.seed,
    )


def _truth(trace: CSITrace) -> str:
    """The capture's ground-truth breathing rates, for a summary line."""
    return ", ".join(f"{r:.2f}" for r in trace.meta["breathing_rates_bpm"])


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _capture(args, directional=args.directional)
    path = trace.save(args.out)
    print(f"wrote {path} ({trace.n_packets} packets, truth: {_truth(trace)} bpm)")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    trace = CSITrace.load(args.trace)
    result = PhaseBeat(enforce_stationarity=not args.no_gate).process(
        trace,
        n_persons=args.persons,
        estimate_heart=args.heart,
        breathing_method=args.method,
    )
    print("breathing:", np.round(result.breathing_rates_bpm, 2), "bpm")
    if result.heart_rate_bpm is not None:
        print(f"heart:     {result.heart_rate_bpm:.2f} bpm")
    diag = result.diagnostics
    print(
        f"V={diag.v_statistic:.3f} ({diag.environment_state.value}), "
        f"subcarrier {diag.selected_subcarrier} on pair "
        f"{diag.selected_antenna_pair}"
    )
    if "breathing_rates_bpm" in trace.meta:
        truth = trace.meta["breathing_rates_bpm"]
        print("ground truth:", np.round(truth, 2), "bpm")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .eval.harness import default_subject

    def factory(k: int, rng: np.random.Generator) -> Scenario:
        return laboratory_scenario(
            [default_subject(rng)], clutter_seed=args.seed + k
        )

    dataset = generate_dataset(
        args.out,
        factory,
        args.count,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        base_seed=args.seed,
    )
    print(f"wrote {len(dataset)} traces to {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    fn = _EXPERIMENTS[args.figure]
    kwargs = {}
    if args.trials is not None:
        import inspect

        if "n_trials" in inspect.signature(fn).parameters:
            kwargs["n_trials"] = args.trials
    result = fn(**kwargs)
    _print_experiment(args.figure, result)
    if args.json:
        import json

        _write(args.json, json.dumps(_jsonable(result), indent=2))
    return 0


def _chaos_scenario(name_or_path: str | None) -> chaos.Scenario:
    """The scenario a ``monitor`` / ``fleet`` run names; fault-free if none."""
    from .service import chaos

    if name_or_path is None:
        return chaos.Scenario(
            name="fault-free", faults=(), description="no faults injected"
        )
    return chaos.load_scenario(name_or_path)


def _finish_chaos_run(
    args: argparse.Namespace,
    report: chaos.ChaosReport | chaos.FleetChaosReport,
    invariants: str,
) -> int:
    """Print the invariant verdict, write the requested report outputs, and
    return the exit code: 1 when an invariant was violated."""
    import json

    violations = report.violations()
    print(f"  {invariants} invariants: {'OK' if not violations else violations}")
    if args.json:
        _write(args.json, json.dumps(report.to_jsonable(), indent=2))
    artifacts = report.artifacts()
    if args.metrics_out:
        _write(args.metrics_out, artifacts["metrics.json"])
    if args.events_out:
        _write(args.events_out, artifacts["events.jsonl"])
    return 0 if not violations else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry
    from .service.chaos import run_chaos

    scenario = _chaos_scenario(args.chaos_scenario)
    registry = MetricsRegistry() if args.metrics_out else None
    report = run_chaos(
        scenario,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=args.seed,
        registry=registry,
    )

    print(f"=== monitor: scenario {scenario.name} ===")
    if scenario.description:
        print(scenario.description)
    print(f"capture: {report.trace_quality}")
    print(f"ground truth: {report.truth_bpm:.2f} bpm")
    print()
    print("event log:")
    for event in report.events:
        detail = " ".join(f"{k}={v}" for k, v in event.detail.items())
        print(f"  t={event.time_s:7.2f}s  {event.kind:<26s} {detail}")
    print()
    print("health summary:")
    health = report.health
    print(
        f"  health={health['health']} method={health['method']} "
        f"restarts={health['monitor_restarts']} breaker={health['breaker']}"
    )
    print(f"  source counters: {health['source_counters']}")
    print(
        f"  estimates: {health['n_estimates']} total, "
        f"{report.n_post_recovery} fresh post-recovery"
    )
    print(
        f"  median error: fault-free {report.fault_free_median_error_bpm:.3f} "
        f"bpm, post-recovery {report.post_recovery_median_error_bpm:.3f} bpm"
    )
    return _finish_chaos_run(args, report, "recovery")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry
    from .service.chaos import run_fleet_chaos

    scenario = _chaos_scenario(args.scenario)
    registry = MetricsRegistry() if args.metrics_out else None
    report = run_fleet_chaos(
        scenario,
        n_sessions=args.sessions,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=args.seed,
        registry=registry,
        check_isolation=not args.no_isolation_check,
    )

    print(f"=== fleet: scenario {scenario.name} ===")
    if scenario.description:
        print(scenario.description)
    summary = report.fleet_summary
    print(
        f"sessions: {summary['n_sessions']} on {summary['n_shards']} shards, "
        f"{summary['rounds']} rounds"
    )
    print(f"  by status: {summary['by_status']}")
    print(f"  by health: {summary['by_health']}")
    print(
        f"  shed: {len(report.shed_ids)}/{report.max_shed_sessions} budget, "
        f"queue drops: {summary['n_queue_dropped']}, "
        f"estimates: {report.n_estimates_total}"
    )
    if report.faulted_ids:
        print(f"  faulted: {len(report.faulted_ids)} sessions")
    return _finish_chaos_run(args, report, "fleet")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import (
        canonical_json,
        diff_snapshots,
        load_snapshot,
        render_prometheus,
        render_table,
    )

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError as exc:
            raise ReproError(f"cannot read snapshot {path!r}: {exc}") from exc

    if args.metrics_command == "render":
        snapshot = load_snapshot(read(args.snapshot))
        if args.format == "prometheus":
            sys.stdout.write(render_prometheus(snapshot))
        elif args.format == "json":
            sys.stdout.write(canonical_json(snapshot))
        else:
            sys.stdout.write(render_table(snapshot))
        return 0

    old = load_snapshot(read(args.old))
    new = load_snapshot(read(args.new))
    changes = diff_snapshots(old, new)
    if not changes:
        print("snapshots are identical")
        return 0

    def brief(sample: dict) -> str:
        if sample["kind"] == "histogram":
            return f"count={sample['count']} sum={sample['sum']:.6g}"
        return f"{sample['value']:.6g}"

    for change in changes:
        labels = "".join(
            f" {k}={v}" for k, v in sorted(change["labels"].items())
        )
        if change["change"] == "added":
            print(f"+ {change['name']}{labels}  {brief(change['new'])}")
        elif change["change"] == "removed":
            print(f"- {change['name']}{labels}  {brief(change['old'])}")
        else:
            print(
                f"~ {change['name']}{labels}  "
                f"{brief(change['old'])} -> {brief(change['new'])}"
            )
    return 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json as json_module

    from .sanitize import sanitize_chaos

    # Only the flags the user gave are passed: every default lives in the
    # runner's signature.
    kwargs: dict[str, Any] = {
        name: value
        for name, value in (
            ("scenario", args.scenario),
            ("duration_s", args.duration),
            ("sample_rate_hz", args.sample_rate),
            ("n_sessions", args.sessions),
            ("seed", args.seed),
        )
        if value is not None
    }
    report = sanitize_chaos(**kwargs)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.clean else 1


def _cmd_record(args: argparse.Namespace) -> int:
    from .service.clock import SimulatedClock
    from .service.sources import TracePacketSource
    from .store import DirectoryBackend, RecordingTap

    trace = _capture(args)
    clock = SimulatedClock()
    tap = RecordingTap(
        TracePacketSource(trace, clock),
        DirectoryBackend(args.out),
        args.stem,
        sample_rate_hz=args.rate,
        session_id=args.session,
        subcarrier_indices=[int(i) for i in trace.subcarrier_indices],
        meta=_jsonable(trace.meta),
        rotate_bytes=args.rotate_kib * 1024,
        flush_every_records=args.flush_every,
    )
    while not tap.exhausted:
        tap.next_packet()
    tap.close()
    digest = tap.digest()
    print(
        f"recorded {tap.n_recorded} packets into {args.out} "
        f"({len(digest['segments'])} segment(s), truth: {_truth(trace)} bpm)"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from .core.streaming import StreamingConfig
    from .store.backtest import replay_store

    estimates, _, probe, wall_s = replay_store(
        args.store,
        args.stem,
        "replay",
        streaming_config=StreamingConfig(window_s=args.window, hop_s=args.hop),
        seed=args.seed,
    )
    speedup = probe.duration_s / wall_s
    salvage = probe.salvage_report

    print(f"=== replay: {args.store} ({args.stem}) ===")
    print(
        f"records: {probe.n_packets_total} over {probe.duration_s:.1f}s "
        f"recorded, replayed in {wall_s:.2f}s wall ({speedup:.1f}x real time)"
    )
    if not salvage.clean:
        print(
            f"salvage: {salvage.n_records_recovered} recovered, "
            f"{len(salvage.issues)} issue(s), "
            f"{salvage.n_bytes_skipped} byte(s) skipped"
        )
    usable = [e for e in estimates if e.fresh and e.ok]
    for e in usable:
        print(f"  t={e.time_s:7.2f}s  {e.rate_bpm:6.2f} bpm  ({e.method})")
    print(f"estimates: {len(usable)} usable of {len(estimates)}")
    if args.json:
        _write(
            args.json,
            json.dumps(
                {
                    "store": args.store,
                    "stem": args.stem,
                    "n_records": probe.n_packets_total,
                    "recorded_duration_s": probe.duration_s,
                    "wall_s": wall_s,
                    "speedup_ratio": speedup,
                    "salvage": salvage.to_jsonable(),
                    "estimates": [e.to_dict() for e in estimates],
                },
                indent=2,
            ),
        )
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    import json

    from .store.backtest import run_backtest

    report = run_backtest(
        args.corpus,
        scenarios=args.scenario,
        seed=args.seed,
        inject_bias_bpm=args.inject_regression_bpm,
    )
    print(report.format_text())
    if args.json:
        _write(args.json, json.dumps(report.to_jsonable(), indent=2))
    return 0 if report.passed else 1


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.learn_command == "train":
        return _cmd_learn_train(args)
    return _cmd_learn_eval(args)


def _cmd_learn_train(args: argparse.Namespace) -> int:
    from .learn import TrainingConfig, save_bundle, train, train_from_store

    config = TrainingConfig(
        mode=args.mode,
        n_windows=args.windows,
        seed=args.seed,
        with_mlp=not args.no_mlp,
    )
    if args.store is not None:
        bundle = train_from_store(
            args.store,
            tuple(args.stem) if args.stem else None,
            config=config,
        )
    else:
        bundle = train(config)
    save_bundle(bundle, args.out)
    meta = bundle.meta
    heads = ["ridge"]
    if bundle.breathing_mlp is not None:
        heads.append("mlp")
    if bundle.apnea_model is not None:
        heads.append("apnea")
    print(
        f"trained on {meta.get('n_windows', '?')} windows "
        f"(mode={meta.get('mode')}, seed={meta.get('seed')})"
    )
    print(f"heads: {', '.join(heads)}")
    if "train_mae_bpm" in meta:
        print(f"train MAE: {meta['train_mae_bpm']:.2f} bpm")
    print(f"wrote {args.out}")
    return 0


def _cmd_learn_eval(args: argparse.Namespace) -> int:
    import json

    from .eval.harness import head_to_head_scene, run_breathing_trials
    from .learn import LearnedEstimator, read_bundle
    from .rf.impairments import Impairment, heavy_impairments

    bundle = read_bundle(args.bundle)
    learned = LearnedEstimator(bundle, use_mlp=args.mlp)

    def impairments(k: int, rng: np.random.Generator) -> list[Impairment]:
        return heavy_impairments() if args.heavy else []

    results = run_breathing_trials(
        head_to_head_scene(
            None if args.scenario == "lab" else args.distance, args.seed
        ),
        args.trials,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        methods=("phasebeat", "learned"),
        base_seed=args.seed,
        learned=learned,
        impairments_factory=impairments,
    )
    condition = "heavy impairments" if args.heavy else "clean capture"
    print(
        f"=== learn eval: {args.scenario} ({condition}), "
        f"{args.trials} paired trials ==="
    )
    methods = ("phasebeat", "learned")
    summary = {method: results.summary(method) for method in methods}
    for method in methods:
        row = summary[method]
        print(
            f"  {method:<10s} median {row['median_error_bpm']:6.2f} bpm, "
            f"mean {row['mean_error_bpm']:6.2f} bpm, "
            f"failures {row['failure_rate']:.0%}"
        )
    margin = (
        summary["phasebeat"]["median_error_bpm"]
        - summary["learned"]["median_error_bpm"]
    )
    print(f"  learned margin: {margin:+.2f} bpm median (positive = better)")
    if args.json:
        _write(
            args.json,
            json.dumps({"condition": condition, "methods": summary}, indent=2),
        )
    return 0


def _jsonable(value):
    """Recursively convert an experiment result to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` and say so on stdout."""
    Path(path).write_text(text)
    print(f"wrote {path}")


def _print_experiment(figure: str, result: dict) -> None:
    """Generic pretty-printer for experiment dictionaries.

    One row per key; a nested dict prints its rows indented under its key.
    """
    print(f"=== {figure} ===")
    for key, value in result.items():  # phaselint: insertion-order -- key order is row order
        if isinstance(value, dict):
            print(f"{key}:")
            for inner_key, inner_value in value.items():  # phaselint: insertion-order -- key order is row order
                print(f"  {_format_row(inner_key, inner_value)}")
        else:
            print(_format_row(key, value))


def _format_row(key: object, value: object) -> str:
    """One ``key: value`` row; long arrays print their shape only."""
    if isinstance(value, np.ndarray):
        if value.size > 12:
            return f"{key}: array(shape={value.shape})"
        return f"{key}: {np.round(value, 4).tolist()}"
    if isinstance(value, float):
        return f"{key}: {value:.4g}"
    return f"{key}: {value}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "dataset": _cmd_dataset,
        "experiment": _cmd_experiment,
        "monitor": _cmd_monitor,
        "fleet": _cmd_fleet,
        "sanitize": _cmd_sanitize,
        "metrics": _cmd_metrics,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "backtest": _cmd_backtest,
        "learn": _cmd_learn,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
