"""Replay-backtesting: run a committed corpus through the pipeline.

A *corpus* is a directory of recorded stores plus a ``manifest.json``
naming each scenario's expected vital-sign baseline::

    corpus/
      manifest.json
      lab-still/            one store: trace-00000.cst ... + trace.cidx
      lab-two-person/       ...

:func:`replay_store` replays one store through the supervised
monitoring service (:class:`~repro.service.supervisor.MonitorSupervisor`
fed by :class:`~repro.store.replay.ReplayPacketSource` on a
:class:`~repro.service.clock.SimulatedClock`); ``repro-phasebeat replay``
prints its result.  :func:`run_backtest` replays every corpus scenario
through it, compares the median estimate against the manifest baseline,
and reports pass/fail per scenario — the regression gate
``repro-phasebeat backtest`` exposes.

Because replay time is simulated, a backtest runs as fast as the CPU
allows; the report includes the measured wall-time speedup
(recorded seconds per wall second, also exported as the
``replay_speedup_ratio`` gauge).

This module deliberately does not import the fleet layer: a backtest is
a solo-session evaluation harness, and keeping it fleet-free keeps the
import graph acyclic (``repro.service.fleet`` imports the store for its
recording chaos scenario).
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..core.streaming import StreamingConfig
from ..errors import TraceStoreError
from ..obs import Instrumentation, NULL_INSTRUMENTATION
from ..obs.clock import WallClock
from ..service.clock import SimulatedClock
from ..service.sources import PacketSource
from ..service.supervisor import MonitorSupervisor, ServiceEstimate
from .backend import DirectoryBackend
from .replay import ReplayPacketSource

__all__ = [
    "ScenarioBaseline",
    "ScenarioResult",
    "BacktestReport",
    "load_manifest",
    "run_backtest",
    "StoreReplay",
    "replay_store",
    "DEFAULT_BACKTEST_STREAMING",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT_VERSION = 1

# Corpus traces are short lab captures; the service defaults (30 s
# windows) would yield no estimates, so backtests use the fleet-style
# short-window configuration.
DEFAULT_BACKTEST_STREAMING = StreamingConfig(window_s=8.0, hop_s=4.0)


@dataclass(frozen=True)
class ScenarioBaseline:
    """Expected outcome of replaying one corpus scenario.

    Attributes:
        name: Scenario (and store directory) name.
        expected_breathing_bpm: Ground-truth breathing rate the median
            estimate is compared against.
        tolerance_bpm: Maximum |median − expected| before the scenario
            fails with ``rate-regression``.
        min_estimates: Minimum usable (fresh, non-NaN) estimates the
            replay must produce.
    """

    name: str
    expected_breathing_bpm: float
    tolerance_bpm: float = 0.5
    min_estimates: int = 1

    def __post_init__(self) -> None:
        if self.expected_breathing_bpm <= 0:
            raise TraceStoreError(
                f"scenario {self.name!r}: expected_breathing_bpm must be "
                f"positive, got {self.expected_breathing_bpm}"
            )
        if self.tolerance_bpm <= 0:
            raise TraceStoreError(
                f"scenario {self.name!r}: tolerance_bpm must be positive"
            )
        if self.min_estimates < 1:
            raise TraceStoreError(
                f"scenario {self.name!r}: min_estimates must be >= 1"
            )

    @classmethod
    def from_dict(cls, name: str, data: dict[str, Any]) -> "ScenarioBaseline":
        """Build from one ``manifest.json`` scenario entry."""
        known = {
            "expected_breathing_bpm",
            "tolerance_bpm",
            "min_estimates",
        }
        unknown = set(data) - known
        if unknown:
            raise TraceStoreError(
                f"scenario {name!r}: unknown manifest keys {sorted(unknown)}"
            )
        try:
            return cls(
                name=name,
                expected_breathing_bpm=float(data["expected_breathing_bpm"]),
                tolerance_bpm=float(data.get("tolerance_bpm", 0.5)),
                min_estimates=int(data.get("min_estimates", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(
                f"scenario {name!r}: malformed manifest entry: {exc}"
            ) from exc


@dataclass
class ScenarioResult:
    """Outcome of replaying one scenario against its baseline.

    Attributes:
        name: Scenario name.
        n_records: Packets replayed (after salvage).
        recorded_duration_s: Time span of the recording.
        n_estimates: Usable (fresh, non-NaN) estimates emitted.
        median_bpm: Median usable breathing estimate (NaN when none).
        error_bpm: |median − expected| (NaN when no estimates).
        wall_s: Wall seconds the replay took.
        speedup_ratio: ``recorded_duration_s / wall_s``.
        salvage_clean: The store read back without salvage issues.
        n_salvage_issues: Issue count from the salvage pass.
        health: Final subject health string.
        failures: Machine-readable failure reasons (empty = passed).
    """

    name: str
    n_records: int
    recorded_duration_s: float
    n_estimates: int
    median_bpm: float
    error_bpm: float
    wall_s: float
    speedup_ratio: float
    salvage_clean: bool
    n_salvage_issues: int
    health: str
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether the scenario met its baseline."""
        return not self.failures

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe representation (NaN rates serialize as ``None``)."""
        return {
            "name": self.name,
            "n_records": self.n_records,
            "recorded_duration_s": self.recorded_duration_s,
            "n_estimates": self.n_estimates,
            "median_bpm": None if math.isnan(self.median_bpm) else self.median_bpm,
            "error_bpm": None if math.isnan(self.error_bpm) else self.error_bpm,
            "wall_s": self.wall_s,
            "speedup_ratio": self.speedup_ratio,
            "salvage_clean": self.salvage_clean,
            "n_salvage_issues": self.n_salvage_issues,
            "health": self.health,
            "failures": list(self.failures),
            "passed": self.passed,
        }


@dataclass
class BacktestReport:
    """All scenario results of one backtest run.

    Attributes:
        corpus_dir: The corpus that was replayed.
        results: Per-scenario outcomes, in manifest order.
    """

    corpus_dir: str
    results: list[ScenarioResult]

    @property
    def passed(self) -> bool:
        """Whether every scenario met its baseline."""
        return all(result.passed for result in self.results)

    @property
    def overall_speedup_ratio(self) -> float:
        """Total recorded seconds per total wall second across scenarios."""
        wall = sum(result.wall_s for result in self.results)
        recorded = sum(result.recorded_duration_s for result in self.results)
        return recorded / wall if wall > 0 else float("inf")

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe representation of the whole report."""
        return {
            "corpus_dir": self.corpus_dir,
            "passed": self.passed,
            "overall_speedup_ratio": (
                None
                if math.isinf(self.overall_speedup_ratio)
                else self.overall_speedup_ratio
            ),
            "results": [result.to_jsonable() for result in self.results],
        }

    def format_text(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"backtest: {len(self.results)} scenario(s) in {self.corpus_dir}"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL " + ",".join(r.failures)
            median = "nan" if math.isnan(r.median_bpm) else f"{r.median_bpm:.2f}"
            error = "nan" if math.isnan(r.error_bpm) else f"{r.error_bpm:.3f}"
            lines.append(
                f"  {r.name:<24s} {status:<28s} median={median} bpm "
                f"err={error} est={r.n_estimates} "
                f"records={r.n_records} speedup={r.speedup_ratio:.1f}x"
                + ("" if r.salvage_clean else
                   f" [salvaged, {r.n_salvage_issues} issue(s)]")
            )
        lines.append(
            f"  overall: {'PASS' if self.passed else 'FAIL'}, "
            f"{self.overall_speedup_ratio:.1f}x real time"
        )
        return "\n".join(lines)


def load_manifest(
    corpus_dir: str,
) -> tuple[str, list[ScenarioBaseline]]:
    """Parse ``manifest.json``; returns ``(stem, baselines)``.

    Raises:
        TraceStoreError: The manifest is missing, unreadable, of an
            unknown format version, or has malformed entries.
    """
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TraceStoreError(
            f"cannot read corpus manifest {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise TraceStoreError(
            f"corpus manifest {path!r} is not valid JSON: {exc}"
        ) from exc
    version = data.get("corpus_format_version")
    if version != _MANIFEST_FORMAT_VERSION:
        raise TraceStoreError(
            f"unsupported corpus manifest version {version!r} "
            f"(supported: {_MANIFEST_FORMAT_VERSION})"
        )
    stem = str(data.get("stem", "trace"))
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise TraceStoreError(
            f"corpus manifest {path!r} declares no scenarios"
        )
    baselines = [
        ScenarioBaseline.from_dict(name, dict(entry))
        for name, entry in scenarios.items()
    ]
    return stem, baselines


class StoreReplay(NamedTuple):
    """What :func:`replay_store` hands back.

    Attributes:
        estimates: Every emission of the replayed subject.
        supervisor: The supervisor that ran it (for its health summary).
        probe: An uninstrumented source over the whole store: record
            count, recorded duration, sample rate and salvage report.
        wall_s: Wall seconds from opening the store to the last estimate.
    """

    estimates: list[ServiceEstimate]
    supervisor: MonitorSupervisor
    probe: ReplayPacketSource
    wall_s: float


def replay_store(
    store_dir: str,
    stem: str,
    subject: str,
    *,
    streaming_config: StreamingConfig,
    seed: int,
    instrumentation: Instrumentation | None = None,
) -> StoreReplay:
    """Replay one recorded store through a supervised monitor.

    The store drives a :class:`~repro.service.supervisor.MonitorSupervisor`
    on a :class:`~repro.service.clock.SimulatedClock`; a source the
    supervisor rebuilds after a crash resumes at the restart time.  Wall
    time is measured with a :class:`~repro.obs.clock.WallClock`.

    Args:
        store_dir: Directory holding the store.
        stem: Store name inside ``store_dir``.
        subject: Subject name the estimates carry.
        streaming_config: Monitor window parameters.
        seed: Seed for the supervisor's retry jitter.
        instrumentation: Optional instrumentation for the supervisor and
            the sources it reads (``replay_records_total``).

    Raises:
        TraceStoreError: The store has no segments or no replayable
            records.
    """
    backend = DirectoryBackend(store_dir)
    wall = WallClock()
    wall_start = wall.now_s
    clock = SimulatedClock()

    def factory(start_at_s: float) -> PacketSource:
        return ReplayPacketSource(
            backend,
            stem,
            clock,
            start_at_s=start_at_s if start_at_s > 0 else None,
            instrumentation=instrumentation,
        )

    probe = ReplayPacketSource(backend, stem, clock)
    supervisor = MonitorSupervisor(
        clock=clock,
        streaming_config=streaming_config,
        seed=seed,
        instrumentation=instrumentation,
    )
    supervisor.add_subject(subject, factory, probe.sample_rate_hz)
    estimates = supervisor.run()
    wall_s = max(wall.now_s - wall_start, 1e-9)
    return StoreReplay(estimates, supervisor, probe, wall_s)


def _replay_scenario(
    corpus_dir: str,
    stem: str,
    baseline: ScenarioBaseline,
    *,
    seed: int,
    inject_bias_bpm: float,
    instrumentation: Instrumentation,
) -> ScenarioResult:
    store_dir = os.path.join(corpus_dir, baseline.name)
    if not os.path.isdir(store_dir):
        raise TraceStoreError(
            f"scenario {baseline.name!r}: store directory {store_dir!r} "
            "does not exist"
        )
    estimates, supervisor, probe, wall_s = replay_store(
        store_dir,
        stem,
        baseline.name,
        streaming_config=DEFAULT_BACKTEST_STREAMING,
        seed=seed,
        instrumentation=instrumentation,
    )

    usable = [
        e.rate_bpm + inject_bias_bpm
        for e in estimates
        if e.fresh and e.ok
    ]
    median_bpm = statistics.median(usable) if usable else float("nan")
    error_bpm = (
        abs(median_bpm - baseline.expected_breathing_bpm)
        if usable
        else float("nan")
    )
    duration_s = probe.duration_s
    speedup = duration_s / wall_s
    instrumentation.gauge_set(
        "replay_speedup_ratio",
        speedup,
        labels={"scenario": baseline.name},
        help_text="Recorded seconds replayed per wall-clock second.",
    )
    health = supervisor.health_summary()["health"]
    salvage = probe.salvage_report

    failures: list[str] = []
    if len(usable) < baseline.min_estimates:
        failures.append("too-few-estimates")
    if usable and error_bpm > baseline.tolerance_bpm:
        failures.append("rate-regression")
    if health == "failed":
        failures.append("subject-failed")

    return ScenarioResult(
        name=baseline.name,
        n_records=probe.n_packets_total,
        recorded_duration_s=duration_s,
        n_estimates=len(usable),
        median_bpm=median_bpm,
        error_bpm=error_bpm,
        wall_s=wall_s,
        speedup_ratio=speedup,
        salvage_clean=salvage.clean,
        n_salvage_issues=len(salvage.issues),
        health=str(health),
        failures=failures,
    )


def run_backtest(
    corpus_dir: str,
    *,
    scenarios: list[str] | None = None,
    seed: int = 0,
    inject_bias_bpm: float = 0.0,
    instrumentation: Instrumentation | None = None,
) -> BacktestReport:
    """Replay a corpus through the pipeline and diff against baselines.

    Every scenario replays through :func:`replay_store` with
    :data:`DEFAULT_BACKTEST_STREAMING` (8 s windows, 4 s hop).

    Args:
        corpus_dir: Corpus directory holding ``manifest.json`` + stores.
        scenarios: Subset of scenario names to run (default: all, in
            manifest order).
        seed: Seed for the supervisor's retry jitter.
        inject_bias_bpm: Deliberate estimate bias — a gate self-test
            knob: a non-zero bias models an estimator regression and
            must make the backtest fail.
        instrumentation: Optional :class:`repro.obs.Instrumentation`
            (``replay_records_total``, ``replay_speedup_ratio`` and the
            supervisor's series).

    Raises:
        TraceStoreError: Bad manifest, unknown scenario selection, or a
            scenario store that is missing entirely.
    """
    stem, baselines = load_manifest(corpus_dir)
    if scenarios is not None:
        known = {b.name for b in baselines}
        unknown = [name for name in scenarios if name not in known]
        if unknown:
            raise TraceStoreError(
                f"unknown scenario(s) {unknown}; corpus has {sorted(known)}"
            )
        baselines = [b for b in baselines if b.name in set(scenarios)]
    obs = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    results = [
        _replay_scenario(
            corpus_dir,
            stem,
            baseline,
            seed=seed,
            inject_bias_bpm=inject_bias_bpm,
            instrumentation=obs,
        )
        for baseline in baselines
    ]
    return BacktestReport(corpus_dir=str(corpus_dir), results=results)
