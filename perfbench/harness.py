"""Timed and traced runs of one workload, and the metrics they report.

A timed run sets up ``SETUP_REPEATS`` times (reporting the median), calls
``gc.collect()`` and ``gc.freeze()``, runs one untimed warm-up pass, then
timed passes until ``--seconds`` have passed and at least
``MIN_TIMED_PASSES`` are done.  Throughput is the median over the timed
passes; latency percentiles are taken over the windows of all of them.  Timed passes wrap no program method: the only clock reads are
one per gateway round or supervisor tick, plus one per emitted fleet
window (where the gateway reports the emission).

A traced run sets up once, runs the untimed warm-up, one untraced
reference pass and one traced pass, and reports per-layer metrics from the
traced pass.

Both check the outputs: no session may be unfinished, shed, throttled or
degraded and no queue packet dropped; every pass must emit at least 100
windows; and every pass's estimate-stream digest must equal the others'
and the digest an earlier run of the same code and seed recorded.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import time
from pathlib import Path

from .stats import (
    BenchError,
    check_digests,
    combined_digest,
    percentile,
    window_failure_ratio,
)
from .tracer import SpanTracer
from .workloads import (
    PassResult,
    SessionInput,
    WorkloadSpec,
    make_inputs,
    promised_per_session,
    run_pass,
)

__all__ = ["SETUP_REPEATS", "MIN_TIMED_PASSES", "timed_run", "traced_run"]

SETUP_REPEATS = 3
MIN_TIMED_PASSES = 2
MIN_WINDOWS_PER_PASS = 100

_FORBIDDEN_FLEET_EVENTS = ("session-throttled", "session-degraded", "session-shed")


def _check_pass(spec: WorkloadSpec, result: PassResult) -> None:
    if result.n_windows < MIN_WINDOWS_PER_PASS:
        raise BenchError(
            f"{spec.name}: {result.n_windows} windows emitted, "
            f"need {MIN_WINDOWS_PER_PASS}"
        )
    if spec.kind != "fleet":
        return
    for kind in _FORBIDDEN_FLEET_EVENTS:
        n = result.event_kinds.count(kind)
        if n:
            raise BenchError(f"{spec.name}: {n} {kind} event(s)")
    n_finished = result.event_kinds.count("session-finished")
    if n_finished != spec.n_sessions:
        raise BenchError(
            f"{spec.name}: {n_finished}/{spec.n_sessions} sessions finished"
        )
    if result.queue_dropped:
        raise BenchError(
            f"{spec.name}: {result.queue_dropped} queue packets dropped"
        )


def _errors_bpm(result: PassResult, sessions: list[SessionInput]) -> list[float]:
    """|rate − truth| of every emitted estimate that carries a rate."""
    truth = {s.session_id: s.truth_bpm for s in sessions}
    return [
        abs(e.rate_bpm - truth[sid])
        for sid, stream in result.estimates.items()
        for e in stream
        if e.ok
    ]


def _failure_ratio(
    spec: WorkloadSpec, result: PassResult, sessions: list[SessionInput]
) -> float:
    with_rate = [
        sum(1 for e in result.estimates[s.session_id] if e.ok) for s in sessions
    ]
    return window_failure_ratio(promised_per_session(spec), with_rate)


def _source_fingerprint(root: Path) -> str:
    """Hash of the program and benchmark sources: equal code, equal key."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def _check_against_earlier_runs(
    root: Path, spec: WorkloadSpec, seed: int, digest: str
) -> None:
    """Compare with (or record) the digest of this code, workload and seed.

    The record lives in ``.perfbench/digests.json`` inside the checkout;
    its key includes a hash of every source file, so a changed program
    starts a fresh entry instead of tripping the check.
    """
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    path = state / "digests.json"
    known: dict[str, str] = {}
    if path.is_file():
        known = json.loads(path.read_text(encoding="utf-8"))
    key = f"{spec.name}:{seed}:{_source_fingerprint(root)}"
    if key in known:
        check_digests([("earlier run", known[key]), ("this run", digest)])
        return
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _setup(spec: WorkloadSpec, seed: int, repeats: int) -> tuple[list[SessionInput], list[float]]:
    sessions: list[SessionInput] | None = None
    times = []
    for _ in range(repeats):
        sessions = None
        gc.collect()
        t0 = time.perf_counter()
        sessions = make_inputs(spec, seed)
        times.append(time.perf_counter() - t0)
    assert sessions is not None
    gc.collect()
    gc.freeze()
    return sessions, times


def _one_pass(spec: WorkloadSpec, sessions: list[SessionInput], seed: int) -> PassResult:
    gc.collect()
    result = run_pass(spec, sessions, seed)
    _check_pass(spec, result)
    return result


def timed_run(
    spec: WorkloadSpec, seed: int, seconds: float, root: Path
) -> tuple[dict[str, tuple[float, str]], int]:
    """End-to-end metrics of one workload; returns (metrics, passes)."""
    sessions, setup_times = _setup(spec, seed, SETUP_REPEATS)
    warm = _one_pass(spec, sessions, seed)
    passes: list[PassResult] = []
    begin = time.perf_counter()
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - begin < seconds:
        passes.append(_one_pass(spec, sessions, seed))
    digest = check_digests(
        [("warm-up", combined_digest(warm.digests()))]
        + [
            (f"timed pass {i}", combined_digest(p.digests()))
            for i, p in enumerate(passes)
        ]
    )
    _check_against_earlier_runs(root, spec, seed, digest)

    errors = _errors_bpm(passes[0], sessions)
    # Every timed pass's windows, so the tail percentile rests on more
    # samples than one pass holds.
    latencies_ms = [x for p in passes for x in p.latencies_ms]
    capture_s = sum(s.capture_s(spec.rate_hz) for s in sessions)
    median = statistics.median
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "session_seconds_per_s": (
            median(capture_s / p.wall_s for p in passes),
            "capture-s/wall-s",
        ),
        "window_latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "window_latency_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "breathing_error_p50_bpm": (percentile(errors, 50), "bpm"),
        "breathing_error_p90_bpm": (percentile(errors, 90), "bpm"),
        "window_failure_ratio": (_failure_ratio(spec, passes[0], sessions), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    print(
        f"perfbench: {spec.name} seed={seed} digest={digest} "
        f"passes={len(passes)} windows/pass={passes[0].n_windows} "
        f"latency samples={len(latencies_ms)} "
        f"rated windows={len(errors)}"
    )
    return metrics, len(passes)


def traced_run(
    spec: WorkloadSpec, seed: int, root: Path
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload from one traced pass."""
    sessions, _ = _setup(spec, seed, 1)
    warm = _one_pass(spec, sessions, seed)
    reference = _one_pass(spec, sessions, seed)
    gc.collect()
    tracer = SpanTracer()
    with tracer:
        t0 = time.perf_counter()
        traced = run_pass(spec, sessions, seed)
        traced_wall_s = time.perf_counter() - t0
    _check_pass(spec, traced)
    digest = check_digests(
        [
            ("warm-up", combined_digest(warm.digests())),
            ("untraced pass", combined_digest(reference.digests())),
            ("traced pass", combined_digest(traced.digests())),
        ]
    )
    _check_against_earlier_runs(root, spec, seed, digest)

    layers = tracer.layer_metrics(traced_wall_s)
    estimates = [e for stream in traced.estimates.values() for e in stream]
    kinds = traced.event_kinds
    metrics: dict[str, tuple[float, str]] = {}
    for name, value in layers.items():
        if name.endswith((".calls", ".checkpoints", ".records", ".flushes")):
            unit = "count"
        elif name.endswith("_s"):
            unit = "s"
        else:
            unit = "ratio"
        metrics[name] = (value, unit)
    metrics.update(
        {
            "gateway.rounds": (traced.rounds, "count"),
            "gateway.sessions_throttled": (kinds.count("session-throttled"), "count"),
            "gateway.sessions_degraded": (kinds.count("session-degraded"), "count"),
            "gateway.sessions_shed": (kinds.count("session-shed"), "count"),
            "queue.dropped_packets": (traced.queue_dropped, "count"),
            "queue.depth_max": (tracer.queue_depth_max, "count"),
            "supervisor.fallback_window_ratio": (
                sum(1 for e in estimates if e.fallback_level > 0) / len(estimates),
                "ratio",
            ),
            "supervisor.monitor_restarts": (kinds.count("monitor-restart"), "count"),
            "sources.retries": (tracer.source_retries(), "count"),
            "streaming.windows": (tracer.windows_emitted, "count"),
            "streaming.incremental_window_ratio": (
                tracer.incremental_windows / max(1, tracer.windows_emitted),
                "ratio",
            ),
            "streaming.rejected_windows": (tracer.rejected_windows, "count"),
            "writer.bytes": (traced.store_bytes, "bytes"),
            "reader.records": (tracer.reader_records, "count"),
            "trace.overhead_ratio": (traced_wall_s / reference.wall_s - 1.0, "ratio"),
            "trace.wall_s": (traced_wall_s, "s"),
        }
    )
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    tracer.write(str(state / f"spans-{spec.name}.npz"))
    print(
        f"perfbench: {spec.name} seed={seed} digest={digest} "
        f"spans={tracer.n_spans} traced={traced_wall_s:.3f}s "
        f"untraced={reference.wall_s:.3f}s"
    )
    return metrics
