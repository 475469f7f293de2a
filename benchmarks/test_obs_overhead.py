"""Observability — the instrumented pipeline stays within 5 % of bare.

The design bet of ``repro.obs`` is that recording into the registry is a
dict lookup plus an add, so enabling metrics must not change the realtime
story.  This bench runs the full processing path (phase difference →
calibration → selection → DWT → estimators) interleaved with and without
:class:`~repro.obs.Instrumentation` and gates the ratio of the *minimum*
round times — minima because they see the least scheduler noise; an
optimistic estimator is exactly what a regression gate wants to compare.

CI's ``obs`` job runs this file and uploads the printed report plus the
``BENCH_obs.json`` artifact written next to the working directory.
"""

import time

from conftest import banner, write_bench_json

from repro import PhaseBeat, capture_trace, laboratory_scenario
from repro.eval.reporting import format_table
from repro.obs import Instrumentation, MetricsRegistry

_ROUNDS = 8
_MAX_OVERHEAD_FRACTION = 0.05


def _time_once(pipeline, trace) -> float:
    start = time.perf_counter()
    pipeline.process(trace, estimate_heart=True)
    return time.perf_counter() - start


def _measure(bare, instrumented, trace) -> tuple[float, float]:
    """Best-of-N for both pipelines, alternating order each round.

    Alternation keeps a one-sided noise burst (another process waking up
    mid-run) from handing one side all the lucky rounds; minima are the
    least-noise estimator for a regression gate.
    """
    bare_times, instrumented_times = [], []
    for i in range(_ROUNDS):
        pair = [
            (bare_times, bare, trace),
            (instrumented_times, instrumented, trace),
        ]
        if i % 2:
            pair.reverse()
        for times, pipeline, t in pair:
            times.append(_time_once(pipeline, t))
    return min(bare_times), min(instrumented_times)


def test_obs_overhead_under_five_percent():
    trace = capture_trace(
        laboratory_scenario(clutter_seed=1), duration_s=30.0, seed=1
    )
    bare = PhaseBeat(enforce_stationarity=False)
    registry = MetricsRegistry()
    instrumented = PhaseBeat(
        enforce_stationarity=False,
        instrumentation=Instrumentation(registry=registry),
    )

    # Warm-up: first runs pay FFT planning and allocator caches for both.
    _time_once(bare, trace)
    _time_once(instrumented, trace)

    best_bare, best_instrumented = _measure(bare, instrumented, trace)
    if best_instrumented > best_bare * (1.0 + _MAX_OVERHEAD_FRACTION):
        # One full re-measure before failing: a shared-runner noise burst
        # must not fail CI, a real regression will fail twice.
        best_bare, best_instrumented = _measure(bare, instrumented, trace)
    overhead_fraction = best_instrumented / best_bare - 1.0

    n_observations = sum(
        series.count
        for series in registry
        if series.kind == "histogram"
    )

    banner("Observability — instrumentation overhead (full pipeline)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["rounds", _ROUNDS],
                ["best bare (s)", best_bare],
                ["best instrumented (s)", best_instrumented],
                ["overhead fraction", overhead_fraction],
                ["budget", _MAX_OVERHEAD_FRACTION],
                ["metric series", len(registry)],
                ["stage observations", n_observations],
            ],
        )
    )

    write_bench_json(
        "OBS_BENCH_JSON",
        {
            "rounds": _ROUNDS,
            "best_bare_s": best_bare,
            "best_instrumented_s": best_instrumented,
            "overhead_fraction": overhead_fraction,
            "budget_fraction": _MAX_OVERHEAD_FRACTION,
            "n_series": len(registry),
        },
    )

    # The registry actually saw the run — a 0 % overhead "win" because
    # instrumentation silently disconnected would be a false pass.
    assert len(registry) > 0
    assert n_observations > 0
    assert best_instrumented <= best_bare * (1.0 + _MAX_OVERHEAD_FRACTION), (
        f"instrumented pipeline is {overhead_fraction:.1%} slower than bare "
        f"(budget {_MAX_OVERHEAD_FRACTION:.0%})"
    )
