"""repro.obs — metrics and stage timing for the pipeline.

The subsystem has four small parts:

* :mod:`~repro.obs.clock` — the :class:`Clock` protocol and the single
  sanctioned :class:`WallClock` shim (PL001 bans ``time`` everywhere else
  under ``src/``); :class:`repro.service.SimulatedClock` satisfies the
  same protocol for deterministic runs.
* :mod:`~repro.obs.registry` — :class:`MetricsRegistry` holding counters,
  gauges, and fixed-bucket histograms, every name carrying a PL003 unit
  suffix.
* :mod:`~repro.obs.instrument` — the :class:`Instrumentation` facade
  components record through, and the :class:`StageTimer` block timer.
* :mod:`~repro.obs.export` — canonical-JSON snapshots (byte-identical
  under fixed seed + simulated clock), Prometheus text format, table
  rendering, and snapshot diffing.

Components accept an optional :class:`Instrumentation` facade and fall
back to the no-op :data:`NULL_INSTRUMENTATION`; see
``docs/observability.md`` for the metric catalogue.
"""

from .clock import Clock, WallClock
from .export import (
    canonical_json,
    diff_snapshots,
    load_snapshot,
    render_prometheus,
    render_table,
)
from .instrument import NULL_INSTRUMENTATION, Instrumentation, StageTimer
from .naming import (
    METRIC_UNIT_SUFFIXES,
    validate_label_name,
    validate_metric_name,
)
from .registry import (
    DEFAULT_DURATION_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_DURATION_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "METRIC_UNIT_SUFFIXES",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "StageTimer",
    "WallClock",
    "canonical_json",
    "diff_snapshots",
    "load_snapshot",
    "render_prometheus",
    "render_table",
    "validate_label_name",
    "validate_metric_name",
]
