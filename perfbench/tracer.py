"""Span tracing around the public entry point of each layer.

Tracing is only ever installed for the traced run; timed runs wrap
nothing.  :class:`SpanTracer` replaces each entry point listed in
:data:`ENTRY_POINTS` with a wrapper that records one span per call —
entry point, start, end, parent span and window id — into flat typed
arrays (a run makes 0.1–2 M per-packet calls, so no per-span objects),
plus the few counts that are only visible at those boundaries.  The
spans are written out once, after the traced pass.

Window ids: a span that runs inside ``MonitorSupervisor.tick`` carries
``session_index * 1_000_000 + k``, where ``k`` counts the windows that
session has emitted so far, so every span that went into one window shares
an id.  Spans outside any tick (gateway rounds, ingest into the queue,
upstream reads, store reads at construction) carry ``-1``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable

import numpy as np

from .stats import span_self_times, uncovered_time

__all__ = ["LAYERS", "ENTRY_POINTS", "SpanTracer"]

# Layers in report order, each named after the module(s) it covers.
LAYERS: tuple[str, ...] = (
    "gateway",
    "queue",
    "supervisor",
    "sources",
    "streaming",
    "calibrator",
    "rolling",
    "pipeline",
    "csi_ratio",
    "amplitude",
    "tap",
    "replay",
)

# (layer, module, class or None for a module-level binding, attribute).
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("gateway", "repro.service.fleet.gateway", "FleetGateway", "run_round"),
    ("queue", "repro.service.fleet.queue", "BoundedPacketQueue", "offer"),
    ("supervisor", "repro.service.supervisor", "MonitorSupervisor", "tick"),
    ("sources", "repro.service.sources", "ResilientSource", "next_packet"),
    ("sources", "repro.service.sources", "TracePacketSource", "next_packet"),
    ("streaming", "repro.core.streaming", "StreamingMonitor", "push_packet"),
    ("streaming", "repro.core.streaming", "StreamingMonitor", "checkpoint"),
    (
        "calibrator",
        "repro.dsp.streaming_kernels.calibrator",
        "StreamingCalibrator",
        "extend",
    ),
    # The name the calibrator module calls, not the defining module's.
    ("rolling", "repro.dsp.streaming_kernels.calibrator", None, "trailing_median"),
    ("pipeline", "repro.core.pipeline", "PhaseBeat", "process"),
    ("pipeline", "repro.core.pipeline", "PhaseBeat", "estimate_from_matrix"),
    (
        "csi_ratio",
        "repro.extensions.csi_ratio",
        "CsiRatioEstimator",
        "estimate_breathing_bpm",
    ),
    (
        "amplitude",
        "repro.baselines.amplitude",
        "AmplitudeMethod",
        "estimate_breathing_bpm",
    ),
    ("tap", "repro.store.tap", "RecordingTap", "next_packet"),
    ("tap", "repro.store.writer", "TraceWriter", "append"),
    ("tap", "repro.store.writer", "TraceWriter", "flush"),
    ("replay", "repro.store.replay", "ReplayPacketSource", "next_packet"),
    ("replay", "repro.store.reader", "TraceReader", "read_packets"),
)

# Window gates that reject before any estimator runs.
_GATE_REASONS = ("data-gap", "degraded-input")

_WINDOW_STRIDE = 1_000_000


def _entry_label(entry: tuple[str, str, str | None, str]) -> str:
    _, module, owner, attr = entry
    return f"{module}.{owner}.{attr}" if owner else f"{module}.{attr}"


class SpanTracer:
    """Records spans and boundary counts while installed.

    Use as a context manager around exactly one pass.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.entries = array("h")
        self.windows = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.window_id = -1
        self._session: str | None = None
        self._session_index: dict[str, int] = {}
        self._session_windows: dict[str, int] = {}
        self._push_ran_batch = False
        self._resilient: dict[int, Any] = {}
        self.queue_depth_max = 0
        self.windows_emitted = 0
        self.incremental_windows = 0
        self.rejected_windows = 0
        self.reader_records = 0

    # ------------------------------------------------------------------
    # Boundary hooks (run outside the measured call, inside the parent).

    def _before_tick(self, args: tuple) -> None:
        name = args[1]
        self._session = name
        index = self._session_index.setdefault(name, len(self._session_index))
        emitted = self._session_windows.setdefault(name, 0)
        self.window_id = index * _WINDOW_STRIDE + emitted

    def _after_tick(self, args: tuple, result: Any) -> None:
        self._session = None
        self.window_id = -1

    def _before_push(self, args: tuple) -> None:
        self._push_ran_batch = False

    def _after_push(self, args: tuple, result: Any) -> None:
        if result is None:
            return
        self.windows_emitted += 1
        if result.rejected_reason is not None:
            self.rejected_windows += 1
        if not self._push_ran_batch and result.rejected_reason not in _GATE_REASONS:
            self.incremental_windows += 1
        if self._session is not None:
            self._session_windows[self._session] += 1
            self.window_id += 1

    def _before_process(self, args: tuple) -> None:
        self._push_ran_batch = True

    def _after_offer(self, args: tuple, result: Any) -> None:
        depth = len(args[0])
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def _after_resilient(self, args: tuple, result: Any) -> None:
        self._resilient[id(args[0])] = args[0]

    def _after_read(self, args: tuple, result: Any) -> None:
        self.reader_records += len(result[0])

    # ------------------------------------------------------------------
    # Installation.

    def _wrap(
        self,
        entry: int,
        original: Callable[..., Any],
        before: Callable[[tuple], None] | None,
        after: Callable[[tuple, Any], None] | None,
    ) -> Callable[..., Any]:
        starts, ends, parents = self.starts, self.ends, self.parents
        entries, windows, stack = self.entries, self.windows, self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            entries.append(entry)
            windows.append(tracer.window_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _hooks(self, owner: str | None, attr: str) -> tuple[Any, Any]:
        table = {
            ("MonitorSupervisor", "tick"): (self._before_tick, self._after_tick),
            ("StreamingMonitor", "push_packet"): (
                self._before_push,
                self._after_push,
            ),
            ("PhaseBeat", "process"): (self._before_process, None),
            ("BoundedPacketQueue", "offer"): (None, self._after_offer),
            ("ResilientSource", "next_packet"): (None, self._after_resilient),
            ("TraceReader", "read_packets"): (None, self._after_read),
        }
        return table.get((owner, attr), (None, None))

    def __enter__(self) -> "SpanTracer":
        for i, (_, module_name, owner_name, attr) in enumerate(ENTRY_POINTS):
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            before, after = self._hooks(owner_name, attr)
            setattr(owner, attr, self._wrap(i, original, before, after))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results.

    @property
    def n_spans(self) -> int:
        """Spans recorded so far."""
        return len(self.starts)

    def source_retries(self) -> int:
        """Transient-error retries over every supervised source seen."""
        return sum(
            int(src.counters["transient_errors"])
            for src in self._resilient.values()
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, self time and share of ``wall_s``, plus the
        checkpoint time and the wall time outside every span."""
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        entries = np.frombuffer(self.entries, dtype=np.int16)
        self_s = span_self_times(starts, ends, parents)
        layer_of_entry = np.array(
            [LAYERS.index(layer) for layer, *_ in ENTRY_POINTS], dtype=np.int64
        )
        layer_of_span = layer_of_entry[entries]
        calls = np.bincount(layer_of_span, minlength=len(LAYERS))
        self_by_layer = np.bincount(
            layer_of_span, weights=self_s, minlength=len(LAYERS)
        )
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.self_s"] = float(self_by_layer[i])
            out[f"{layer}.share"] = float(self_by_layer[i]) / wall_s
        checkpoint = ENTRY_POINTS.index(
            ("streaming", "repro.core.streaming", "StreamingMonitor", "checkpoint")
        )
        is_checkpoint = entries == checkpoint
        out["supervisor.checkpoints"] = int(is_checkpoint.sum())
        out["supervisor.checkpoint_s"] = float(
            (ends[is_checkpoint] - starts[is_checkpoint]).sum()
        )
        writer_append = ENTRY_POINTS.index(
            ("tap", "repro.store.writer", "TraceWriter", "append")
        )
        writer_flush = ENTRY_POINTS.index(
            ("tap", "repro.store.writer", "TraceWriter", "flush")
        )
        out["writer.records"] = int((entries == writer_append).sum())
        out["writer.flushes"] = int((entries == writer_flush).sum())
        out["trace.uncovered_s"] = uncovered_time(wall_s, starts, ends, parents)
        return out

    def write(self, path: str) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        np.savez(
            path,
            starts=np.frombuffer(self.starts, dtype=float),
            ends=np.frombuffer(self.ends, dtype=float),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            entries=np.frombuffer(self.entries, dtype=np.int16),
            windows=np.frombuffer(self.windows, dtype=np.int64),
            entry_names=np.array([_entry_label(e) for e in ENTRY_POINTS]),
            layer_of_entry=np.array([e[0] for e in ENTRY_POINTS]),
        )
