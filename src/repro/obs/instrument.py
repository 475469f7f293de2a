"""The facade instrumented components talk to.

Every instrumented class in the repo takes an optional
``instrumentation:`` argument and stores
``instrumentation or NULL_INSTRUMENTATION``; the null object makes every
recording call a cheap early-return, so un-instrumented hot paths pay one
attribute check and nothing else (the <5 % overhead gate in
``benchmarks/test_obs_overhead.py`` measures the *enabled* case).

One :class:`Instrumentation` bundles the two collaborators:

* a :class:`~repro.obs.clock.Clock` (wall or simulated) all timers read,
* a :class:`~repro.obs.registry.MetricsRegistry` all metrics land in.

:class:`StageTimer` is the block timer behind :meth:`Instrumentation.stage`.

Usage from a component::

    self._obs = instrumentation or NULL_INSTRUMENTATION
    ...
    with self._obs.stage("calibration", component="pipeline"):
        calibrated = calibrate(...)
    self._obs.count("monitor_rejected_windows_total", labels={"reason": r})
"""

from __future__ import annotations

from contextlib import nullcontext
from types import TracebackType
from typing import ContextManager, Mapping

from .clock import Clock, WallClock
from .registry import (
    DEFAULT_DURATION_BUCKETS_S,
    Histogram,
    MetricsRegistry,
)

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION", "StageTimer"]

_NULL_CONTEXT: ContextManager[None] = nullcontext()


class StageTimer:
    """Times one block on a clock, optionally into a histogram.

    Reusable but not reentrant: each ``with`` use times one interval.
    """

    def __init__(self, clock: Clock, histogram: Histogram | None = None):
        self._clock = clock
        self._histogram = histogram
        self._start_s = 0.0
        self.last_duration_s = 0.0

    def __enter__(self) -> "StageTimer":
        """Start timing."""
        self._start_s = self._clock.now_s
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        """Stop timing and record the elapsed seconds into the histogram."""
        self.last_duration_s = self._clock.now_s - self._start_s
        if self._histogram is not None:
            self._histogram.observe(self.last_duration_s)


class Instrumentation:
    """Bundle of clock + registry with no-op mode.

    With ``enabled=False`` every method is a do-nothing early return and
    ``stage`` hands back a shared null context manager — this is what the
    module-level :data:`NULL_INSTRUMENTATION` singleton is.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.clock: Clock = clock if clock is not None else WallClock()
        self.registry = registry if registry is not None else MetricsRegistry()

    def __repr__(self) -> str:
        return (
            f"Instrumentation(enabled={self.enabled}, clock={self.clock!r}, "
            f"n_series={len(self.registry)})"
        )

    def stage(
        self,
        stage: str,
        component: str = "pipeline",
    ) -> ContextManager[object]:
        """Context manager timing one named stage of a component.

        Records into the ``{component}_stage_duration_s`` histogram with a
        ``stage`` label.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        histogram = self.registry.histogram(
            f"{component}_stage_duration_s",
            help_text=f"Wall/simulated seconds spent per {component} stage.",
            labels={"stage": stage},
            bucket_bounds=DEFAULT_DURATION_BUCKETS_S,
        )
        return StageTimer(self.clock, histogram)

    def count(
        self,
        name: str,
        amount: float = 1.0,
        labels: Mapping[str, str] | None = None,
        help_text: str = "",
    ) -> None:
        """Increment the counter series ``(name, labels)`` by ``amount``."""
        if not self.enabled:
            return
        self.registry.counter(name, help_text=help_text, labels=labels).inc(
            amount
        )

    def gauge_set(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | None = None,
        help_text: str = "",
    ) -> None:
        """Set the gauge series ``(name, labels)`` to ``value``."""
        if not self.enabled:
            return
        self.registry.gauge(name, help_text=help_text, labels=labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | None = None,
        help_text: str = "",
        bucket_bounds: tuple[float, ...] = DEFAULT_DURATION_BUCKETS_S,
    ) -> None:
        """Record ``value`` into the histogram series ``(name, labels)``."""
        if not self.enabled:
            return
        self.registry.histogram(
            name,
            help_text=help_text,
            labels=labels,
            bucket_bounds=bucket_bounds,
        ).observe(value)


# Shared no-op used by every component without explicit instrumentation;
# its registry stays empty forever because `enabled` short-circuits all
# recording paths.
NULL_INSTRUMENTATION = Instrumentation(enabled=False)
