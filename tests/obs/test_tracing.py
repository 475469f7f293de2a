"""StageTimer semantics on a simulated clock."""

import pytest

from repro.obs import MetricsRegistry, StageTimer
from repro.service.clock import SimulatedClock


class TestStageTimer:
    def test_feeds_histogram(self):
        clock = SimulatedClock()
        hist = MetricsRegistry().histogram(
            "stage_duration_s", bucket_bounds=(0.1, 1.0)
        )
        timer = StageTimer(clock, histogram=hist)
        with timer:
            clock.advance(0.5)
        assert timer.last_duration_s == pytest.approx(0.5)
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.5)

    def test_reusable_across_with_blocks(self):
        clock = SimulatedClock()
        hist = MetricsRegistry().histogram(
            "stage_duration_s", bucket_bounds=(1.0,)
        )
        timer = StageTimer(clock, histogram=hist)
        with timer:
            clock.advance(0.2)
        with timer:
            clock.advance(0.3)
        assert hist.count == 2
        assert timer.last_duration_s == pytest.approx(0.3)

    def test_no_sinks_still_times(self):
        clock = SimulatedClock()
        timer = StageTimer(clock)
        with timer:
            clock.advance(4.0)
        assert timer.last_duration_s == pytest.approx(4.0)
