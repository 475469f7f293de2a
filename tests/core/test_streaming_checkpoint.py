"""Checkpoint/restore on the streaming monitor.

The supervisor's restart-from-checkpoint guarantee is only worth having if
a restored monitor is *bit-identical* to one that never stopped — same
buffer, same counters, same emissions.  These tests pin that down.
"""

import numpy as np
import pytest

from repro import capture_trace, laboratory_scenario
from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.errors import CheckpointError

# 8 s windows on the 10 s / 200 Hz shared trace: long enough for real
# (fresh) estimates, so bit-identity below covers actual rate values.
CONFIG = StreamingConfig(window_s=8.0, hop_s=0.5)


def push_range(monitor, trace, start, stop):
    out = []
    for k in range(start, stop):
        estimate = monitor.push_packet(trace.csi[k], trace.timestamps_s[k])
        if estimate is not None:
            out.append(estimate)
    return out


@pytest.fixture(params=["200hz", "20hz"])
def resume_case(request, short_lab_trace, lab_person):
    """A trace and the packet index to checkpoint it at."""
    if request.param == "200hz":
        return short_lab_trace, short_lab_trace.n_packets // 2
    # At 20 Hz the decimation factor is 1, so the retained buffer is
    # trimmed row by row; by 24 s of a 30 s capture that has started.
    scenario = laboratory_scenario([lab_person], clutter_seed=2)
    trace = capture_trace(scenario, duration_s=30.0, sample_rate_hz=20.0, seed=2)
    return trace, 480


class TestCheckpointRoundTrip:
    def test_restored_run_is_bit_identical(self, resume_case):
        trace, cut = resume_case

        # Reference: one uninterrupted monitor over the whole trace.
        reference = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        ref_estimates = push_range(reference, trace, 0, trace.n_packets)
        assert any(e.fresh for e in ref_estimates), (
            "reference run produced no fresh estimates"
        )

        # Interrupted: first part, checkpoint, restore into a fresh
        # monitor, the rest.
        first = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        estimates_a = push_range(first, trace, 0, cut)
        state = first.checkpoint()
        if trace.sample_rate_hz == 20.0:
            assert len(state["buffer"]) < cut, "checkpoint before eviction"

        second = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        second.restore(state)
        estimates_b = push_range(second, trace, cut, trace.n_packets)

        resumed = estimates_a + estimates_b
        assert len(resumed) == len(ref_estimates)
        for ref, res in zip(ref_estimates, resumed):
            assert res.time_s == ref.time_s
            assert res.fresh == ref.fresh
            assert res.held_over == ref.held_over
            assert res.rejected_reason == ref.rejected_reason
            if ref.result is None:
                assert res.result is None
            else:
                # Bit-identical, not approximately equal.
                assert (
                    res.result.breathing_rates_bpm
                    == ref.result.breathing_rates_bpm
                )

        assert second.counters == reference.counters

    def test_checkpoint_is_a_snapshot_not_a_view(self, short_lab_trace):
        trace = short_lab_trace
        monitor = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        push_range(monitor, trace, 0, 400)
        state = monitor.checkpoint()
        n_buffered = len(state["buffer"])
        # Keep pushing: the snapshot must not change underneath.
        push_range(monitor, trace, 400, 800)
        assert len(state["buffer"]) == n_buffered

    def test_checkpoint_is_json_free_but_copyable(self, short_lab_trace):
        import copy

        trace = short_lab_trace
        monitor = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        push_range(monitor, trace, 0, 300)
        state = copy.deepcopy(monitor.checkpoint())
        fresh = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        fresh.restore(state)
        assert len(fresh.counters) == len(monitor.counters)


class TestRestoreValidation:
    def test_rejects_wrong_version(self, short_lab_trace):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        state = monitor.checkpoint()
        state["version"] = 999
        with pytest.raises(CheckpointError):
            StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG).restore(
                state
            )

    def test_rejects_wrong_sample_rate(self, short_lab_trace):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        state = monitor.checkpoint()
        with pytest.raises(CheckpointError):
            StreamingMonitor(100.0, CONFIG).restore(state)

    def test_rejects_wrong_config(self, short_lab_trace):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        state = monitor.checkpoint()
        other = StreamingConfig(window_s=8.0, hop_s=2.0)
        with pytest.raises(CheckpointError):
            StreamingMonitor(short_lab_trace.sample_rate_hz, other).restore(
                state
            )

    def test_rejects_malformed_state(self, short_lab_trace):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        with pytest.raises(CheckpointError):
            monitor.restore({"version": 1})

    def test_rejects_corrupt_buffer_shapes(self, short_lab_trace):
        trace = short_lab_trace
        monitor = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        push_range(monitor, trace, 0, 100)
        state = monitor.checkpoint()
        state["buffer"][0] = np.zeros((2, 2), dtype=complex)
        with pytest.raises(CheckpointError):
            StreamingMonitor(trace.sample_rate_hz, CONFIG).restore(state)
