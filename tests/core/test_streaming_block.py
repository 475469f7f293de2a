"""``StreamingMonitor.push_block`` against ``push_packet`` one at a time.

The fleet drain hands a monitor whole blocks of queued packets: it calls
``push_block``, then ``push_packet`` for the packet the block stops at, and
offers the rest again.  These tests feed traces through random block
splits that way, in lockstep with a monitor fed one ``push_packet`` per
packet, and require the two to agree after every call: the canonical
estimates, the counters and the whole ``checkpoint()`` state.  The traces
cover every reason ``push_block`` has to stop: a window to emit, the
stream's first packet, non-finite CSI or timestamps, a backward step, a
stream reset, a timing anomaly, and a hop stretch applied mid-stream.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro import capture_trace, laboratory_scenario
from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.rf.impairments import BernoulliLoss, apply_impairments

CONFIG = StreamingConfig(window_s=4.0, hop_s=0.5, holdover_s=6.0)
SPLIT_SEEDS = (0, 1, 2)


def canon(obj):
    """A JSON-ready, exact rendering (floats by repr, arrays by digest)."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return [str(obj.dtype), list(obj.shape), hashlib.sha256(data).hexdigest()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, float):
        return repr(obj)
    return obj


def canon_json(obj) -> str:
    return json.dumps(canon(obj), sort_keys=True)


def monitor_state(monitor: StreamingMonitor) -> str:
    return canon_json(
        {"checkpoint": monitor.checkpoint(), "win_start": monitor._win_start}
    )


def block_sizes(n_packets: int, rate_hz: float, seed: int) -> list[int]:
    """Random block sizes covering ``n_packets``: mostly up to one second
    of packets, sometimes single packets."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n_packets:
        if rng.random() < 0.2:
            sizes.append(1)
        else:
            sizes.append(int(rng.integers(2, int(rate_hz) + 2)))
    return sizes


def run_lockstep(csi, times, rate_hz, sizes, *, stretch_at=None):
    """Feed ``push_block``/``push_packet`` blocks and a per-packet monitor
    side by side, asserting equal state after every call.

    Returns the number of packets ``push_block`` absorbed.
    """
    csi = list(csi)
    times = [float(t) for t in times]
    per_packet = StreamingMonitor(rate_hz, CONFIG)
    blocked = StreamingMonitor(rate_hz, CONFIG)
    ref_estimates, block_estimates = [], []
    absorbed = 0
    bounds = set(np.cumsum(sizes).tolist()) | {0, len(csi)}
    if stretch_at is not None:
        # The supervisor applies a stretch between drains: a block edge.
        bounds.add(stretch_at)
    bounds = sorted(b for b in bounds if b <= len(csi))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if start == stretch_at:
            per_packet.set_hop_stretch(2.0)
            blocked.set_hop_stretch(2.0)
        k = start
        while k < stop:
            n = blocked.push_block(csi[k:stop], times[k:stop])
            for j in range(k, k + n):
                assert per_packet.push_packet(csi[j], times[j]) is None
            absorbed += n
            k += n
            assert monitor_state(blocked) == monitor_state(per_packet)
            if k < stop:
                ref = per_packet.push_packet(csi[k], times[k])
                out = blocked.push_packet(csi[k], times[k])
                assert canon_json(out) == canon_json(ref)
                if ref is not None:
                    ref_estimates.append(ref)
                    block_estimates.append(out)
                k += 1
    assert monitor_state(blocked) == monitor_state(per_packet)
    assert blocked.counters == per_packet.counters
    assert canon_json(block_estimates) == canon_json(ref_estimates)
    assert ref_estimates, "the trace emitted no window"
    return absorbed


def _capture(duration_s, rate_hz, seed):
    from repro import Person
    from repro.physio import SinusoidalBreathing

    person = Person(
        position=(2.2, 3.0, 1.0),
        breathing=SinusoidalBreathing(frequency_hz=0.25),
    )
    scenario = laboratory_scenario([person], clutter_seed=seed)
    return capture_trace(
        scenario, duration_s=duration_s, sample_rate_hz=rate_hz, seed=seed
    )


@pytest.fixture(scope="module")
def trace_400hz():
    return _capture(7.0, 400.0, 5)


@pytest.fixture(scope="module")
def trace_20hz():
    return _capture(30.0, 20.0, 6)


@pytest.fixture(scope="module")
def trace_200hz():
    return _capture(8.0, 200.0, 7)


def _impaired(trace, kind):
    """(csi, times, stretch_at) for one impairment of a clean trace."""
    csi = np.array(trace.csi)
    times = np.array(trace.timestamps_s, dtype=float)
    rate = trace.sample_rate_hz
    n = times.size
    stretch_at = None
    if kind == "bernoulli-loss":
        lossy = apply_impairments(trace, [BernoulliLoss(loss_fraction=0.1)], seed=3)
        return lossy.csi, lossy.timestamps_s, None
    if kind == "nan-csi":
        for k in (n // 7, n // 7 + 1, n // 2, (3 * n) // 4):
            csi[k, 0, k % csi.shape[2]] = np.nan
    elif kind == "nan-timestamp":
        for k in (n // 5, n // 2, n // 2 + 3):
            times[k] = np.nan
    elif kind == "backward-timestamp":
        for k in (n // 3, (2 * n) // 3):
            times[k] = times[k - 1] - 0.5 / rate
    elif kind == "stream-reset":
        # At 3/4 of the capture the clock restarts from zero: a backward
        # jump longer than the window.
        cut = (3 * n) // 4
        times[cut:] -= times[cut]
    elif kind == "timing-anomaly":
        # A 5-interval hole and a duplicated timestamp.
        times[n // 3 :] += 4.0 / rate
        times[(2 * n) // 3] = times[(2 * n) // 3 - 1]
    elif kind == "hop-stretch":
        stretch_at = n // 2
    return list(csi), times, stretch_at


@pytest.mark.parametrize("seed", SPLIT_SEEDS)
@pytest.mark.parametrize("fixture", ["trace_400hz", "trace_20hz"])
def test_clean_block_splits_equal_per_packet(request, fixture, seed):
    trace = request.getfixturevalue(fixture)
    sizes = block_sizes(trace.n_packets, trace.sample_rate_hz, seed)
    absorbed = run_lockstep(trace.csi, trace.timestamps_s, trace.sample_rate_hz, sizes)
    # Most packets only need buffering; the block path must take them.
    assert absorbed > 0.5 * trace.n_packets


@pytest.mark.parametrize("seed", SPLIT_SEEDS)
@pytest.mark.parametrize(
    "kind",
    [
        "bernoulli-loss",
        "nan-csi",
        "nan-timestamp",
        "backward-timestamp",
        "stream-reset",
        "timing-anomaly",
        "hop-stretch",
    ],
)
def test_impaired_block_splits_equal_per_packet(trace_200hz, kind, seed):
    csi, times, stretch_at = _impaired(trace_200hz, kind)
    rate = trace_200hz.sample_rate_hz
    sizes = block_sizes(len(csi), rate, seed)
    absorbed = run_lockstep(csi, times, rate, sizes, stretch_at=stretch_at)
    assert absorbed > 0.3 * len(csi)


class TestPushBlockStops:
    def test_first_packet_of_a_stream_is_not_absorbed(self, trace_200hz):
        monitor = StreamingMonitor(trace_200hz.sample_rate_hz, CONFIG)
        times = list(trace_200hz.timestamps_s[:10])
        assert monitor.push_block(list(trace_200hz.csi[:10]), times) == 0
        assert monitor.counters["packets_in"] == 0

    def test_stops_at_wrong_shape_and_non_arrays(self, trace_200hz):
        monitor = StreamingMonitor(trace_200hz.sample_rate_hz, CONFIG)
        csi = list(trace_200hz.csi[:6])
        times = [float(t) for t in trace_200hz.timestamps_s[:6]]
        monitor.push_packet(csi[0], times[0])
        csi[3] = csi[3][:, :-1]
        assert monitor.push_block(csi[1:], times[1:]) == 2
        csi[3] = list(trace_200hz.csi[3])
        assert monitor.push_block(csi[3:], times[3:]) == 0

    def test_buffer_keeps_the_callers_arrays(self, trace_200hz):
        monitor = StreamingMonitor(trace_200hz.sample_rate_hz, CONFIG)
        csi = [np.array(p) for p in trace_200hz.csi[:20]]
        times = [float(t) for t in trace_200hz.timestamps_s[:20]]
        monitor.push_packet(csi[0], times[0])
        assert monitor.push_block(csi[1:], times[1:]) == 19
        assert all(a is b for a, b in zip(monitor._buffer, csi))
