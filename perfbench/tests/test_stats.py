"""The benchmark's own arithmetic, on synthetic inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import math

import numpy as np
import pytest

from perfbench.stats import (
    BenchError,
    check_digests,
    combined_digest,
    percentile,
    promised_windows,
    span_self_times,
    stream_digest,
    supported_percentile,
    uncovered_time,
    window_failure_ratio,
)


# ----------------------------------------------------------------------
# Percentiles need ten samples beyond them.


def test_p90_needs_one_hundred_samples():
    assert supported_percentile(100, 90)
    assert not supported_percentile(99, 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(BenchError, match="p90 needs 100 samples, got 99"):
        percentile(list(range(99)), 90)


def test_p50_needs_twenty_samples():
    assert percentile([1.0] * 20, 50) == 1.0
    with pytest.raises(BenchError):
        percentile([1.0] * 19, 50)


# ----------------------------------------------------------------------
# Promised windows and the failure ratio.


@pytest.mark.parametrize(
    "duration, window, hop, expected",
    [
        (64.0, 30.0, 1.0, 35),
        (60.0, 30.0, 1.0, 31),
        (60.0, 10.0, 0.5, 101),
        (60.0, 8.0, 4.0, 14),
        (30.0, 30.0, 1.0, 1),
        (29.9, 30.0, 1.0, 0),
    ],
)
def test_promised_windows(duration, window, hop, expected):
    assert promised_windows(duration, window, hop) == expected


def test_never_emitted_windows_count_as_failures():
    # 31 promised; 28 emitted with a rate, 3 never emitted at all.
    assert window_failure_ratio([31], [28]) == pytest.approx(3 / 31)


def test_extra_emissions_do_not_offset_other_sessions():
    # Session b emitted two more rated windows than promised; session a's
    # ten missing windows still count in full.
    ratio = window_failure_ratio([14, 14], [4, 16])
    assert ratio == pytest.approx(10 / 28)


def test_failure_ratio_divides_by_promise_not_emissions():
    assert window_failure_ratio([101], [50]) == pytest.approx(51 / 101)
    with pytest.raises(BenchError):
        window_failure_ratio([0], [0])


# ----------------------------------------------------------------------
# Self time over nested and overlapping spans.


def _self(spans):
    starts = np.array([s for s, _, _ in spans], dtype=float)
    ends = np.array([e for _, e, _ in spans], dtype=float)
    parents = np.array([p for _, _, p in spans], dtype=np.int64)
    return span_self_times(starts, ends, parents)


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 6].
    got = _self([(0, 10, -1), (1, 4, 0), (2, 3, 1), (5, 6, 0)])
    assert got.tolist() == pytest.approx([10 - 3 - 1, 3 - 1, 1, 1])
    assert got.sum() == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    # Children [1, 5] and [3, 7] cover [1, 7]: 6 s, not 8 s.
    got = _self([(0, 10, -1), (1, 5, 0), (3, 7, 0)])
    assert got[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    got = _self([(0, 10, -1), (8, 12, 0), (-2, 1, 0)])
    assert got[0] == pytest.approx(10 - 2 - 1)


def test_self_time_per_parent_group_is_independent():
    # Two roots far apart in time, children listed out of order.
    spans = [
        (100.0, 101.0, -1),
        (0.0, 4.0, -1),
        (100.5, 100.75, 0),
        (1.0, 2.0, 1),
        (3.0, 3.5, 1),
        (100.2, 100.6, 0),
    ]
    got = _self(spans)
    assert got[0] == pytest.approx(1.0 - 0.55)
    assert got[1] == pytest.approx(4.0 - 1.5)
    assert got[2:].tolist() == pytest.approx([0.25, 1.0, 0.5, 0.4])


def test_uncovered_time_is_wall_outside_root_spans():
    starts = np.array([1.0, 2.0, 6.0, 2.5])
    ends = np.array([3.0, 4.0, 7.0, 2.6])
    parents = np.array([-1, -1, -1, 0])
    assert uncovered_time(10.0, starts, ends, parents) == pytest.approx(6.0)
    assert uncovered_time(5.0, starts[:0], ends[:0], parents[:0]) == 5.0


# ----------------------------------------------------------------------
# Estimate-stream digests.


def _stream(rates):
    return [
        {"time_s": 30.0 + i, "rate_bpm": r, "method": "phase-difference"}
        for i, r in enumerate(rates)
    ]


def test_digest_is_canonical_and_order_sensitive():
    a = stream_digest(_stream([12.0, 12.5]))
    reordered_keys = [dict(reversed(list(d.items()))) for d in _stream([12.0, 12.5])]
    assert stream_digest(reordered_keys) == a
    assert stream_digest(_stream([12.5, 12.0])) != a
    assert stream_digest(_stream([12.0, 12.5 + 1e-12])) != a


def test_combined_digest_ignores_session_order():
    x, y = stream_digest(_stream([1.0])), stream_digest(_stream([2.0]))
    assert combined_digest({"a": x, "b": y}) == combined_digest({"b": y, "a": x})
    assert combined_digest({"a": x, "b": y}) != combined_digest({"a": y, "b": x})


def test_digest_mismatch_fails_the_run():
    same = stream_digest(_stream([12.0]))
    other = stream_digest(_stream([float("nan")]))
    assert check_digests([("warm-up", same), ("pass 0", same)]) == same
    with pytest.raises(BenchError, match="pass 1"):
        check_digests([("warm-up", same), ("pass 0", same), ("pass 1", other)])
    with pytest.raises(BenchError):
        check_digests([])


def test_fleet_budgets_cover_one_round_of_packets():
    from perfbench.workloads import ROUND_INTERVAL_S, fleet_config

    for rate in (20.0, 400.0):
        cfg = fleet_config(rate)
        due = math.ceil(rate * ROUND_INTERVAL_S) + 1
        assert cfg.ingest_budget_packets >= due
        assert cfg.drain_budget_packets >= due
        assert cfg.high_watermark_packets > due
        assert cfg.round_interval_s == ROUND_INTERVAL_S
