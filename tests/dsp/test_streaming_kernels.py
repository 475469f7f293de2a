"""Kernel exactness: trailing medians, cycle unwrap, row store, and the
centered matrix kernels.

The incremental monitor's correctness argument rests on two bitwise claims
pinned here against naive reference implementations:

* trailing (causal) order statistics are frozen once computed, so blockwise
  incremental evaluation — and rebuilding from a buffered suffix — equals a
  from-scratch pass exactly;
* the integer cycle counter of ``cycle_unwrap`` is exactly associative, so
  blockwise unwrapping equals a single pass bitwise.
"""

import numpy as np
import pytest
from scipy.ndimage import median_filter

from repro.dsp.fft_utils import magnitude_spectrum, rfft_plan
from repro.dsp.hampel import hampel_filter, rolling_median
from repro.dsp.stats import MAD_TO_SIGMA
from repro.dsp.streaming_kernels import (
    RowStore,
    StreamingCalibrator,
    TrailingHampelState,
    cycle_unwrap,
    rolling,
    trailing_calibrate,
    trailing_hampel,
    trailing_median,
    trailing_window_samples,
)
from repro.errors import ConfigurationError


def naive_trailing_median(x, window):
    """Reference: rank ``window // 2`` statistic of ``[i - w + 1, i]``,
    negative indices replicated with ``x[0]`` (scipy's ``mode='nearest'``)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        lo = i - window + 1
        pad = np.full(max(0, -lo), x[0])
        win = np.concatenate([pad, x[max(0, lo) : i + 1]])
        out[i] = np.sort(win)[window // 2]
    return out


def tied_series(rng, n=120):
    """A series with many exact ties — the regime where median conventions
    (rank choice, even-window averaging) diverge if mismatched."""
    return rng.integers(0, 5, size=n) / 4.0


def assert_bitwise(actual, expected):
    """Equal shapes and identical float bits (``-0.0`` differs from ``0.0``)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def naive_trailing_median_columns(x, window):
    """The naive reference applied to each column of a matrix."""
    return np.stack(
        [naive_trailing_median(x[:, col], window) for col in range(x.shape[1])],
        axis=1,
    )


class TestTrailingMedian:
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 10, 50, 51])
    def test_matches_naive_reference_bitwise(self, rng, window):
        x = rng.normal(size=120)
        np.testing.assert_array_equal(
            trailing_median(x, window), naive_trailing_median(x, window)
        )

    @pytest.mark.parametrize("window", [2, 3, 4, 7])
    def test_ties_and_even_windows(self, rng, window):
        x = tied_series(rng)
        np.testing.assert_array_equal(
            trailing_median(x, window), naive_trailing_median(x, window)
        )

    def test_window_longer_than_series(self, rng):
        x = rng.normal(size=8)
        np.testing.assert_array_equal(
            trailing_median(x, 20), naive_trailing_median(x, 20)
        )

    def test_2d_filters_each_column_independently(self, rng):
        x = rng.normal(size=(60, 4))
        out = trailing_median(x, 9)
        for col in range(4):
            np.testing.assert_array_equal(out[:, col], trailing_median(x[:, col], 9))

    def test_causality_extending_never_changes_past_outputs(self, rng):
        x = rng.normal(size=100)
        full = trailing_median(x, 11)
        np.testing.assert_array_equal(trailing_median(x[:60], 11), full[:60])

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ConfigurationError):
            trailing_median(rng.normal(size=(2, 2, 2)), 3)
        with pytest.raises(ConfigurationError):
            trailing_median(rng.normal(size=10), 0)
        with pytest.raises(ConfigurationError):
            trailing_median(rng.normal(size=10), 3, last=11)
        with pytest.raises(ConfigurationError):
            trailing_median(rng.normal(size=10), 3, last=-1)

    def test_empty_series(self):
        assert trailing_median(np.empty((0, 3)), 5).shape == (0, 3)
        assert trailing_median(np.empty(0), 5, last=0).shape == (0,)


class TestTrailingMedianLastRows:
    """``last=k`` returns the last ``k`` rows of the full pass, bitwise."""

    @staticmethod
    def mixed_matrix(rng, n=30):
        return np.column_stack(
            [rng.normal(size=n), tied_series(rng, n), rng.normal(size=n),
             tied_series(rng, n)]
        )

    @pytest.mark.parametrize("window", [1, 2, 3, 8, 29, 30, 31, 45])
    @pytest.mark.parametrize("last", [0, 1, 17, 30])
    def test_matches_full_pass_and_naive_reference(self, rng, window, last):
        x = self.mixed_matrix(rng)
        n = x.shape[0]
        out = trailing_median(x, window, last=last)
        assert_bitwise(out, trailing_median(x, window)[n - last :])
        assert_bitwise(out, naive_trailing_median_columns(x, window)[n - last :])

    @pytest.mark.parametrize("last", [0, 1, 12, 40])
    def test_1d_series(self, rng, last):
        x = np.concatenate([rng.normal(size=20), tied_series(rng, 20)])
        out = trailing_median(x, 7, last=last)
        assert out.shape == (last,)
        assert_bitwise(out, naive_trailing_median(x, 7)[40 - last :])

    @pytest.mark.parametrize("shape", [(25, 1), (1, 6), (1, 1)])
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_single_column_and_single_row(self, rng, shape, window):
        x = rng.normal(size=shape)
        for last in (0, 1, shape[0]):
            assert_bitwise(
                trailing_median(x, window, last=last),
                naive_trailing_median_columns(x, window)[shape[0] - last :],
            )

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda a: a[::2, ::2], lambda a: a[3:, 1:].T.T],
    )
    def test_fortran_ordered_and_sliced_input(self, rng, layout):
        x = layout(np.column_stack([self.mixed_matrix(rng, 60)] * 2))
        ref = naive_trailing_median_columns(np.array(x), 9)
        for last in (0, 5, x.shape[0]):
            assert_bitwise(
                trailing_median(x, 9, last=last), ref[x.shape[0] - last :]
            )

    @pytest.mark.parametrize("window", [2, 4, 7, 50])
    def test_heavy_ties(self, rng, window):
        x = rng.integers(0, 3, size=(80, 5)).astype(float)
        ref = naive_trailing_median_columns(x, window)
        for last in (1, 33, 80):
            assert_bitwise(trailing_median(x, window, last=last), ref[80 - last :])

    def test_signed_zero_ties_are_equal_in_value(self, rng):
        # Among tied +0.0 and -0.0 the sign of the zero returned depends on
        # the filter's history, so only values are pinned here (the
        # assertion treats -0.0 == 0.0); every nonzero output is bitwise.
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(120, 6))
        ref = naive_trailing_median_columns(x, 6)
        for last in (1, 50, 120):
            out = trailing_median(x, 6, last=last)
            np.testing.assert_array_equal(out, ref[120 - last :])
            nonzero = out != 0.0
            assert_bitwise(out[nonzero], ref[120 - last :][nonzero])

    # The core-compressed layout (full context, few kept rows) against the
    # naive reference, bitwise, over its whole valid range of ``m``; the
    # helper is called directly past the selection boundary.

    @staticmethod
    def compressed_rows(window):
        # 1, the selection boundary 5m <= 2w, and the layout's own limit.
        return sorted({1, 2 * window // 5, window - window // 2} - {0})

    @pytest.mark.parametrize("window", [3, 4, 9, 10, 50, 51])
    def test_core_compressed_matches_naive_reference(self, rng, window):
        for m in self.compressed_rows(window):
            x = self.mixed_matrix(rng, window + m + 2)
            ref = naive_trailing_median_columns(x, window)[x.shape[0] - m :]
            assert_bitwise(rolling._core_compressed_median(x, window, m), ref)
            assert_bitwise(trailing_median(x, window, last=m), ref)

    @pytest.mark.parametrize("window", [4, 7, 50, 51])
    def test_core_compressed_heavy_ties(self, rng, window):
        for m in self.compressed_rows(window):
            n = window - 1 + m + 5
            x = rng.integers(0, 3, size=(n, 5)).astype(float)
            ref = naive_trailing_median_columns(x, window)[n - m :]
            assert_bitwise(rolling._core_compressed_median(x, window, m), ref)

    @pytest.mark.parametrize("window", [9, 10])
    def test_core_compressed_1d_series(self, rng, window):
        for m in self.compressed_rows(window):
            n = window - 1 + m + 2
            x = np.concatenate([rng.normal(size=n - n // 2), tied_series(rng, n // 2)])
            out = trailing_median(x, window, last=m)
            assert out.shape == (m,)
            assert_bitwise(out, naive_trailing_median(x, window)[n - m :])

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda a: a[::2, ::2], lambda a: a[3:, 1:].T.T],
    )
    def test_core_compressed_fortran_ordered_and_sliced_input(self, rng, layout):
        x = layout(np.column_stack([self.mixed_matrix(rng, 90)] * 2))
        ref = naive_trailing_median_columns(np.array(x), 21)
        for m in self.compressed_rows(21):
            assert_bitwise(
                rolling._core_compressed_median(x, 21, m), ref[x.shape[0] - m :]
            )
            assert_bitwise(trailing_median(x, 21, last=m), ref[x.shape[0] - m :])

    def test_core_compressed_signed_zero_ties_are_equal_in_value(self, rng):
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(120, 6))
        ref = naive_trailing_median_columns(x, 20)
        for m in self.compressed_rows(20):
            out = rolling._core_compressed_median(x, 20, m)
            np.testing.assert_array_equal(out, ref[120 - m :])
            nonzero = out != 0.0
            assert_bitwise(out[nonzero], ref[120 - m :][nonzero])

    def test_core_compressed_selection_follows_shape(self, rng, monkeypatch):
        calls = []
        compressed = rolling._core_compressed_median

        def spy(cols, window, m):
            calls.append((cols.shape[0], window, m))
            return compressed(cols, window, m)

        monkeypatch.setattr(rolling, "_core_compressed_median", spy)
        # 400 Hz trend hop: full context, 400 of a 2000-row window.
        trailing_median(rng.normal(size=(2399, 2)), 2000, last=400)
        assert calls == [(2399, 2000, 400)]
        # 20 Hz trend hop (80 of 100), the 400 Hz noise hop (400 of 50),
        # a padded call (context one row short) and a rebuild: plain layout.
        trailing_median(rng.normal(size=(179, 2)), 100, last=80)
        trailing_median(rng.normal(size=(449, 2)), 50, last=400)
        trailing_median(rng.normal(size=(2398, 2)), 2000, last=400)
        trailing_median(rng.normal(size=(3000, 2)), 2000)
        assert len(calls) == 1
        # The selection boundary, 5m <= 2w, on either side.
        trailing_median(rng.normal(size=(139, 2)), 100, last=40)
        trailing_median(rng.normal(size=(140, 2)), 100, last=41)
        assert calls[1:] == [(139, 100, 40)]


class TestTrailingMadAndHampel:
    def test_hampel_applies_outlier_rule_about_trailing_stats(self, rng):
        x = rng.normal(size=90)
        x[40] += 25.0  # a spike the small threshold must replace
        out = trailing_hampel(x, 9, 0.01)
        med = trailing_median(x, 9)
        mad = trailing_median(np.abs(x - med), 9)
        outlier = np.abs(x - med) > 0.01 * MAD_TO_SIGMA * mad
        assert outlier[40]
        np.testing.assert_array_equal(out[outlier], med[outlier])
        np.testing.assert_array_equal(out[~outlier], x[~outlier])

    def test_rejects_negative_threshold(self, rng):
        with pytest.raises(ConfigurationError):
            trailing_hampel(rng.normal(size=10), 3, -1.0)


# The engine's Hampel factor: HAMPEL_THRESHOLD (0.01) times MAD_TO_SIGMA.
T_ENGINE = 0.01 * MAD_TO_SIGMA


def deviation_matrix(rng, n):
    """Hampel deviations with the hard cases side by side: plain, heavily
    tied, constant, and zero-MAD (mostly zeros, so the median is 0)."""
    return np.column_stack(
        [
            np.abs(rng.normal(size=n)),
            rng.integers(0, 4, size=n) / 2.0,
            np.full(n, 0.75),
            np.where(rng.random(n) < 0.2, rng.random(n), 0.0),
        ]
    )


class TestTrailingExceeds:
    """``trailing_exceeds`` against ``y > t * trailing_median(...)``, bitwise.

    The full-context trend hop decides most rows from the core band's ends
    and resolves the rest exactly; decimated rows gather their windows;
    everything else (and anything non-finite) takes the filter.
    """

    @staticmethod
    def check(y, window, t, last, step=1, first=0):
        got = rolling.trailing_exceeds(
            y, window, t, last=last, step=step, first=first
        )
        n = y.shape[0]
        med = trailing_median(y, window, last=last)[first::step]
        assert got.dtype == bool
        np.testing.assert_array_equal(got, y[n - last :][first::step] > t * med)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(rolling, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(rolling, name, spy)
        return calls

    @pytest.mark.parametrize("window", [3, 20, 51])
    @pytest.mark.parametrize("t", [T_ENGINE, 0.0, 0.5, 1.0])
    def test_every_hop_size_up_to_the_bound(self, rng, window, t):
        # m = 1 .. 2w/5, full context (the bounded path), then one padded
        # row short of it and one past the bound (the filter).
        for m in range(1, 2 * window // 5 + 1):
            y = deviation_matrix(rng, window - 1 + m + 3)
            self.check(y, window, t, m)
            self.check(y[4:], window, t, m)
        y = deviation_matrix(rng, 3 * window)
        self.check(y, window, t, 2 * window // 5 + 1)

    @pytest.mark.parametrize("window, m", [(20, 8), (51, 20), (2000, 400)])
    @pytest.mark.parametrize("undecided", ["few", "most"])
    def test_values_on_and_beside_the_bounds(
        self, rng, monkeypatch, window, m, undecided
    ):
        n = window - 1 + m
        y = np.abs(rng.normal(size=(n, 3)))
        band = rolling._core_segments(y, window, m)[:, m - 1 : 2 * m - 1]
        low, high = T_ENGINE * band[:, 0], T_ENGINE * band[:, -1]
        # Kept rows after the first lie outside the core, so setting them
        # moves neither bound.
        if undecided == "few":
            beside = [low, np.nextafter(low, np.inf), np.nextafter(high, 0),
                      high, np.nextafter(high, np.inf)]
            y[n - m + 1 : n - m + 1 + len(beside)] = beside
        else:
            y[n - m + 1 :] = np.nextafter(high, 0)
        assert_bitwise(
            rolling._core_segments(y, window, m)[:, m - 1 : 2 * m - 1], band
        )
        filtered = self.spy(monkeypatch, "_segment_medians")
        rolling.trailing_exceeds(y, window, T_ENGINE, last=m)
        # Few undecided rows are partitioned; most of them, filtered.
        assert filtered == ([] if undecided == "few" else ["_segment_medians"])
        self.check(y, window, T_ENGINE, m)

    @pytest.mark.parametrize("factor", [2, 5, 20])
    def test_decimated_rows_at_every_phase(self, rng, factor):
        y = deviation_matrix(rng, 449)
        for first in {0, 1, factor // 2, factor - 1}:
            self.check(y, 50, T_ENGINE, 400, step=factor, first=first)
            # Warm-up: fewer rows than the window, left edge replicated.
            self.check(y[:31], 50, T_ENGINE, 31, step=factor, first=first)
            self.check(y[:31], 50, T_ENGINE, 12, step=factor, first=first)

    def test_1d_series_and_empty_selections(self, rng):
        y = deviation_matrix(rng, 60)[:, 1]
        self.check(y, 50, T_ENGINE, 8)
        self.check(y, 50, T_ENGINE, 40, step=5, first=3)
        assert rolling.trailing_exceeds(y, 50, T_ENGINE, last=0).shape == (0,)
        out = rolling.trailing_exceeds(y, 50, T_ENGINE, last=3, step=5, first=4)
        assert out.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [1, 20])
    def test_non_finite_values_take_the_filter(self, rng, monkeypatch, bad, step):
        fast = self.spy(monkeypatch, "_bounded_exceeds")
        fast += self.spy(monkeypatch, "_gathered_medians")
        window = 2000 if step == 1 else 50
        y = deviation_matrix(rng, window - 1 + 400)
        y[window // 2, 1] = bad
        self.check(y, window, T_ENGINE, 400, step=step, first=step // 2)
        assert fast == []

    def test_path_follows_shape(self, rng, monkeypatch):
        bounded = self.spy(monkeypatch, "_bounded_exceeds")
        gathered = self.spy(monkeypatch, "_gathered_medians")
        exceeds = rolling.trailing_exceeds
        # The 400 Hz trend hop (400 of 2000, full context): bounded.
        exceeds(deviation_matrix(rng, 2399), 2000, T_ENGINE, last=400)
        assert (len(bounded), len(gathered)) == (1, 0)
        # A padded call, the 20 Hz trend hop (80 of 100) and a rebuild.
        exceeds(deviation_matrix(rng, 2398), 2000, T_ENGINE, last=400)
        exceeds(deviation_matrix(rng, 179), 100, T_ENGINE, last=80)
        exceeds(deviation_matrix(rng, 3000), 2000, T_ENGINE)
        assert (len(bounded), len(gathered)) == (1, 0)
        # The 400 Hz denoise grid, warm and warming up: gathered.
        exceeds(deviation_matrix(rng, 449), 50, T_ENGINE, last=400, step=20)
        exceeds(deviation_matrix(rng, 30), 50, T_ENGINE, step=20, first=7)
        assert (len(bounded), len(gathered)) == (1, 2)

    def test_validation(self, rng):
        y = rng.random(size=(20, 2))
        for kwargs in ({"last": 21}, {"step": 0}, {"first": -1}):
            with pytest.raises(ConfigurationError):
                rolling.trailing_exceeds(y, 5, T_ENGINE, **kwargs)
        with pytest.raises(ConfigurationError):
            rolling.trailing_exceeds(y, 5, -1.0)
        with pytest.raises(ConfigurationError):
            rolling.trailing_exceeds(y, 0, T_ENGINE)


def per_column_median(matrix, window):
    """Reference: scipy's 1-D centered median, one call per column."""
    window = min(window, matrix.shape[0])
    out = np.empty_like(matrix)
    for col in range(matrix.shape[1]):
        out[:, col] = median_filter(matrix[:, col], size=window, mode="nearest")
    return out


def per_column_hampel(matrix, window, threshold):
    """Reference Hampel rule about :func:`per_column_median` statistics."""
    med = per_column_median(matrix, window)
    mad = per_column_median(np.abs(matrix - med), window)
    outlier = np.abs(matrix - med) > threshold * MAD_TO_SIGMA * mad
    return np.where(outlier, med, matrix)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestBatchedCenteredKernels:
    """Matrix calls of the centered kernels against per-column scipy calls."""

    def test_matrix_median_equals_per_column(self, rng):
        # Odd and even windows, a window longer than the series, one row,
        # one column.
        for shape, window in [
            ((64, 5), 9),
            ((64, 5), 10),
            ((64, 5), 1),
            ((6, 3), 50),
            ((1, 4), 7),
            ((40, 1), 8),
            ((1, 1), 2),
        ]:
            matrix = rng.normal(size=shape)
            assert_bitwise(
                rolling_median(matrix, window), per_column_median(matrix, window)
            )

    def test_batched_hampel_matches_per_column_loop(self, rng):
        matrix = rng.normal(size=(300, 5))
        matrix[10, 2] += 30.0
        for window in (11, 50, 2000):
            for threshold in (0.01, 3.0):
                assert_bitwise(
                    hampel_filter(matrix, window, threshold),
                    per_column_hampel(matrix, window, threshold),
                )

    def test_window_clamped_to_series_length_like_1d_filter(self, rng):
        for shape in [(6, 3), (1, 3), (2, 1)]:
            matrix = rng.normal(size=shape)
            assert_bitwise(
                hampel_filter(matrix, 50, 0.01),
                per_column_hampel(matrix, 50, 0.01),
            )

    def test_heavy_ties_are_bitwise(self, rng):
        # Few distinct values, zeros among them: every window is full of
        # ties, and the MAD stage sees many exact zeros.
        matrix = rng.integers(-2, 3, size=(500, 6)).astype(float)
        for window in (4, 5, 50, 51):
            assert_bitwise(
                rolling_median(matrix, window), per_column_median(matrix, window)
            )
            assert_bitwise(
                hampel_filter(matrix, window, 0.01),
                per_column_hampel(matrix, window, 0.01),
            )

    def test_column_layout_does_not_matter(self, rng):
        base = rng.normal(size=(200, 12))
        for matrix in (np.asfortranarray(base), base[::2, 1::3]):
            assert_bitwise(
                hampel_filter(matrix, 25, 0.01), per_column_hampel(matrix, 25, 0.01)
            )

    def test_1d_series_takes_the_direct_call(self, rng):
        x = rng.normal(size=120)
        assert_bitwise(rolling_median(x, 30), median_filter(x, size=30, mode="nearest"))
        assert_bitwise(
            hampel_filter(x, 30, 0.01), per_column_hampel(x[:, np.newaxis], 30, 0.01)[:, 0]
        )


class TestRowStore:
    def test_random_interleaving_matches_concatenate_reference(self, rng):
        store = RowStore((2, 3), np.int64)
        ref = np.empty((0, 2, 3), dtype=np.int64)
        counter = 0
        for _ in range(400):
            if rng.random() < 0.55:
                m = int(rng.choice([0, 1, 2, 5, 17, 60]))
                block = np.arange(counter, counter + 6 * m).reshape(m, 2, 3)
                counter += 6 * m
                store.extend(block)
                ref = np.concatenate([ref, block], axis=0)
            else:
                n = int(rng.integers(0, len(ref) + 3))
                store.evict(n)
                ref = ref[n:]
            assert len(store) == len(ref)
            np.testing.assert_array_equal(store.rows, ref)

    def test_in_place_compaction_in_overlapping_chunks(self):
        store = RowStore((1,))
        store.extend(np.arange(16.0)[:, None])
        assert store.capacity == 18
        store.extend([[16.0], [17.0]])
        store.evict(5)  # 13 live rows behind a gap of 5
        store.extend([[18.0]])
        assert store.capacity == 18
        np.testing.assert_array_equal(store.rows[:, 0], np.arange(5.0, 19.0))

    def test_capacity_follows_the_live_rows(self):
        store = RowStore((4,))
        assert store.capacity == 0
        store.extend(np.zeros((1, 4)))
        assert store.capacity == 1  # no fixed minimum
        store.extend(np.zeros((63, 4)))
        assert store.capacity == 64 + 64 // 8
        store.evict(64)
        store.extend(np.zeros((70, 4)))  # empty: writes from the front
        assert store.capacity == 72
        store.extend(np.zeros((2, 4)))
        store.evict(70)
        store.extend(np.zeros((1, 4)))  # 3 rows in 72: shrinks
        assert store.capacity == 3
        np.testing.assert_array_equal(store.rows, np.zeros((3, 4)))

    def test_validation(self):
        store = RowStore((3,))
        with pytest.raises(ConfigurationError):
            store.extend(np.zeros((2, 4)))
        with pytest.raises(ConfigurationError):
            store.evict(-1)
        store.extend(np.zeros((2, 3)))
        store.evict(5)
        assert len(store) == 0


class TestCycleUnwrap:
    def wrapped_walk(self, rng, shape):
        steps = rng.normal(scale=0.7, size=shape)
        phase = np.cumsum(steps, axis=0)
        return np.angle(np.exp(1j * phase)), phase

    def test_matches_np_unwrap_to_float_rounding(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (400,))
        unwrapped, cycles = cycle_unwrap(wrapped)
        assert cycles.dtype == np.int64
        np.testing.assert_allclose(
            unwrapped, np.unwrap(wrapped), rtol=0, atol=1e-9
        )

    def test_blockwise_continuation_is_bitwise_exact(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (300, 4))
        full, full_cycles = cycle_unwrap(wrapped)
        pieces, cycles_pieces = [], []
        prev_angle, prev_cycles = None, None
        for block in np.array_split(wrapped, [1, 7, 64, 65, 200], axis=0):
            if block.shape[0] == 0:
                continue
            if prev_angle is None:
                u, c = cycle_unwrap(block)
            else:
                u, c = cycle_unwrap(
                    block, prev_angle=prev_angle, prev_cycles=prev_cycles
                )
            pieces.append(u)
            cycles_pieces.append(c)
            prev_angle, prev_cycles = block[-1], c[-1]
        np.testing.assert_array_equal(np.concatenate(pieces), full)
        np.testing.assert_array_equal(np.concatenate(cycles_pieces), full_cycles)


class TestRfftPlan:
    def test_cached_instance_is_reused(self):
        assert rfft_plan(256, 20.0) is rfft_plan(256, 20.0)

    def test_grid_matches_numpy_and_is_frozen(self):
        plan = rfft_plan(100, 50.0)
        np.testing.assert_array_equal(
            plan.freqs_hz, np.fft.rfftfreq(100, d=1.0 / 50.0)
        )
        assert plan.n_bins == 51
        with pytest.raises(ValueError):
            plan.freqs_hz[0] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rfft_plan(0, 20.0)
        with pytest.raises(ConfigurationError):
            rfft_plan(64, 0.0)


class TestBatchedSpectrum:
    # A matrix is transformed along axis 0, which takes a different
    # (vectorized) FFT code path than a 1-D transform, so per-column
    # agreement is to float rounding, not bitwise — well inside the suite's
    # 1e-9 budget either way.
    def test_matches_per_column_magnitude_spectrum(self, rng):
        matrix = rng.normal(size=(128, 4))
        freqs, mags = magnitude_spectrum(matrix, 20.0)
        np.testing.assert_array_equal(freqs, np.fft.rfftfreq(128, d=1 / 20.0))
        assert mags.shape == (65, 4)
        for col in range(4):
            x = matrix[:, col]
            reference = np.abs(np.fft.rfft(x - x.mean()))
            np.testing.assert_allclose(mags[:, col], reference, rtol=0, atol=1e-9)

    def test_zero_padding_matches(self, rng):
        matrix = rng.normal(size=(100, 3))
        freqs, mags = magnitude_spectrum(matrix, 20.0, nfft=256)
        np.testing.assert_array_equal(freqs, np.fft.rfftfreq(256, d=1 / 20.0))
        for col in range(3):
            x = matrix[:, col]
            reference = np.abs(np.fft.rfft(x - x.mean(), n=256))
            np.testing.assert_allclose(mags[:, col], reference, rtol=0, atol=1e-9)

    def test_1d_series_is_one_rfft(self, rng):
        x = rng.normal(size=101)
        _, mag = magnitude_spectrum(x, 20.0)
        assert_bitwise(mag, np.abs(np.fft.rfft(x - x.mean())))
        _, raw = magnitude_spectrum(x, 20.0, detrend=False)
        assert_bitwise(raw, np.abs(np.fft.rfft(x)))


def wrapped_phase_matrix(rng, n, n_series):
    """Wrapped phase differences with realistic slow drift + oscillation."""
    t = np.arange(n) / 100.0
    drift = np.cumsum(rng.normal(scale=0.05, size=(n, n_series)), axis=0)
    tone = 1.5 * np.sin(2 * np.pi * 0.3 * t)[:, None]
    return np.angle(np.exp(1j * (drift + tone)))


class TestTrailingHampelState:
    @pytest.mark.parametrize("splits", [[7], [1, 2, 3], [50], [10, 10, 10, 10]])
    def test_blocked_extends_match_full_pass_bitwise(self, rng, splits):
        x = wrapped_phase_matrix(rng, 90, 3)
        state = TrailingHampelState(11, 0.01)
        blocks = [
            state.extend(b)
            for b in np.array_split(x, np.cumsum(splits), axis=0)
            if b.shape[0]
        ]
        np.testing.assert_array_equal(
            np.concatenate(blocks), trailing_hampel(x, 11, 0.01)
        )

    def test_window_longer_than_first_block(self, rng):
        x = rng.normal(size=(40, 2))
        state = TrailingHampelState(25, 0.01)
        out = np.concatenate([state.extend(x[:5]), state.extend(x[5:])])
        np.testing.assert_array_equal(out, trailing_hampel(x, 25, 0.01))

    def test_empty_block_is_a_noop(self, rng):
        x = rng.normal(size=(30, 2))
        state = TrailingHampelState(7, 0.01)
        first = state.extend(x[:15])
        assert state.extend(x[:0]).shape == (0, 2)
        out = np.concatenate([first, state.extend(x[15:])])
        np.testing.assert_array_equal(out, trailing_hampel(x, 7, 0.01))

    @pytest.mark.parametrize("factor", [1, 5, 20])
    def test_grid_rows_match_full_pass_bitwise(self, rng, factor):
        # Odd blocks put the grid at every phase inside a block; the grid
        # counts from the first row ever extended.
        x = wrapped_phase_matrix(rng, 300, 3)
        state = TrailingHampelState(11, 0.01, decimation_factor=factor)
        blocks = [
            state.extend(b)
            for b in np.array_split(x, np.cumsum([7, 1, 13, 2, 33, 19]), axis=0)
        ]
        np.testing.assert_array_equal(
            np.concatenate(blocks), trailing_hampel(x, 11, 0.01)[::factor]
        )

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            TrailingHampelState(0, 0.01)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, -1.0)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, 0.01, decimation_factor=0)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, 0.01).extend(rng.normal(size=10))


class TestTrailingWindowSamples:
    def test_matches_batch_formula(self):
        assert trailing_window_samples(5.0, 400.0) == 2000
        assert trailing_window_samples(0.125, 400.0) == 50
        assert trailing_window_samples(0.001, 400.0) == 3  # floor of 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trailing_window_samples(0.0, 400.0)
        with pytest.raises(ConfigurationError):
            trailing_window_samples(1.0, 0.0)


# A low packet rate keeps the reference fast: the 5 s / 0.125 s stage
# windows at 20 Hz are trend_w=100, noise_w=3 (the 3-sample floor), so the
# rebuild context is 2*99 + 2*2 = 202 rows.
RATE_HZ = 20.0


class TestTrailingCalibrate:
    def test_decimation_grid_anchored_at_row_zero(self, rng):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, RATE_HZ)
        dec = trailing_calibrate(wrapped, RATE_HZ, decimation_factor=5)
        np.testing.assert_array_equal(dec.series, ref.predecimation_series[::5])
        np.testing.assert_array_equal(dec.predecimation_series, ref.predecimation_series)
        assert dec.sample_rate_hz == pytest.approx(4.0)

    def test_unwrap_uses_integer_cycles(self, rng):
        wrapped = wrapped_phase_matrix(rng, 300, 2)
        ref = trailing_calibrate(wrapped, RATE_HZ)
        np.testing.assert_array_equal(
            ref.unwrapped, wrapped + 2.0 * np.pi * ref.cycles
        )
        np.testing.assert_array_equal(ref.cycles[0], np.zeros(2, dtype=np.int64))

    def test_initial_cycles_shift_whole_series_by_whole_turns(self, rng):
        wrapped = wrapped_phase_matrix(rng, 200, 2)
        base = np.array([3, -2], dtype=np.int64)
        ref = trailing_calibrate(wrapped, RATE_HZ)
        shifted = trailing_calibrate(wrapped, RATE_HZ, initial_cycles=base)
        np.testing.assert_array_equal(shifted.cycles, ref.cycles + base)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=50), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(np.empty((0, 2)), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=(50, 2)), 100.0, decimation_factor=0)
        with pytest.raises(ConfigurationError):
            # At 0.4 Hz both stage windows clamp to 3 samples, so the
            # denoise window is not shorter than the trend window.
            trailing_calibrate(rng.normal(size=(50, 2)), 0.4)


class TestStreamingCalibrator:
    def make_engine(self, n_series, factor=1, initial_cycles=None):
        return StreamingCalibrator(
            RATE_HZ,
            n_series,
            decimation_factor=factor,
            initial_cycles=initial_cycles,
        )

    @pytest.mark.parametrize("splits", [[123], [1, 5, 50], [30, 30, 30, 30]])
    def test_blocked_extends_match_stateless_reference_bitwise(self, rng, splits):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, RATE_HZ)
        engine = self.make_engine(3)
        for block in np.array_split(wrapped, np.cumsum(splits), axis=0):
            engine.extend(block)
        assert engine.n_rows == 400
        np.testing.assert_array_equal(engine.unwrapped_window(0), ref.unwrapped)
        np.testing.assert_array_equal(
            engine.calibrated_window(0), ref.predecimation_series
        )
        np.testing.assert_array_equal(engine.base_cycles, ref.cycles[0])

    def test_decimated_window_keeps_grid_phase_across_eviction(self, rng):
        wrapped = wrapped_phase_matrix(rng, 400, 2)
        ref = trailing_calibrate(wrapped, RATE_HZ, decimation_factor=5)
        engine = self.make_engine(2, factor=5)
        engine.extend(wrapped)
        np.testing.assert_array_equal(engine.calibrated_window(0), ref.series)
        engine.evict(50)
        # Rows kept after eviction are absolute rows 50, 55, ... — the same
        # grid, just starting later.
        np.testing.assert_array_equal(engine.calibrated_window(0), ref.series[10:])
        np.testing.assert_array_equal(
            engine.base_cycles, ref.cycles[50]
        )
        # start_row rounds up to the next grid row.
        np.testing.assert_array_equal(
            engine.calibrated_window(3), engine.calibrated_window(5)
        )

    @pytest.mark.parametrize(
        "rate, factor, n",
        [(RATE_HZ, 1, 500), (RATE_HZ, 5, 500), (RATE_HZ, 20, 500), (400.0, 20, 3300)],
    )
    def test_grid_rows_across_odd_blocks_and_evictions(self, rng, rate, factor, n):
        # The engine keeps only the decimation grid of the denoised series.
        # At 400 Hz the warm hops (200 of the 2000-row trend window) take
        # the bounded outlier test.
        wrapped = wrapped_phase_matrix(rng, n, 2)
        wrapped[rng.integers(0, n, 40), rng.integers(0, 2, 40)] += 2.5
        ref = trailing_calibrate(wrapped, rate, decimation_factor=factor)
        engine = StreamingCalibrator(rate, 2, decimation_factor=factor)
        sizes = [13, 7, 1, 33] if rate == RATE_HZ else [2001, 199, 200, 201]
        evicted = pos = 0
        for size in sizes * (n // sum(sizes) + 1):
            engine.extend(wrapped[pos : pos + size])
            pos += size
            end = -(-pos // factor)
            for start in (0, 1, factor - 1, factor + 3):
                first = -(-(evicted + start) // factor)
                np.testing.assert_array_equal(
                    engine.calibrated_window(start), ref.series[first:end]
                )
            if engine.n_rows > n // 3:
                drop = factor * (engine.n_rows // (4 * factor))
                engine.evict(drop)
                evicted += drop
            if pos >= n:
                break
        assert engine.n_rows == n - evicted

    def test_eviction_must_respect_decimation_quantum(self, rng):
        engine = self.make_engine(2, factor=5)
        engine.extend(wrapped_phase_matrix(rng, 100, 2))
        with pytest.raises(ConfigurationError):
            engine.evict(7)
        engine.evict(0)  # no-op
        assert engine.n_rows == 100

    def test_rebuild_from_suffix_exact_past_context(self, rng):
        wrapped = wrapped_phase_matrix(rng, 500, 2)
        engine = self.make_engine(2)
        engine.extend(wrapped)
        start = 150
        context = engine.rebuild_context_samples
        assert context == 2 * 99 + 2 * 2
        ref = trailing_calibrate(wrapped, RATE_HZ)
        rebuilt = self.make_engine(2, initial_cycles=ref.cycles[start])
        rebuilt.extend(wrapped[start:])
        # Cycles and unwrapped values are exact everywhere (integer anchor);
        # the Hampel cascade is exact once its windows stop reaching past
        # the suffix start.
        np.testing.assert_array_equal(
            rebuilt.unwrapped_window(0), engine.unwrapped_window(start)
        )
        np.testing.assert_array_equal(
            rebuilt.calibrated_window(0)[context:],
            engine.calibrated_window(start + context),
        )

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            self.make_engine(0)
        with pytest.raises(ConfigurationError):
            self.make_engine(2, factor=0)
        with pytest.raises(ConfigurationError):
            StreamingCalibrator(0.4, 2)  # both windows clamp to 3 samples
        engine = self.make_engine(2)
        with pytest.raises(ConfigurationError):
            engine.extend(rng.normal(size=(10, 3)))  # wrong width
        engine.extend(np.empty((0, 2)))  # empty extend is a no-op
        assert engine.n_rows == 0
