"""Streaming-kernel exactness: trailing medians, cycle unwrap, sliding DFT.

The incremental monitor's correctness argument rests on two bitwise claims
pinned here against naive reference implementations:

* trailing (causal) order statistics are frozen once computed, so blockwise
  incremental evaluation — and rebuilding from a buffered suffix — equals a
  from-scratch pass exactly;
* the integer cycle counter of ``cycle_unwrap`` is exactly associative, so
  blockwise unwrapping equals a single pass bitwise.

Float-tolerance claims (sliding DFT vs a fresh rFFT) are tested against the
1e-9 equivalence budget used throughout the streaming suite.
"""

import numpy as np
import pytest

from repro.dsp.fft_utils import (
    batched_magnitude_spectrum,
    magnitude_spectrum,
    rfft_plan,
)
from repro.dsp.hampel import hampel_filter, rolling_median
from repro.dsp.stats import MAD_TO_SIGMA
from repro.dsp.streaming_kernels import (
    CycleUnwrapper,
    RowStore,
    SlidingDFT,
    StreamingCalibrator,
    TrailingHampelState,
    batched_hampel_filter,
    batched_rolling_median,
    cycle_unwrap,
    trailing_calibrate,
    trailing_hampel,
    trailing_mad,
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


class TestTrailingMadAndHampel:
    def test_mad_is_median_of_deviations(self, rng):
        x = rng.normal(size=80)
        med = trailing_median(x, 7)
        np.testing.assert_array_equal(
            trailing_mad(x, 7), trailing_median(np.abs(x - med), 7)
        )

    def test_mad_median_reuse_is_bitwise_neutral(self, rng):
        x = rng.normal(size=80)
        med = trailing_median(x, 7)
        np.testing.assert_array_equal(
            trailing_mad(x, 7), trailing_mad(x, 7, median=med)
        )

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


class TestBatchedCenteredKernels:
    def test_batched_rolling_median_matches_per_column(self, rng):
        matrix = rng.normal(size=(64, 5))
        out = batched_rolling_median(matrix, 9)
        for col in range(5):
            np.testing.assert_array_equal(
                out[:, col], rolling_median(matrix[:, col], 9)
            )

    def test_batched_hampel_matches_per_column_loop(self, rng):
        matrix = rng.normal(size=(64, 5))
        matrix[10, 2] += 30.0
        out = batched_hampel_filter(matrix, 11, 0.01)
        for col in range(5):
            np.testing.assert_array_equal(
                out[:, col], hampel_filter(matrix[:, col], 11, 0.01)
            )

    def test_window_clamped_to_series_length_like_1d_filter(self, rng):
        matrix = rng.normal(size=(6, 3))
        out = batched_hampel_filter(matrix, 50, 0.01)
        for col in range(3):
            np.testing.assert_array_equal(
                out[:, col], hampel_filter(matrix[:, col], 50, 0.01)
            )

    def test_1d_input_treated_as_single_column(self, rng):
        x = rng.normal(size=40)
        out = batched_hampel_filter(x, 7, 0.01)
        assert out.shape == (40, 1)
        np.testing.assert_array_equal(out[:, 0], hampel_filter(x, 7, 0.01))


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

    def test_stateful_wrapper_matches_single_pass(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (250, 3))
        unwrapper = CycleUnwrapper()
        blocks = [
            unwrapper.extend(b)
            for b in np.array_split(wrapped, [40, 41, 150], axis=0)
        ]
        full, _ = cycle_unwrap(wrapped)
        np.testing.assert_array_equal(np.concatenate(blocks), full)

    def test_empty_block_is_a_noop(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (50, 2))
        unwrapper = CycleUnwrapper()
        unwrapper.extend(wrapped[:20])
        out = unwrapper.extend(wrapped[:0])
        assert out.shape == (0, 2)
        full, _ = cycle_unwrap(wrapped)
        np.testing.assert_array_equal(unwrapper.extend(wrapped[20:]), full[20:])


class TestSlidingDFT:
    def test_full_window_matches_direct_rfft(self, rng):
        n = 64
        x = rng.normal(size=3 * n)
        sdft = SlidingDFT(n, resync_every=0)
        for v in x[:-1]:
            sdft.push(v)
        spectrum = sdft.push(x[-1])
        np.testing.assert_allclose(
            spectrum, np.fft.rfft(x[-n:]), rtol=0, atol=1e-9
        )

    def test_block_extend_replacing_window_is_exact(self, rng):
        n = 32
        sdft = SlidingDFT(n)
        x = rng.normal(size=100)
        spectrum = sdft.extend(x)
        np.testing.assert_array_equal(spectrum, np.fft.rfft(x[-n:]))

    def test_partial_window_equals_zero_padded_rfft(self, rng):
        n = 16
        sdft = SlidingDFT(n, resync_every=0)
        x = rng.normal(size=5)
        for v in x:
            spectrum = sdft.push(v)
        padded = np.concatenate([np.zeros(n - 5), x])
        np.testing.assert_allclose(spectrum, np.fft.rfft(padded), atol=1e-9)

    def test_tracked_bin_subset(self, rng):
        n = 64
        bins = np.array([2, 3, 4])
        sdft = SlidingDFT(n, bins=bins, resync_every=0)
        x = rng.normal(size=n)
        spectrum = sdft.extend(x)
        np.testing.assert_allclose(spectrum, np.fft.rfft(x)[bins], atol=1e-9)

    def test_resync_bounds_drift(self, rng):
        n = 16
        sdft = SlidingDFT(n, resync_every=8)
        x = rng.normal(size=200)
        for v in x:
            spectrum = sdft.push(v)
        np.testing.assert_allclose(spectrum, np.fft.rfft(x[-n:]), atol=1e-9)

    def test_window_contents_oldest_first(self, rng):
        sdft = SlidingDFT(4, resync_every=0)
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            sdft.push(v)
        np.testing.assert_array_equal(
            sdft.window_contents(), [2.0, 3.0, 4.0, 5.0]
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingDFT(1)
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, bins=np.array([], dtype=int))
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, bins=np.array([5]))  # > n // 2
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, resync_every=-1)


class TestRfftPlan:
    def test_cached_instance_is_reused(self):
        assert rfft_plan(256, 20.0) is rfft_plan(256, 20.0)

    def test_grid_matches_numpy_and_is_frozen(self):
        plan = rfft_plan(100, 50.0)
        np.testing.assert_array_equal(
            plan.freqs_hz, np.fft.rfftfreq(100, d=1.0 / 50.0)
        )
        assert plan.n_bins == 51
        assert plan.bin_width_hz == pytest.approx(0.5)
        with pytest.raises(ValueError):
            plan.freqs_hz[0] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rfft_plan(0, 20.0)
        with pytest.raises(ConfigurationError):
            rfft_plan(64, 0.0)


class TestBatchedSpectrum:
    # The batched rFFT takes a different (vectorized) FFT code path than the
    # 1-D transform, so per-column agreement is to float rounding, not
    # bitwise — well inside the suite's 1e-9 budget either way.
    def test_matches_per_column_magnitude_spectrum(self, rng):
        matrix = rng.normal(size=(128, 4))
        freqs, mags = batched_magnitude_spectrum(matrix, 20.0)
        for col in range(4):
            f_col, m_col = magnitude_spectrum(matrix[:, col], 20.0)
            np.testing.assert_array_equal(freqs, f_col)
            np.testing.assert_allclose(mags[:, col], m_col, rtol=0, atol=1e-9)

    def test_zero_padding_matches(self, rng):
        matrix = rng.normal(size=(100, 3))
        freqs, mags = batched_magnitude_spectrum(matrix, 20.0, nfft=256)
        f0, m0 = magnitude_spectrum(matrix[:, 0], 20.0, nfft=256)
        np.testing.assert_array_equal(freqs, f0)
        np.testing.assert_allclose(mags[:, 0], m0, rtol=0, atol=1e-9)


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

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            TrailingHampelState(0, 0.01)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, -1.0)
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


# Short windows keep the reference fast: trend 1 s / noise 0.1 s at 100 Hz
# gives trend_w=100, noise_w=10, rebuild context 2*99 + 2*9 = 216 rows.
CAL_KW = dict(trend_window_s=1.0, noise_window_s=0.1, hampel_threshold=0.01)


class TestTrailingCalibrate:
    def test_decimation_grid_anchored_at_row_zero(self, rng):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        dec = trailing_calibrate(wrapped, 100.0, decimation_factor=5, **CAL_KW)
        np.testing.assert_array_equal(dec.series, ref.predecimation_series[::5])
        np.testing.assert_array_equal(dec.predecimation_series, ref.predecimation_series)
        assert dec.sample_rate_hz == pytest.approx(20.0)

    def test_unwrap_uses_integer_cycles(self, rng):
        wrapped = wrapped_phase_matrix(rng, 300, 2)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        np.testing.assert_array_equal(
            ref.unwrapped, wrapped + 2.0 * np.pi * ref.cycles
        )
        np.testing.assert_array_equal(ref.cycles[0], np.zeros(2, dtype=np.int64))

    def test_initial_cycles_shift_whole_series_by_whole_turns(self, rng):
        wrapped = wrapped_phase_matrix(rng, 200, 2)
        base = np.array([3, -2], dtype=np.int64)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        shifted = trailing_calibrate(wrapped, 100.0, initial_cycles=base, **CAL_KW)
        np.testing.assert_array_equal(shifted.cycles, ref.cycles + base)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=50), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(np.empty((0, 2)), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=(50, 2)), 100.0, decimation_factor=0)
        with pytest.raises(ConfigurationError):
            # Denoise window not shorter than the trend window.
            trailing_calibrate(
                rng.normal(size=(50, 2)), 100.0,
                trend_window_s=0.1, noise_window_s=1.0,
            )


class TestStreamingCalibrator:
    def make_engine(self, n_series, factor=1, initial_cycles=None):
        return StreamingCalibrator(
            100.0,
            n_series,
            decimation_factor=factor,
            initial_cycles=initial_cycles,
            **CAL_KW,
        )

    @pytest.mark.parametrize("splits", [[123], [1, 5, 50], [30, 30, 30, 30]])
    def test_blocked_extends_match_stateless_reference_bitwise(self, rng, splits):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
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
        ref = trailing_calibrate(wrapped, 100.0, decimation_factor=5, **CAL_KW)
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
        assert context == 2 * 99 + 2 * 9
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
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
            StreamingCalibrator(
                100.0, 2, trend_window_s=0.1, noise_window_s=1.0
            )
        engine = self.make_engine(2)
        with pytest.raises(ConfigurationError):
            engine.extend(rng.normal(size=(10, 3)))  # wrong width
        engine.extend(np.empty((0, 2)))  # empty extend is a no-op
        assert engine.n_rows == 0
