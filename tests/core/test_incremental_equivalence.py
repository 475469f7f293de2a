"""Incremental streaming vs from-scratch equivalence.

The incremental monitor's contract has three layers, each pinned here:

* **engine == from-scratch trailing pass** — the monitor's live engine
  caches are bit-identical to :func:`trailing_calibrate` run over the same
  buffered packets, and a monitor whose engine is dropped (and therefore
  rebuilt from the buffer) before every window emits bit-identical
  estimates to one whose engine ran uninterrupted;
* **degraded windows == the batch pipeline** — on impaired traces (loss,
  gaps, jitter) the engine serves no window, and every window the monitor
  emits carries exactly what :meth:`PhaseBeat.process` makes of that
  window;
* **batched stages == per-series loops** — the vectorized pipeline stages
  (multi-pair extraction, batched calibration, batched DWT) match their
  per-series reference loops within the 1e-9 equivalence budget.

Checkpoint/restore *after eviction has trimmed the buffer* (so the unwrap
anchor is no longer zero) is covered by the long-trace round trip at the
bottom — the case the plain checkpoint suite's short trace cannot reach.
"""

import dataclasses

import numpy as np
import pytest
from scipy.ndimage import median_filter

from repro import capture_trace, laboratory_scenario
from repro.core.calibration import calibrate
from repro.core.dwt_stage import DWTConfig, decompose
from repro.core.environment import V_WINDOW_S, v_statistic
from repro.core.phase_difference import phase_difference, wrapped_pair_matrix
from repro.core.pipeline import PhaseBeat, pair_difference_matrix
from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.core.subcarrier_selection import (
    amplitude_mask_from_mean,
    amplitude_quality_mask,
)
from repro.dsp.streaming_kernels import (
    TrailingHampelState,
    rolling,
    trailing_calibrate,
)
from repro.dsp.hampel import HAMPEL_THRESHOLD, NOISE_WINDOW_S, TREND_WINDOW_S
from repro.dsp.resample import decimation_factor
from repro.dsp.stats import MAD_TO_SIGMA
from repro.errors import EstimationError, NotStationaryError, SignalTooShortError
from repro.dsp.wavelet import coefficient_band, reconstruct_band, wavedec
from repro.obs import Instrumentation
from repro.rf.impairments import (
    BernoulliLoss,
    DropoutGap,
    TimestampJitter,
    apply_impairments,
)

CONFIG = StreamingConfig(window_s=8.0, hop_s=0.5)

PAIRS = [(0, 1), (0, 2)]


def assert_estimates_bitwise_equal(actual, expected):
    """Two StreamingEstimate lists carry identical decisions and values."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.time_s == e.time_s
        assert a.rejected_reason == e.rejected_reason
        assert a.held_over == e.held_over
        assert a.staleness_s == e.staleness_s
        if e.result is None:
            assert a.result is None
        else:
            assert a.result.breathing_rates_bpm == e.result.breathing_rates_bpm
            assert a.result.heart_rate_bpm == e.result.heart_rate_bpm


def counter_value(instrumentation, name):
    return instrumentation.registry.counter(name).value


class TestEngineMatchesFromScratch:
    def test_live_engine_caches_equal_trailing_calibrate(self, short_lab_trace):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        estimates = monitor.push_trace(short_lab_trace)
        assert any(e.fresh for e in estimates)
        engine = monitor._engine
        assert engine is not None, "clean trace must engage the engine"
        # The short trace never triggers eviction (the rebuild context
        # exceeds the pre-window surplus), so the buffer still holds every
        # packet and a from-scratch pass over it is directly comparable.
        assert len(monitor._buffer) == short_lab_trace.n_packets
        # The engine advances at emit time, so it covers the buffer up to
        # the last emitted window; packets pushed after that final hop are
        # buffered but not yet calibrated.
        n_rows = engine.n_rows
        assert n_rows > 0
        wrapped = wrapped_pair_matrix(
            np.stack(monitor._buffer)[:n_rows], monitor._pairs
        )
        reference = trailing_calibrate(
            wrapped,
            short_lab_trace.sample_rate_hz,
            decimation_factor=monitor._decimation,
        )
        np.testing.assert_array_equal(
            engine.unwrapped_window(0), reference.unwrapped
        )
        np.testing.assert_array_equal(
            engine.calibrated_window(0), reference.series
        )
        np.testing.assert_array_equal(
            engine.base_cycles, reference.cycles[0]
        )

    def test_rebuilding_every_window_is_bitwise_neutral(self, short_lab_trace):
        trace = short_lab_trace
        running = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        running_estimates = running.push_trace(trace)

        rebuilt = StreamingMonitor(trace.sample_rate_hz, CONFIG)
        rebuilt_estimates = []
        for k in range(trace.n_packets):
            # Forget the engine before every packet: each emitted window
            # must rebuild from the retained buffer alone.
            rebuilt._drop_engine()
            out = rebuilt.push_packet(trace.csi[k], float(trace.timestamps_s[k]))
            if out is not None:
                rebuilt_estimates.append(out)

        assert any(e.fresh for e in running_estimates)
        assert_estimates_bitwise_equal(rebuilt_estimates, running_estimates)

    def test_hops_take_the_core_compressed_median(
        self, short_lab_trace, monkeypatch
    ):
        # At this geometry (0.5 s hop, 5 s trend window) every warm hop
        # keeps a tenth of the trend window, so the trend median runs the
        # compressed layout; the caches still equal the padded from-scratch
        # pass above.
        calls = []
        compressed = rolling._core_compressed_median

        def spy(cols, window, m):
            calls.append((window, m))
            return compressed(cols, window, m)

        monkeypatch.setattr(rolling, "_core_compressed_median", spy)
        self.test_live_engine_caches_equal_trailing_calibrate(short_lab_trace)
        rate = short_lab_trace.sample_rate_hz
        assert calls
        assert {window for window, _ in calls} == {int(round(5.0 * rate))}

    def test_400hz_trend_hop_takes_the_compressed_median(self, monkeypatch):
        # The same geometry at the paper's rate: a 0.5 s hop keeps 200 of
        # the 2000-row trend window.  Only the median filters the compressed
        # layout; the MAD test decides from the same layout's band ends and
        # partitions its few undecided rows, so it runs no filter.
        calls, filters = [], []
        compressed = rolling._core_compressed_median
        median_filter_ = rolling.median_filter

        def spy(cols, window, m):
            calls.append((window, m))
            return compressed(cols, window, m)

        def filter_spy(x, *, size, **kwargs):
            filters.append(size)
            return median_filter_(x, size=size, **kwargs)

        monkeypatch.setattr(rolling, "_core_compressed_median", spy)
        monkeypatch.setattr(rolling, "median_filter", filter_spy)
        trend = TrailingHampelState(int(round(5.0 * 400.0)), 0.01)
        block = np.random.default_rng(0).normal(size=(trend.window, 2))
        trend.extend(block)
        assert calls == []  # the warm-up call pads
        assert filters == [2000, 2000]  # median and MAD, whole context
        trend.extend(block[: int(round(CONFIG.hop_s * 400.0))])
        assert calls == [(2000, 200)]  # the median
        assert filters == [2000, 2000, 2 * 200 - 1]

    def test_incremental_windows_actually_served_by_engine(self, short_lab_trace):
        obs = Instrumentation()
        monitor = StreamingMonitor(
            short_lab_trace.sample_rate_hz, CONFIG, instrumentation=obs
        )
        estimates = monitor.push_trace(short_lab_trace)
        fresh = sum(1 for e in estimates if e.fresh)
        assert counter_value(obs, "monitor_incremental_windows_total") == len(
            estimates
        )
        assert counter_value(obs, "monitor_fallback_windows_total") == 0
        assert fresh > 0


def push_with_windows(monitor, trace):
    """Push ``trace``; return ``(estimate, window trace)`` per emission."""
    out = []
    for k in range(trace.n_packets):
        estimate = monitor.push_packet(trace.csi[k], float(trace.timestamps_s[k]))
        if estimate is not None:
            out.append((estimate, monitor.window_trace()))
    return out


def batch_rates(window):
    """What the batch pipeline makes of one window: its breathing rates,
    or the monitor's rejection reason for its exception."""
    try:
        result = PhaseBeat().process(window, n_persons=1, estimate_heart=False)
    except NotStationaryError:
        return "not-stationary"
    except (EstimationError, SignalTooShortError):
        return "estimation-failed"
    return result.breathing_rates_bpm


class TestImpairedWindowsMatchBatchMonitor:
    """Windows the engine cannot serve take the monitor's batch path,
    which is :meth:`PhaseBeat.process` over the emitted window."""

    @pytest.mark.parametrize(
        "impairment",
        [
            BernoulliLoss(loss_fraction=0.1),
            DropoutGap(duration_s=0.3, start_s=4.0),
            TimestampJitter(std_s=0.004),
        ],
        ids=["bernoulli-loss", "dropout-gap", "timestamp-jitter"],
    )
    def test_fallback_estimates_bitwise_equal_batch_mode(
        self, short_lab_trace, impairment
    ):
        impaired = apply_impairments(short_lab_trace, [impairment], seed=0)
        obs = Instrumentation()
        monitor = StreamingMonitor(
            impaired.sample_rate_hz, CONFIG, instrumentation=obs
        )
        emitted = push_with_windows(monitor, impaired)
        assert emitted, "impaired trace produced no windows"
        # Every one of these impairments breaks per-step timing inside the
        # retained context, so the engine must never serve a window ...
        assert counter_value(obs, "monitor_incremental_windows_total") == 0
        # ... and each window the quality gates pass carries exactly the
        # batch pipeline's verdict on that window.
        analyzed = [
            (estimate, window)
            for estimate, window in emitted
            if estimate.rejected_reason not in ("data-gap", "degraded-input")
        ]
        assert any(estimate.fresh for estimate, _ in analyzed)
        for estimate, window in analyzed:
            expected = batch_rates(window)
            if estimate.fresh:
                assert estimate.result.breathing_rates_bpm == expected
            else:
                assert estimate.rejected_reason == expected

    def test_clean_and_impaired_accuracy_parity(self, lab_trace, lab_person):
        # Engine and batch pipeline, clean 30 s trace: every fresh estimate
        # lands within the paper-level tolerance of the simulated ground
        # truth.
        truth_bpm = lab_person.breathing.frequency_hz * 60.0
        config = StreamingConfig(window_s=20.0, hop_s=5.0)
        monitor = StreamingMonitor(lab_trace.sample_rate_hz, config)
        emitted = push_with_windows(monitor, lab_trace)
        assert emitted
        for estimate, window in emitted:
            assert estimate.fresh
            assert estimate.result.breathing_rates_bpm[0] == pytest.approx(
                truth_bpm, abs=1.0
            )
            assert batch_rates(window)[0] == pytest.approx(truth_bpm, abs=1.0)


class TestBatchedStagesMatchLoops:
    def test_pair_matrix_equals_per_pair_extraction(self, short_lab_trace):
        matrix = pair_difference_matrix(short_lab_trace, PAIRS)
        per_pair = np.hstack(
            [phase_difference(short_lab_trace, pair) for pair in PAIRS]
        )
        np.testing.assert_array_equal(matrix, per_pair)

    def test_wrapped_pair_matrix_equals_unwrapped_false_path(
        self, short_lab_trace
    ):
        wrapped = wrapped_pair_matrix(short_lab_trace.csi, PAIRS)
        per_pair = np.hstack(
            [
                phase_difference(short_lab_trace, pair, unwrap=False)
                for pair in PAIRS
            ]
        )
        np.testing.assert_array_equal(wrapped, per_pair)

    def test_wrapped_pair_matrix_is_extent_independent(self, rng):
        # Regression guard: extracting a block from a long CSI array must
        # equal extracting from that block alone, bitwise.  An expression
        # like ``a * np.conj(b)`` is NOT extent-independent — numpy elides
        # the large temporary into an in-place multiply with different
        # rounding above a size threshold — and the streaming engine's
        # blockwise-extend == rebuild-from-buffer bit-identity depends on
        # this function never taking that path.
        n = 4000
        csi = rng.standard_normal((n, 3, 30)) + 1j * rng.standard_normal(
            (n, 3, 30)
        )
        full = wrapped_pair_matrix(csi, PAIRS)
        for start, stop in [(0, 100), (1600, 1700), (500, 3500), (0, n)]:
            block = wrapped_pair_matrix(csi[start:stop], PAIRS)
            np.testing.assert_array_equal(full[start:stop], block)

    def test_batched_calibration_equals_per_column_loop(self, short_lab_trace):
        diff = pair_difference_matrix(short_lab_trace, PAIRS)[:, :8]
        rate = short_lab_trace.sample_rate_hz
        batched = calibrate(diff, rate)

        def column_hampel(x, window_s):
            # Reference: scipy's 1-D centered median on this column alone.
            window = min(max(3, int(round(window_s * rate))), x.size)
            med = median_filter(x, size=window, mode="nearest")
            mad = median_filter(np.abs(x - med), size=window, mode="nearest")
            outlier = np.abs(x - med) > HAMPEL_THRESHOLD * MAD_TO_SIGMA * mad
            return np.where(outlier, med, x)

        factor = decimation_factor(rate)
        assert batched.sample_rate_hz == rate / factor
        for col in range(diff.shape[1]):
            x = diff[:, col]
            detrended = x - column_hampel(x, TREND_WINDOW_S)
            expected = column_hampel(detrended, NOISE_WINDOW_S)[::factor]
            assert batched.series[:, col].tobytes() == expected.tobytes()

    def test_batched_dwt_equals_per_column_loop(self, rng):
        matrix = rng.normal(size=(400, 6))
        cfg = DWTConfig()
        bands = decompose(matrix, 20.0, cfg)
        for col in range(6):
            single = wavedec(matrix[:, col], cfg.wavelet, level=cfg.level)
            np.testing.assert_allclose(
                bands.breathing[:, col],
                reconstruct_band(single, keep_approx=True),
                rtol=0,
                atol=1e-9,
            )
            np.testing.assert_allclose(
                bands.heart[:, col],
                reconstruct_band(single, keep_details=cfg.heart_detail_levels),
                rtol=0,
                atol=1e-9,
            )
        assert bands.breathing_band_hz == coefficient_band(
            20.0, cfg.level, is_approx=True
        )

    def test_amplitude_mask_from_mean_equals_trace_path(self, short_lab_trace):
        mean_amplitude = np.abs(short_lab_trace.csi).mean(axis=0)
        for pair in PAIRS:
            np.testing.assert_array_equal(
                amplitude_mask_from_mean(mean_amplitude, pair),
                amplitude_quality_mask(short_lab_trace, pair),
            )

    def test_batch_process_unchanged_by_refactor_wiring(self, short_lab_trace):
        # The refactored process() (batched extraction + shared back half)
        # must agree with itself across monitor and direct invocation.
        pipeline = PhaseBeat()
        direct = pipeline.process(short_lab_trace)
        assert direct.breathing_rates_bpm[0] == pytest.approx(15.0, abs=1.5)


@pytest.fixture(scope="module")
def eviction_trace(lab_person):
    """24 s / 200 Hz capture: long enough that the incremental monitor
    evicts pre-window context (the unwrap anchor moves off zero)."""
    scenario = laboratory_scenario([lab_person], clutter_seed=5)
    return capture_trace(
        scenario, duration_s=24.0, sample_rate_hz=200.0, seed=5
    )


@pytest.fixture(scope="module")
def ramped_eviction_trace(eviction_trace):
    """``eviction_trace`` with a 0.5 Hz phase ramp on five subcarriers of
    chain 1: their phase differences wrap every 2 s, so the unwrap anchor
    a checkpoint carries is non-zero, while the other subcarriers keep V
    inside the stationary band."""
    t = eviction_trace.timestamps_s - eviction_trace.timestamps_s[0]
    csi = eviction_trace.csi.copy()
    csi[:, 1, :5] *= np.exp(2j * np.pi * 0.5 * t)[:, None]
    return dataclasses.replace(eviction_trace, csi=csi)


class TestCheckpointAfterEviction:
    CONFIG = StreamingConfig(window_s=8.0, hop_s=1.0)

    def push_range(self, monitor, trace, start, stop):
        out = []
        for k in range(start, stop):
            estimate = monitor.push_packet(
                trace.csi[k], float(trace.timestamps_s[k])
            )
            if estimate is not None:
                out.append(estimate)
        return out

    def test_restore_bit_identical_with_moved_anchor(
        self, ramped_eviction_trace
    ):
        trace = ramped_eviction_trace
        cut = 4000  # t = 20 s: eviction has already trimmed the buffer

        reference = StreamingMonitor(trace.sample_rate_hz, self.CONFIG)
        ref_estimates = self.push_range(reference, trace, 0, trace.n_packets)
        assert any(e.fresh for e in ref_estimates)
        assert len(reference._buffer) < trace.n_packets, (
            "trace too short to exercise eviction"
        )

        first = StreamingMonitor(trace.sample_rate_hz, self.CONFIG)
        estimates_a = self.push_range(first, trace, 0, cut)
        state = first.checkpoint()
        assert np.any(state["engine_cycles"] != 0), "anchor never moved"
        assert len(state["buffer"]) < cut, (
            "checkpoint taken before eviction started"
        )

        second = StreamingMonitor(trace.sample_rate_hz, self.CONFIG)
        second.restore(state)
        estimates_b = self.push_range(second, trace, cut, trace.n_packets)

        assert estimates_b, "no estimates after restore"
        assert_estimates_bitwise_equal(estimates_a + estimates_b, ref_estimates)
        assert second.counters == reference.counters
        # Rates are blind to whole turns added to a column (detrending
        # removes them up to float rounding), so the restored engine's
        # anchor is checked where it surfaces: its unwrapped cache matches
        # the uninterrupted engine's byte for byte, and so does its
        # calibrated cache past the rebuild context (the rows before it
        # were rebuilt from a suffix and may differ; no window reads them).
        restored, uninterrupted = second._engine, reference._engine
        assert restored is not None and uninterrupted is not None
        assert restored.n_rows == uninterrupted.n_rows
        assert (
            restored.unwrapped_window(0).tobytes()
            == uninterrupted.unwrapped_window(0).tobytes()
        )
        exact_from = restored.rebuild_context_samples
        assert exact_from < restored.n_rows - 8.0 * trace.sample_rate_hz
        assert (
            restored.calibrated_window(exact_from).tobytes()
            == uninterrupted.calibrated_window(exact_from).tobytes()
        )
        np.testing.assert_array_equal(
            second.checkpoint()["engine_cycles"],
            reference.checkpoint()["engine_cycles"],
        )

    def test_window_trace_right_after_restore(self, eviction_trace):
        trace = eviction_trace
        cut = 4000
        first = StreamingMonitor(trace.sample_rate_hz, self.CONFIG)
        self.push_range(first, trace, 0, cut)
        state = first.checkpoint()
        assert len(state["buffer"]) > 8.0 * trace.sample_rate_hz, (
            "no pre-window context buffered"
        )

        second = StreamingMonitor(trace.sample_rate_hz, self.CONFIG)
        second.restore(state)
        restored = second.window_trace()
        expected = first.window_trace()
        assert restored.csi.tobytes() == expected.csi.tobytes()
        assert restored.timestamps_s.tobytes() == expected.timestamps_s.tobytes()


class TestSubwindowVMemo:
    """The monitor's sliding-window V memo changes no decision.

    Every engine-served ``classify_environment`` call is checked against
    the same call without the memo, bitwise, and every memo entry against
    the V of the rows its key names in that call's window (the sub-window
    values decide only on motion, so the first check alone would miss a
    stale entry on a still subject).  The memo only ever holds sub-windows
    at or after the window start, and is empty whenever the engine is.
    """

    @pytest.fixture
    def checked(self, monkeypatch):
        stats = {"calls": 0, "reused": 0}
        original = PhaseBeat.classify_environment

        def classify(self, diff, rate, *, v_memo=None, first_row=0):
            if v_memo is None:
                return original(self, diff, rate)
            before = set(v_memo)
            v, state = original(
                self, diff, rate, v_memo=v_memo, first_row=first_row
            )
            v_plain, state_plain = original(self, diff, rate)
            assert state is state_plain
            assert np.float64(v).view(np.uint64) == np.float64(v_plain).view(
                np.uint64
            )
            window = int(round(V_WINDOW_S * rate))
            for key, value in v_memo.items():
                start = key - first_row
                assert 0 <= start <= diff.shape[0] - window
                expected = v_statistic(diff[start : start + window])
                assert np.float64(value).view(np.uint64) == np.float64(
                    expected
                ).view(np.uint64)
            stats["calls"] += 1
            stats["reused"] += len(before & set(v_memo))
            return v, state

        monkeypatch.setattr(PhaseBeat, "classify_environment", classify)
        return stats

    @staticmethod
    def push_all(monitor, trace, start=0, stop=None):
        out = []
        for k in range(start, trace.n_packets if stop is None else stop):
            estimate = monitor.push_packet(
                trace.csi[k], float(trace.timestamps_s[k])
            )
            if monitor._engine is None:
                assert monitor._v_memo == {}
            if estimate is not None:
                out.append(estimate)
        return out

    def test_clean_run_reuses_subwindows(self, short_lab_trace, checked):
        monitor = StreamingMonitor(short_lab_trace.sample_rate_hz, CONFIG)
        estimates = self.push_all(monitor, short_lab_trace)
        assert any(e.fresh for e in estimates)
        assert checked["calls"] > 1
        assert checked["reused"] > 0

    def test_engine_drop_clears_the_memo(self, eviction_trace, checked):
        # A 0.3 s gap at 8 s drops the engine; once the gap has left the
        # retained buffer (about 14 s later) the engine is rebuilt with a
        # fresh memo.
        impaired = apply_impairments(
            eviction_trace, [DropoutGap(duration_s=0.3, start_s=8.0)], seed=0
        )
        obs = Instrumentation()
        monitor = StreamingMonitor(
            impaired.sample_rate_hz,
            StreamingConfig(window_s=4.0, hop_s=0.5),
            instrumentation=obs,
        )
        self.push_all(monitor, impaired)
        assert counter_value(obs, "monitor_engine_rebuilds_total") == 2
        assert checked["reused"] > 0

    def test_checkpoint_restore(self, eviction_trace, checked):
        config = TestCheckpointAfterEviction.CONFIG
        reference = StreamingMonitor(eviction_trace.sample_rate_hz, config)
        ref_estimates = self.push_all(reference, eviction_trace)

        first = StreamingMonitor(eviction_trace.sample_rate_hz, config)
        estimates = self.push_all(first, eviction_trace, 0, 4000)
        # Restore into a monitor whose own memo is populated.
        second = StreamingMonitor(eviction_trace.sample_rate_hz, config)
        self.push_all(second, eviction_trace, 0, 2000)
        assert second._v_memo
        second.restore(first.checkpoint())
        assert second._v_memo == {}
        estimates += self.push_all(second, eviction_trace, 4000)
        assert_estimates_bitwise_equal(estimates, ref_estimates)
        assert checked["reused"] > 0
