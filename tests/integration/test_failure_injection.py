"""Failure-injection tests: the pipeline must fail loudly and specifically.

Corrupt, degenerate, or adversarial inputs should raise the library's typed
exceptions (never silently return garbage, never crash with a bare numpy
error deep in the stack).
"""

import numpy as np
import pytest

from repro import (
    CSITrace,
    ConfigurationError,
    EstimationError,
    NotStationaryError,
    PhaseBeat,
    ReproError,
    SignalTooShortError,
    TraceFormatError,
)


def make_trace(csi, rate=400.0):
    n = csi.shape[0]
    return CSITrace(
        csi=csi,
        timestamps_s=np.arange(n) / rate,
        sample_rate_hz=rate,
        subcarrier_indices=np.arange(csi.shape[2]),
        meta={},
    )


class TestDegenerateTraces:
    def test_all_zero_csi_rejected_or_estimation_error(self):
        trace = make_trace(np.zeros((4000, 3, 30), dtype=complex))
        with pytest.raises(ReproError):
            PhaseBeat().process(trace)

    def test_pure_noise_trace(self, rng):
        csi = 0.001 * (
            rng.normal(size=(4000, 3, 30)) + 1j * rng.normal(size=(4000, 3, 30))
        )
        with pytest.raises((EstimationError, NotStationaryError)):
            PhaseBeat().process(make_trace(csi))

    def test_constant_csi_no_person(self):
        csi = np.full((4000, 3, 30), 1.0 + 0.5j)
        with pytest.raises(NotStationaryError) as excinfo:
            PhaseBeat().process(make_trace(csi))
        assert excinfo.value.state == "no_person"

    def test_very_short_trace(self, rng):
        csi = rng.normal(size=(40, 3, 30)) + 1j * rng.normal(size=(40, 3, 30))
        with pytest.raises(ReproError):
            PhaseBeat().process(make_trace(csi))

    def test_two_antenna_trace_disables_diversity_gracefully(self, lab_trace):
        # A 2-chain NIC: pair diversity must degrade to the single pair.
        two_chain = CSITrace(
            csi=lab_trace.csi[:, :2, :],
            timestamps_s=lab_trace.timestamps_s,
            sample_rate_hz=lab_trace.sample_rate_hz,
            subcarrier_indices=lab_trace.subcarrier_indices,
            meta={},
        )
        result = PhaseBeat(enforce_stationarity=False).process(
            two_chain, estimate_heart=False
        )
        assert result.diagnostics.selected_antenna_pair == (0, 1)


class TestCorruptedFiles:
    def test_truncated_npz(self, tmp_path, lab_trace):
        path = lab_trace.save(tmp_path / "trace.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(Exception):
            CSITrace.load(path)

    def test_wrong_file_type(self, tmp_path):
        path = tmp_path / "not_a_trace.npz"
        path.write_text("this is not a zip file")
        with pytest.raises(Exception):
            CSITrace.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CSITrace.load(tmp_path / "nope.npz")


class TestHostileSegments:
    def test_nan_in_csi_rejected_at_the_boundary(self, lab_trace):
        # Non-finite CSI is rejected when the trace is constructed: a real
        # capture never produces NaN, so it must not travel any further.
        csi = lab_trace.csi.copy()
        csi[100:200, :, :] = np.nan
        with pytest.raises(TraceFormatError):
            CSITrace(
                csi=csi,
                timestamps_s=lab_trace.timestamps_s,
                sample_rate_hz=lab_trace.sample_rate_hz,
                subcarrier_indices=lab_trace.subcarrier_indices,
                meta={},
            )

    def test_dwt_on_tiny_series_raises_typed_error(self):
        from repro.dsp.wavelet import wavedec

        with pytest.raises(SignalTooShortError) as excinfo:
            wavedec(np.zeros(4), "db4", level=4)
        assert excinfo.value.required > excinfo.value.actual

    def test_selection_on_empty_matrix_raises(self):
        from repro.core.subcarrier_selection import select_subcarrier

        with pytest.raises((ConfigurationError, ValueError, IndexError)):
            select_subcarrier(np.zeros((0, 0)))


class TestExceptionContracts:
    def test_not_stationary_carries_diagnostics(self):
        error = NotStationaryError(2.5, "walking")
        assert error.v_statistic == 2.5
        assert error.state == "walking"

    def test_all_pipeline_errors_catchable_as_repro_error(self, rng):
        csi = 0.001 * (
            rng.normal(size=(4000, 3, 30)) + 1j * rng.normal(size=(4000, 3, 30))
        )
        with pytest.raises(ReproError):
            PhaseBeat().process(make_trace(csi))

    def test_trace_format_error_is_value_error(self):
        with pytest.raises(ValueError):
            raise TraceFormatError("bad trace")
