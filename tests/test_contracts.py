"""Runtime array-contract tests (``repro.contracts``).

Each decorator is exercised both ways: a violating call raises
:class:`ContractError` naming the offending argument and shape, and a
conforming ndarray passes through untouched (same object, zero copies).
"""

import numpy as np
import pytest

from repro.contracts import (
    ArraySpec,
    check_arrays,
    check_csi,
    check_matrix,
    check_series,
    check_trace,
)
from repro.errors import ContractError, ReproError
from repro.io_.trace import CSITrace


@check_series("series")
def _identity(series):
    """Return the series exactly as received (identity probe)."""
    return series


@check_arrays(series="n", timestamps_s="n")
def _paired(series, timestamps_s):
    """Require equal-length series and timestamps."""
    return series.size


@check_csi()
def _csi_probe(csi):
    """Accept a raw CSI cube."""
    return csi.shape


@check_matrix("matrix")
def _matrix_probe(matrix):
    """Accept a samples-by-subcarriers matrix."""
    return matrix.shape


@check_arrays(maybe=ArraySpec(axes="n", allow_none=True))
def _optional(maybe=None):
    """Accept an optional 1-D array."""
    return maybe


@check_arrays(flexible=ArraySpec(axes="n|n,k"))
def _flexible(flexible):
    """Accept either a 1-D series or a 2-D matrix."""
    return np.asarray(flexible).ndim


@check_trace()
def _trace_probe(trace):
    """Accept only a CSITrace container."""
    return trace.n_packets


def _make_trace(n_packets=8):
    csi = np.ones((n_packets, 2, 4), dtype=np.complex128)
    timestamps_s = np.arange(n_packets, dtype=np.float64) / 50.0
    return CSITrace(
        csi=csi,
        timestamps_s=timestamps_s,
        sample_rate_hz=50.0,
        subcarrier_indices=np.arange(4),
    )


class TestCheckArrays:
    def test_conforming_ndarray_is_passed_through_uncopied(self):
        series = np.arange(16, dtype=np.float64)
        assert _identity(series) is series

    def test_wrong_ndim_raises_contract_error(self):
        with pytest.raises(ContractError) as excinfo:
            _identity(np.zeros((4, 4)))
        message = str(excinfo.value)
        assert "series" in message
        assert "shape (4, 4)" in message
        assert "1-d array" in message

    def test_wrong_dtype_raises_contract_error(self):
        with pytest.raises(ContractError, match="complex128"):
            _identity(np.zeros(4, dtype=np.complex128))

    def test_none_rejected_unless_allowed(self):
        with pytest.raises(ContractError, match="None"):
            _identity(None)

    def test_allow_none_accepts_none_and_checks_arrays(self):
        assert _optional(None) is None
        with pytest.raises(ContractError):
            _optional(np.zeros((2, 2)))

    def test_named_axis_binds_across_arguments(self):
        series = np.zeros(10)
        assert _paired(series, np.arange(10.0)) == 10
        with pytest.raises(ContractError, match="n == 10"):
            _paired(series, np.arange(9.0))

    def test_sequence_input_is_checked_not_rejected(self):
        assert _flexible([1.0, 2.0, 3.0]) == 1
        assert _flexible([[1.0, 2.0], [3.0, 4.0]]) == 2
        with pytest.raises(ContractError):
            _flexible("not an array of numbers")

    def test_unknown_parameter_fails_at_decoration_time(self):
        with pytest.raises(TypeError, match="no_such_param"):

            @check_arrays(no_such_param="n")
            def oops(series):
                return series

    def test_exact_axis_size_is_enforced(self):
        @check_arrays(pair=ArraySpec(axes="n,2"))
        def takes_pairs(pair):
            return pair

        takes_pairs(np.zeros((5, 2)))
        with pytest.raises(ContractError, match="axis 1 == 2"):
            takes_pairs(np.zeros((5, 3)))

    def test_contract_error_is_both_repro_and_type_error(self):
        with pytest.raises(ReproError):
            _identity(None)
        with pytest.raises(TypeError):
            _identity(None)


class TestShorthands:
    def test_check_csi_requires_3d_complex(self):
        assert _csi_probe(np.ones((4, 2, 8), dtype=np.complex128)) == (4, 2, 8)
        with pytest.raises(ContractError):
            _csi_probe(np.ones((4, 2, 8)))  # real dtype
        with pytest.raises(ContractError):
            _csi_probe(np.ones((4, 8), dtype=np.complex128))  # missing axis

    def test_check_matrix_requires_2d(self):
        assert _matrix_probe(np.zeros((3, 5))) == (3, 5)
        with pytest.raises(ContractError):
            _matrix_probe(np.zeros(5))

    def test_check_trace_accepts_trace_rejects_raw_array(self):
        trace = _make_trace()
        assert _trace_probe(trace) == trace.n_packets
        with pytest.raises(ContractError, match="ndarray"):
            _trace_probe(trace.csi)

    def test_check_trace_unknown_parameter_fails_at_decoration(self):
        with pytest.raises(TypeError, match="'trace'"):

            @check_trace()
            def no_trace_here(series):
                return series


class TestPipelineEntryPoints:
    def test_prepare_calibrated_matrix_rejects_raw_array(self):
        from repro.core.pipeline import prepare_calibrated_matrix

        with pytest.raises(ContractError):
            prepare_calibrated_matrix(np.ones((8, 2, 4), dtype=np.complex128))

    def test_v_statistic_rejects_3d_input(self):
        from repro.core.environment import v_statistic

        with pytest.raises(ContractError):
            v_statistic(np.zeros((4, 2, 3)))
