"""Typed array aliases and runtime shape/dtype contracts.

The PhaseBeat pipeline is a chain of array transforms whose correctness
hinges on conventions the type system never sees: CSI stays
``(packets, antennas, subcarriers)`` complex, phase series are 1-D real,
calibrated matrices are ``(n_samples, n_subcarriers)``.  This module makes
those conventions explicit twice over:

* **Statically** — the ``FloatArray`` / ``ComplexArray`` / ``BoolArray`` /
  ``IntArray`` aliases are what public signatures use instead of bare
  ``np.ndarray`` (enforced by phaselint rule PL002).
* **At runtime** — the ``@check_arrays`` / ``@check_csi`` / ``@check_trace``
  decorators verify ndim, dtype kind, and named-axis consistency at the
  public entry points of ``core/``, ``dsp/``, and ``rf/``, raising
  :class:`~repro.errors.ContractError` with the offending shape instead of
  letting a transposed matrix propagate garbage downstream.

Checks are observations only — a conforming ndarray argument passes
through with zero copies and no casting (sequence inputs are checked via
the same ``asarray`` view the wrapped function will build).

Axis specs are comma-separated tokens, one per dimension::

    @check_arrays(series="n_samples", matrix="n_samples,n_subcarriers")
    @check_csi()          # csi: (packets, antennas, subcarriers) complex

An integer token pins that axis to an exact size; a name token binds on
first use and must agree across every spec in the same call, so
``series="n_samples"`` and ``timestamps_s="n_samples"`` enforce equal
lengths.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from .errors import ContractError

__all__ = [
    "BoolArray",
    "ComplexArray",
    "FloatArray",
    "IntArray",
    "ArraySpec",
    "check_arrays",
    "check_csi",
    "check_matrix",
    "check_series",
    "check_trace",
]

#: 1-D/2-D real-valued series and matrices (phase, displacement, spectra).
FloatArray = NDArray[np.float64]
#: Complex CSI and channel responses.
ComplexArray = NDArray[np.complex128]
#: Eligibility / quality masks.
BoolArray = NDArray[np.bool_]
#: Index arrays (subcarrier indices, peak locations).
IntArray = NDArray[np.int64]

_F = TypeVar("_F", bound=Callable[..., Any])

# Dtype-kind groups a contract may demand.  "real" admits integer input on
# purpose: test vectors are often integer ramps, and every consumer
# immediately does float arithmetic on them.
_DTYPE_KINDS = {
    "real": frozenset("fiu"),
    "float": frozenset("f"),
    "complex": frozenset("c"),
    "bool": frozenset("b"),
    "numeric": frozenset("fiuc"),
    "any": None,
}


@dataclass(frozen=True)
class ArraySpec:
    """Contract for one array argument.

    Attributes:
        axes: Comma-separated axis tokens (``"packets,antennas,subcarriers"``);
            names bind per call, integers pin exact sizes.
        dtype: One of ``"real"``, ``"float"``, ``"complex"``, ``"bool"``,
            ``"numeric"``, ``"any"``.
        allow_none: Accept ``None`` (for optional array arguments).
    """

    axes: str
    dtype: str = "real"
    allow_none: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPE_KINDS:
            raise ValueError(
                f"unknown dtype group {self.dtype!r}; expected one of "
                f"{sorted(_DTYPE_KINDS)}"
            )

    @property
    def alternatives(self) -> tuple[tuple[str, ...], ...]:
        """Admissible axis layouts; ``"n|n,k"`` accepts 1-D or 2-D."""
        return tuple(
            tuple(t.strip() for t in alt.split(",") if t.strip())
            for alt in self.axes.split("|")
        )

    def describe(self) -> str:
        """Human-readable form used in :class:`ContractError` messages."""
        layouts = " or ".join(
            f"a {len(alt)}-d array shaped ({', '.join(alt)})"
            for alt in self.alternatives
        )
        return f"{layouts} of {self.dtype} dtype"


def _check_value(
    func_name: str,
    name: str,
    value: Any,
    spec: ArraySpec,
    bindings: dict[str, int],
) -> None:
    if value is None:
        if spec.allow_none:
            return
        raise ContractError(func_name, name, spec.describe(), "None")
    if isinstance(value, np.ndarray):
        array = value
    else:
        # Sequence inputs are checked through the same asarray view the
        # wrapped function will build; an ndarray input is never copied.
        try:
            array = np.asarray(value)
        except Exception:
            raise ContractError(
                func_name, name, spec.describe(), type(value).__name__
            ) from None
    actual = f"shape {array.shape} dtype {array.dtype}"
    by_ndim = {len(alt): alt for alt in spec.alternatives}
    tokens = by_ndim.get(array.ndim)
    if tokens is None:
        raise ContractError(func_name, name, spec.describe(), actual)
    kinds = _DTYPE_KINDS[spec.dtype]
    if kinds is not None and array.dtype.kind not in kinds:
        raise ContractError(func_name, name, spec.describe(), actual)
    for axis, (token, size) in enumerate(zip(tokens, array.shape)):
        if token.isdigit():
            if size != int(token):
                raise ContractError(
                    func_name,
                    name,
                    f"{spec.describe()} with axis {axis} == {token}",
                    actual,
                )
        else:
            bound = bindings.setdefault(token, size)
            if bound != size:
                raise ContractError(
                    func_name,
                    name,
                    f"{spec.describe()} with {token} == {bound} "
                    "(bound by an earlier argument)",
                    actual,
                )


def _as_spec(raw: str | tuple[str, str] | ArraySpec) -> ArraySpec:
    if isinstance(raw, ArraySpec):
        return raw
    if isinstance(raw, tuple):
        axes, dtype = raw
        return ArraySpec(axes=axes, dtype=dtype)
    return ArraySpec(axes=raw)


def check_arrays(**raw_specs: str | tuple[str, str] | ArraySpec) -> Callable[[_F], _F]:
    """Declare shape/dtype contracts for named array arguments.

    Args:
        **raw_specs: Map of parameter name to contract — an axis string
            (real dtype), an ``(axes, dtype)`` tuple, or an
            :class:`ArraySpec`.

    Returns:
        A decorator enforcing the contracts on every call.

    Raises:
        TypeError: At decoration time, when a named parameter does not
            exist on the wrapped function (catches signature drift).
    """
    specs = {name: _as_spec(raw) for name, raw in raw_specs.items()}

    def decorate(func: _F) -> _F:
        sig = inspect.signature(func)
        unknown = set(specs) - set(sig.parameters)
        if unknown:
            raise TypeError(
                f"@check_arrays on {func.__qualname__}: unknown parameter(s) "
                f"{sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                # Invalid call: let the function raise its natural error.
                return func(*args, **kwargs)
            bindings: dict[str, int] = {}
            for name, spec in specs.items():
                if name in bound.arguments:
                    _check_value(
                        func.__qualname__, name, bound.arguments[name], spec,
                        bindings,
                    )
            return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def check_csi(
    arg: str = "csi", axes: str = "packets,antennas,subcarriers"
) -> Callable[[_F], _F]:
    """Contract for a raw complex CSI matrix in the paper's axis order."""
    return check_arrays(**{arg: ArraySpec(axes=axes, dtype="complex")})


def check_series(*names: str, dtype: str = "real") -> Callable[[_F], _F]:
    """Contract: each named argument is a 1-D ``n_samples`` array."""
    return check_arrays(
        **{name: ArraySpec(axes="n_samples", dtype=dtype) for name in names}
    )


def check_matrix(
    *names: str, axes: str = "n_samples,n_subcarriers", dtype: str = "real"
) -> Callable[[_F], _F]:
    """Contract: each named argument is a 2-D samples×subcarriers matrix."""
    return check_arrays(
        **{name: ArraySpec(axes=axes, dtype=dtype) for name in names}
    )


def check_trace(arg: str = "trace") -> Callable[[_F], _F]:
    """Require the named argument to be a :class:`~repro.io_.trace.CSITrace`.

    The trace validates its own internal layout at construction; this
    contract catches the caller who passes the raw ``csi`` array (or a
    file path) where the container is expected.
    """

    def decorate(func: _F) -> _F:
        sig = inspect.signature(func)
        if arg not in sig.parameters:
            raise TypeError(
                f"@check_trace on {func.__qualname__}: unknown parameter {arg!r}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            from .io_.trace import CSITrace  # local: avoids an import cycle

            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                return func(*args, **kwargs)
            value = bound.arguments.get(arg)
            if value is not None and not isinstance(value, CSITrace):
                raise ContractError(
                    func.__qualname__,
                    arg,
                    "a CSITrace (complex csi (packets, antennas, subcarriers) "
                    "+ timestamps)",
                    type(value).__name__,
                )
            return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
