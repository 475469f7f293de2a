"""Root-MUSIC frequency estimation for multi-person breathing monitoring.

FFT-based estimation cannot separate breathing rates closer than the Rayleigh
limit of the observation window, which is why the paper's Fig. 8 shows three
persons collapsing into two spectral peaks.  Root-MUSIC is a subspace method:
it models the series as a sum of complex exponentials in noise, splits the
sample covariance into signal and noise subspaces, and reads the frequencies
off the roots of the noise-subspace polynomial — resolution is then set by
SNR, not window length (Rao & Hari, 1989; paper Section III-C2).

The estimator here follows the paper's construction: the 30 calibrated
subcarrier series act as independent snapshots of the same breathing
frequencies, their Hankel (temporally smoothed) covariances are averaged, a
forward–backward average symmetrizes the result, and the classic root-MUSIC
polynomial step extracts the frequencies.  Real-valued input is first mapped
to its analytic signal so each breathing component is a single complex
exponential rather than a conjugate pair.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import hilbert

from ..contracts import ComplexArray, FloatArray
from ..errors import ConfigurationError, EstimationError, SignalTooShortError

__all__ = [
    "hankel_snapshots",
    "sample_covariance",
    "forward_backward_average",
    "noise_subspace",
    "root_music_frequencies",
    "estimate_frequencies",
]

# Largest subspace order: the covariance is min(n_samples // 3, this) wide.
MAX_ORDER = 48
# Signal-subspace head-room beyond the number of persons.  The phase of a
# multipath sum is a *nonlinear* function of each chest displacement, so
# the measured series carries harmonics and intermodulation products of
# the breathing rates; reserving extra dimensions keeps them out of the
# noise subspace.
EXTRA_SIGNAL_DIMS = 2
# Matching tolerance (Hz) of the mixing-product rule of _select_candidates.
HARMONIC_TOLERANCE_HZ = 0.02


def hankel_snapshots(x: FloatArray | ComplexArray, order: int) -> FloatArray | ComplexArray:
    """Stack sliding windows of ``x`` into an ``order × K`` snapshot matrix.

    Temporal smoothing: each length-``order`` window of the series is one
    snapshot vector, giving ``K = len(x) - order + 1`` snapshots.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ConfigurationError(f"expected a 1-D series, got shape {x.shape}")
    if order < 2:
        raise ConfigurationError(f"subspace order must be >= 2, got {order}")
    if x.size < order + 1:
        raise SignalTooShortError(order + 1, x.size, "root-MUSIC input")
    return np.lib.stride_tricks.sliding_window_view(x, order).T.copy()


def sample_covariance(channels: FloatArray | ComplexArray, order: int) -> ComplexArray:
    """Averaged smoothed covariance across one or more channels.

    Args:
        channels: Either a single 1-D complex series or a 2-D array of shape
            ``(n_samples, n_channels)`` — e.g. the 30 subcarrier series —
            each of which contributes its Hankel snapshots.
        order: Covariance dimension m (the MUSIC subspace order).

    Returns:
        The ``m × m`` Hermitian sample covariance.
    """
    channels = np.asarray(channels)
    if channels.ndim == 1:
        channels = channels[:, None]
    if channels.ndim != 2:
        raise ConfigurationError(
            f"channels must be 1-D or 2-D, got shape {channels.shape}"
        )
    n_samples, n_channels = channels.shape
    cov = np.zeros((order, order), dtype=complex)
    total = 0
    for c in range(n_channels):
        snapshots = hankel_snapshots(channels[:, c], order)
        cov += snapshots @ snapshots.conj().T
        total += snapshots.shape[1]
    return cov / total


def forward_backward_average(cov: ComplexArray) -> ComplexArray:
    """Forward–backward averaging ``(R + J R* J) / 2``.

    Doubles the effective snapshot count and enforces the persymmetric
    structure expected of a covariance of stationary exponentials, which
    noticeably stabilizes the noise subspace for short windows.
    """
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ConfigurationError(f"covariance must be square, got {cov.shape}")
    exchange = np.eye(cov.shape[0])[::-1]
    return 0.5 * (cov + exchange @ cov.conj() @ exchange)


def noise_subspace(cov: ComplexArray, n_sources: int) -> ComplexArray:
    """Eigenvectors spanning the noise subspace of ``cov``.

    Returns the ``m × (m - n_sources)`` matrix of eigenvectors associated
    with the smallest eigenvalues.
    """
    cov = np.asarray(cov)
    m = cov.shape[0]
    if not 1 <= n_sources < m:
        raise ConfigurationError(
            f"n_sources must be in [1, {m - 1}] for an order-{m} covariance, "
            f"got {n_sources}"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    # eigh sorts ascending, so the first m - n_sources columns are noise.
    return eigenvectors[:, : m - n_sources]


def root_music_frequencies(
    cov: ComplexArray,
    n_sources: int,
    sample_rate_hz: float,
    *,
    band: tuple[float, float] | None = None,
    n_candidates: int | None = None,
) -> FloatArray:
    """Frequencies (Hz) from the roots of the noise-subspace polynomial.

    The polynomial ``p(z) = Σ_l q_l z^{m-1+l}`` with ``q_l`` the sum of the
    l-th diagonal of ``E_n E_nᴴ`` has 2(m−1) roots in conjugate-reciprocal
    pairs; the signal frequencies are the angles of the ``n_sources`` roots
    inside (and closest to) the unit circle, optionally restricted to
    ``band``.

    Args:
        n_candidates: Return up to this many near-circle in-band roots
            instead of exactly ``n_sources`` — callers can then re-rank the
            surplus candidates by signal energy (spurious roots can sit
            close to the circle while carrying negligible power).

    Raises:
        EstimationError: If no admissible roots fall inside the band.
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample rate must be positive, got {sample_rate_hz}")
    en = noise_subspace(cov, n_sources)
    projector = en @ en.conj().T
    m = projector.shape[0]
    # q[l + m - 1] = trace of the l-th diagonal, l in [-(m-1), m-1].
    coefficients = np.array(
        [np.trace(projector, offset=l) for l in range(m - 1, -m, -1)]
    )
    roots = np.roots(coefficients)
    inside = roots[np.abs(roots) <= 1.0]
    if inside.size == 0:
        raise EstimationError("root-MUSIC polynomial has no roots inside the circle")

    freqs = np.angle(inside) * sample_rate_hz / (2.0 * np.pi)
    closeness = np.abs(1.0 - np.abs(inside))
    admissible = freqs > 0
    if band is not None:
        lo, hi = band
        if lo < 0 or hi <= lo:
            raise ConfigurationError(f"band must satisfy 0 <= lo < hi, got {band}")
        admissible &= (freqs >= lo) & (freqs <= hi)
    if not admissible.any():
        raise EstimationError(f"no root-MUSIC roots inside the band {band}")
    idx = np.flatnonzero(admissible)
    ordered = idx[np.argsort(closeness[idx])]
    keep = n_candidates if n_candidates is not None else n_sources
    chosen = ordered[:keep]
    return np.sort(freqs[chosen])


def estimate_frequencies(
    channels: FloatArray,
    n_sources: int,
    sample_rate_hz: float,
    *,
    band: tuple[float, float] | None = None,
    decimation: int = 1,
) -> FloatArray:
    """End-to-end root-MUSIC estimate from one or many real-valued series.

    Real input is first mapped to its analytic signal, so each sinusoid
    contributes one exponential instead of a conjugate pair.  The subspace
    order m is ``min(n_samples // 3, MAX_ORDER)`` but never less than
    ``2 · n_model + 2``, with ``n_model = n_sources + EXTRA_SIGNAL_DIMS``.
    A candidate whose frequency matches twice a stronger candidate, or the
    sum of two stronger candidates, within :data:`HARMONIC_TOLERANCE_HZ` is
    dropped as a mixing product, not a person.  (Limitation shared with the
    paper: a real subject breathing at exactly twice another's rate is
    indistinguishable from a harmonic.)

    Args:
        channels: 1-D series or ``(n_samples, n_channels)`` matrix (the
            paper's H of Eq. 12, one column per subcarrier).
        n_sources: Number of frequencies to recover (= number of persons).
        sample_rate_hz: Sample rate of the series in Hz.
        band: Optional admissible frequency band in Hz.
        decimation: Keep every n-th sample *after* the analytic-signal step.
            Breathing rates live far below the 20 Hz processing rate, so the
            phase advance per sample is tiny; decimating stretches the
            subspace aperture and sharply improves the resolution of close
            rates.

    Returns:
        ``n_sources`` frequencies in Hz, sorted ascending (fewer if some
        roots were inadmissible).
    """
    channels = np.asarray(channels, dtype=float)
    if channels.ndim == 1:
        channels = channels[:, None]
    if decimation < 1:
        raise ConfigurationError(f"decimation must be >= 1, got {decimation}")
    data = hilbert(channels - channels.mean(axis=0, keepdims=True), axis=0)
    data = data[::decimation]
    effective_rate = sample_rate_hz / decimation
    n_samples = data.shape[0]
    n_model = n_sources + EXTRA_SIGNAL_DIMS
    order = min(max(2 * n_model + 2, n_samples // 3), MAX_ORDER)
    if order <= n_model + 1:
        raise ConfigurationError(
            f"subspace order ({order}) must exceed the model order "
            f"({n_model}) + 1 for a usable noise subspace"
        )
    cov = forward_backward_average(sample_covariance(data, order))
    candidates = root_music_frequencies(
        cov,
        n_model,
        effective_rate,
        band=band,
        n_candidates=min(2 * n_model + 2, order - 1),
    )
    return _select_candidates(data, candidates, effective_rate, n_sources)


def _select_candidates(
    data: ComplexArray,
    candidates: FloatArray,
    sample_rate_hz: float,
    n_sources: int,
) -> FloatArray:
    """Rank candidate frequencies by energy and drop mixing products.

    A spurious root can sit as close to the unit circle as a real one while
    explaining almost none of the signal, so candidates are least-squares
    fitted to the (analytic, decimated) data and ranked by amplitude.  A
    candidate matching 2× a stronger accepted frequency — or the sum of two
    stronger accepted frequencies — is rejected as an intermodulation
    product of the phase nonlinearity.
    """
    if candidates.size == 0:
        return candidates
    t = np.arange(data.shape[0]) / sample_rate_hz
    basis = np.exp(2j * np.pi * np.outer(t, candidates))
    amplitudes, *_ = np.linalg.lstsq(basis, data, rcond=None)
    power = np.mean(np.abs(amplitudes), axis=1)
    ranked = list(np.argsort(power)[::-1])

    accepted: list[int] = []
    skipped: list[int] = []
    for idx in ranked:
        if len(accepted) == n_sources:
            break
        f = candidates[idx]
        if _is_mixing_product(f, [candidates[a] for a in accepted]):
            skipped.append(idx)
            continue
        accepted.append(idx)
    # Backfill from skipped candidates if suppression was too aggressive.
    for idx in skipped:
        if len(accepted) == n_sources:
            break
        accepted.append(idx)
    return np.sort(candidates[sorted(accepted)])


def _is_mixing_product(frequency_hz: float, accepted: list[float]) -> bool:
    for f1 in accepted:
        if abs(frequency_hz - 2.0 * f1) <= HARMONIC_TOLERANCE_HZ:
            return True
        for f2 in accepted:
            if abs(frequency_hz - (f1 + f2)) <= HARMONIC_TOLERANCE_HZ:
                return True
    return False
