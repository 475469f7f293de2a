"""Unit tests for root-MUSIC frequency estimation."""

import numpy as np
import pytest

from repro.dsp.music import (
    estimate_frequencies,
    forward_backward_average,
    hankel_snapshots,
    noise_subspace,
    root_music_frequencies,
    sample_covariance,
)
from repro.errors import ConfigurationError, SignalTooShortError


def tones(freqs, fs, n, amps=None, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    amps = amps or [1.0] * len(freqs)
    x = sum(
        a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        for a, f in zip(amps, freqs)
    )
    return x + noise * rng.normal(size=n)


class TestHankelSnapshots:
    def test_shape(self):
        snaps = hankel_snapshots(np.arange(10.0), 4)
        assert snaps.shape == (4, 7)

    def test_content(self):
        snaps = hankel_snapshots(np.arange(6.0), 3)
        assert np.allclose(snaps[:, 0], [0, 1, 2])
        assert np.allclose(snaps[:, 3], [3, 4, 5])

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            hankel_snapshots(np.zeros(4), 4)

    def test_bad_order_raises(self):
        with pytest.raises(ConfigurationError):
            hankel_snapshots(np.zeros(10), 1)


class TestCovariance:
    def test_hermitian(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        cov = sample_covariance(x, 8)
        assert np.allclose(cov, cov.conj().T)

    def test_multi_channel_averages(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 5))
        cov = sample_covariance(x, 6)
        assert cov.shape == (6, 6)

    def test_forward_backward_persymmetric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        cov = forward_backward_average(sample_covariance(x, 6))
        exchange = np.eye(6)[::-1]
        assert np.allclose(cov, exchange @ cov.conj() @ exchange)

    def test_forward_backward_rejects_nonsquare(self):
        with pytest.raises(ConfigurationError):
            forward_backward_average(np.zeros((3, 4)))


class TestNoiseSubspace:
    def test_dimensions(self):
        cov = np.eye(8, dtype=complex)
        en = noise_subspace(cov, 3)
        assert en.shape == (8, 5)

    def test_orthogonal_to_signal_steering(self):
        # Single complex exponential: the noise subspace must be orthogonal
        # to its steering vector.
        fs, f, m = 10.0, 1.3, 8
        n = 200
        t = np.arange(n) / fs
        z = np.exp(2j * np.pi * f * t)
        cov = sample_covariance(z, m) + 1e-6 * np.eye(m)
        en = noise_subspace(cov, 1)
        steering = np.exp(2j * np.pi * f * np.arange(m) / fs)
        projection = np.linalg.norm(en.conj().T @ steering)
        assert projection < 1e-3 * np.linalg.norm(steering)

    def test_invalid_source_count(self):
        cov = np.eye(4, dtype=complex)
        with pytest.raises(ConfigurationError):
            noise_subspace(cov, 0)
        with pytest.raises(ConfigurationError):
            noise_subspace(cov, 4)


class TestRootMusic:
    def test_single_tone(self):
        fs = 10.0
        t = np.arange(500) / fs
        z = np.exp(2j * np.pi * 1.7 * t)
        cov = forward_backward_average(sample_covariance(z, 12))
        freqs = root_music_frequencies(cov, 1, fs)
        assert freqs[0] == pytest.approx(1.7, abs=0.01)

    def test_band_restriction(self):
        fs = 10.0
        t = np.arange(500) / fs
        z = np.exp(2j * np.pi * 1.0 * t) + np.exp(2j * np.pi * 3.0 * t)
        cov = forward_backward_average(sample_covariance(z, 16))
        freqs = root_music_frequencies(cov, 1, fs, band=(2.0, 4.0))
        assert freqs[0] == pytest.approx(3.0, abs=0.05)

    def test_invalid_band(self):
        cov = np.eye(6, dtype=complex)
        with pytest.raises(ConfigurationError):
            root_music_frequencies(cov, 1, 10.0, band=(3.0, 1.0))


class TestEstimateFrequencies:
    def test_single_real_tone(self):
        x = tones([0.25], 20.0, 1200, noise=0.05)
        f = estimate_frequencies(x, 1, 20.0, band=(0.1, 0.7))
        assert f[0] == pytest.approx(0.25, abs=0.01)

    def test_resolves_close_pair_beyond_fft(self):
        # 0.025 Hz apart over 60 s — at the FFT Rayleigh limit; root-MUSIC
        # with decimation resolves them cleanly.
        x = tones([0.2233, 0.2483], 20.0, 1200, noise=0.02)
        f = estimate_frequencies(x, 2, 20.0, band=(0.1, 0.7), decimation=10)
        assert f[0] == pytest.approx(0.2233, abs=0.008)
        assert f[1] == pytest.approx(0.2483, abs=0.008)

    def test_three_paper_rates(self):
        x = tones([0.1467, 0.2233, 0.2483], 20.0, 2400, noise=0.05)
        f = estimate_frequencies(x, 3, 20.0, band=(0.08, 0.7), decimation=10)
        assert np.allclose(f, [0.1467, 0.2233, 0.2483], atol=0.01)

    def test_multichannel_improves_on_single(self):
        rng = np.random.default_rng(7)
        t = np.arange(900) / 20.0
        base = np.sin(2 * np.pi * 0.21 * t) + np.sin(2 * np.pi * 0.26 * t)
        channels = np.stack(
            [base + 0.4 * rng.normal(size=t.size) for _ in range(10)], axis=1
        )
        f = estimate_frequencies(channels, 2, 20.0, band=(0.1, 0.7), decimation=5)
        assert f[0] == pytest.approx(0.21, abs=0.02)
        assert f[1] == pytest.approx(0.26, abs=0.02)

    def test_harmonic_suppression(self):
        # Strong tone + its second harmonic: asking for 2 sources must not
        # return the harmonic (it is a mixing product, not a person).
        x = tones([0.2, 0.31], 20.0, 2400, amps=[1.0, 0.5], noise=0.01)
        x = x + 0.6 * np.sin(2 * np.pi * 0.4 * np.arange(2400) / 20.0 + 0.3)
        f = estimate_frequencies(x, 2, 20.0, band=(0.1, 0.7), decimation=10)
        assert f[0] == pytest.approx(0.2, abs=0.01)
        assert f[1] == pytest.approx(0.31, abs=0.01)

    def test_decimation_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_frequencies(np.zeros(100), 1, 20.0, decimation=0)

    def test_order_too_small_rejected(self):
        # 46 persons need a model order of 48, but the subspace order is
        # capped at MAX_ORDER = 48: no noise subspace is left.
        with pytest.raises(ConfigurationError):
            estimate_frequencies(np.zeros(1000), 46, 20.0)
