"""Unit tests for phase-difference extraction (Theorem 1 behaviour)."""

import numpy as np
import pytest

from repro.core.phase_difference import phase_difference, raw_phase
from repro.dsp.stats import circular_resultant_length
from repro.errors import ConfigurationError


class TestPhaseDifference:
    def test_shape(self, lab_trace):
        diff = phase_difference(lab_trace)
        assert diff.shape == (lab_trace.n_packets, 30)

    def test_theorem1_stability(self, lab_trace):
        # Raw phase ≈ uniform on the circle; difference concentrated.
        raw = raw_phase(lab_trace)[:, 5]
        diff = phase_difference(lab_trace, unwrap=False)[:, 5]
        assert circular_resultant_length(raw) < 0.1
        assert circular_resultant_length(diff) > 0.9

    def test_unwrap_continuity(self, lab_trace):
        diff = phase_difference(lab_trace, unwrap=True)
        jumps = np.abs(np.diff(diff, axis=0))
        # Unwrapped series has no ±2π discontinuities.
        assert np.median(jumps) < 0.5

    def test_antenna_pair_order_flips_sign(self, short_lab_trace):
        forward = phase_difference(short_lab_trace, (0, 1), unwrap=False)
        backward = phase_difference(short_lab_trace, (1, 0), unwrap=False)
        # angle(a·conj(b)) = −angle(b·conj(a)) up to the ±π seam.
        s = np.mod(forward + backward + np.pi, 2 * np.pi) - np.pi
        assert np.allclose(s, 0.0, atol=1e-9)

    def test_carries_breathing_tone(self, lab_trace, lab_person):
        from repro.dsp.fft_utils import dominant_frequency

        diff = phase_difference(lab_trace)
        strongest = int(np.argmax(np.std(diff, axis=0)))
        f = dominant_frequency(diff[:, strongest], 400.0, band=(0.1, 0.7))
        assert f == pytest.approx(lab_person.breathing.frequency_hz, abs=0.02)

    def test_equals_conjugate_product_of_the_two_chains(self, short_lab_trace):
        csi = short_lab_trace.csi
        for a, b in [(0, 1), (1, 2), (0, 2), (2, 0)]:
            wrapped = np.angle(np.multiply(csi[:, a, :], np.conjugate(csi[:, b, :])))
            for unwrap, expected in [
                (False, wrapped),
                (True, np.unwrap(wrapped, axis=0)),
            ]:
                diff = phase_difference(short_lab_trace, (a, b), unwrap=unwrap)
                assert diff.shape == expected.shape
                assert diff.tobytes() == expected.tobytes()

    def test_same_antenna_rejected(self, short_lab_trace):
        with pytest.raises(ConfigurationError):
            phase_difference(short_lab_trace, (1, 1))

    def test_out_of_range_antenna_rejected(self, short_lab_trace):
        with pytest.raises(ConfigurationError):
            phase_difference(short_lab_trace, (0, 5))


class TestRawPhase:
    def test_wrapped_range(self, short_lab_trace):
        phases = raw_phase(short_lab_trace)
        assert np.all(phases <= np.pi)
        assert np.all(phases >= -np.pi)

    def test_out_of_range_antenna_rejected(self, short_lab_trace):
        with pytest.raises(ConfigurationError):
            raw_phase(short_lab_trace, antenna=7)
