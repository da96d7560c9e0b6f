"""Unit tests for QPSK mapping, noise injection, and block fading, which is
the noise's circular-Gaussian draw at unit variance (``LinkChannel.fading``)."""

import math

import numpy as np
import pytest

from cbfsim.arrays import AngleGrid, ArrayGeometry, subarray_gains
from cbfsim.beams import find_complementary_set
from cbfsim.channel import (
    awgn_qpsk_ber,
    complex_noise,
    noise_variance,
    q_function,
    qpsk_demodulate,
    qpsk_modulate,
    rayleigh_qpsk_ber,
)
from cbfsim.simulate import LinkChannel, transmit_cbf

ROOT_HALF = 1 / math.sqrt(2)


class TestQpskMapping:
    def test_anchor_dibits(self):
        assert qpsk_modulate([0, 0])[0] == pytest.approx((1 + 1j) * ROOT_HALF)
        assert qpsk_modulate([1, 1])[0] == pytest.approx((-1 - 1j) * ROOT_HALF)

    def test_full_table(self):
        # frozen mapping: first bit -> real sign, second bit -> imag sign
        table = {
            (0, 0): (1 + 1j), (0, 1): (1 - 1j),
            (1, 0): (-1 + 1j), (1, 1): (-1 - 1j),
        }
        for (b0, b1), point in table.items():
            assert qpsk_modulate([b0, b1])[0] == pytest.approx(point * ROOT_HALF)

    def test_unit_average_energy(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        s = qpsk_modulate(bits)
        assert np.allclose(np.abs(s) ** 2, 1.0, atol=1e-12)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            qpsk_modulate([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            qpsk_modulate([0, 2])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 1000)
        assert np.array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)

    def test_demodulate_scale_invariant(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 200)
        s = qpsk_modulate(bits)
        for c in (0.01, 1.0, 250.0):
            assert np.array_equal(qpsk_demodulate(c * s), bits)

    def test_quadrant_decision(self):
        assert np.array_equal(qpsk_demodulate(0.9 + 1.1j), [0, 0])
        assert np.array_equal(qpsk_demodulate(-0.2 + 5j), [1, 0])


class TestAwgn:
    def test_zero_variance_is_identity(self):
        rng = np.random.default_rng(0)
        s = qpsk_modulate(rng.integers(0, 2, 100))
        assert np.array_equal(s + complex_noise(s.shape, 0.0, rng), s)

    def test_sample_variance_calibrated(self):
        # an int or a tuple shape; circular: variance/2 in each real
        # dimension, and the two uncorrelated
        rng = np.random.default_rng(5)
        for shape in (1_000_000, (500, 2_000)):
            noise = complex_noise(shape, 0.6, rng)
            assert noise.shape == np.broadcast_shapes(shape)
            assert noise.dtype == complex
            assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.6, abs=0.006)
            assert np.mean(noise.real ** 2) == pytest.approx(0.3, abs=0.003)
            assert np.mean(noise.imag ** 2) == pytest.approx(0.3, abs=0.003)
            assert np.mean(noise.real * noise.imag) == pytest.approx(0.0, abs=0.003)

    def test_deterministic_under_seed(self):
        a = complex_noise(64, 0.7, np.random.default_rng(9))
        b = complex_noise(64, 0.7, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            complex_noise(4, -0.1, np.random.default_rng(0))


def rayleigh_link(seed, equal_subarrays=True):
    return LinkChannel("rayleigh", 0.0, np.random.default_rng(seed), equal_subarrays)


class TestRayleighBlock:
    @staticmethod
    def stream_fading(equal_subarrays):
        """Each cbf stream's gain over its beam gain: the stream's fading."""
        beams = find_complementary_set(ArrayGeometry(8, 2), 2,
                                       AngleGrid.uniform_theta(512), "golay")
        g1, g2 = (subarray_gains(w, beams.geometry, m, 0.3)[0]
                  for m, w in enumerate(beams.weights))
        s = qpsk_modulate(np.random.default_rng(2).integers(0, 2, 400))
        sig = transmit_cbf(s, beams, 0.3, rayleigh_link(3, equal_subarrays))
        return sig.gain1 / g1, sig.gain2 / g2

    def test_equal_subarrays_ties_links(self):
        h1, h2 = self.stream_fading(True)
        assert np.allclose(h1, h2, rtol=1e-12, atol=0)

    def test_independent_links_differ(self):
        h1, h2 = self.stream_fading(False)
        assert not np.any(np.isclose(h1, h2))

    def test_unit_mean_power(self):
        link = rayleigh_link(8)
        for h in (link.fading(100_000), link.fading(100_000)):
            assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_reproducible_sequence(self):
        a = rayleigh_link(17).fading(50)
        b = rayleigh_link(17).fading(50)
        assert np.array_equal(a, b)

    def test_envelope_is_rayleigh(self):
        # one-sample Kolmogorov-Smirnov test against F(x) = 1 - exp(-x^2)
        n = 100_000
        x = np.sort(np.abs(rayleigh_link(99).fading(n)))
        cdf = 1.0 - np.exp(-(x ** 2))
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(empirical_hi - cdf)),
                 np.max(np.abs(cdf - empirical_lo)))
        critical_1pct = 1.628 / math.sqrt(n)
        assert ks < critical_1pct


class TestSnrPoint:
    def test_es_n0_conversion(self):
        # unit-energy symbols: N0 = 1 / (Es/N0), Es/N0 = Eb/N0 + 10*log10(2)
        es_n0_db = -10 * math.log10(noise_variance(6.0))
        assert es_n0_db == pytest.approx(6.0 + 10 * math.log10(2))

    def test_noise_variance_positive_and_decreasing(self):
        variances = [noise_variance(db) for db in (-10, 0, 10, 30)]
        assert all(v > 0 for v in variances)
        assert variances == sorted(variances, reverse=True)

    def test_noise_calibration_within_005_db(self):
        # measured SNR of a calibrated frame matches the request
        rng = np.random.default_rng(12)
        s = qpsk_modulate(rng.integers(0, 2, 2_000_000))
        noisy = s + complex_noise(s.shape, noise_variance(7.0), rng)
        measured = np.mean(np.abs(s) ** 2) / np.mean(np.abs(noisy - s) ** 2)
        measured_db = 10 * math.log10(measured)
        assert abs(measured_db - (7.0 + 10 * math.log10(2))) < 0.05


class TestReferenceCurves:
    def test_q_function_anchor(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(3.0903) == pytest.approx(1e-3, rel=2e-3)

    def test_awgn_curve_at_ten_to_minus_three(self):
        # Eb/N0 = 6.79 dB gives BER very close to 1e-3
        assert awgn_qpsk_ber(6.79) == pytest.approx(1e-3, rel=5e-3)

    def test_rayleigh_curve_at_ten_db(self):
        assert rayleigh_qpsk_ber(10.0) == pytest.approx(0.02327, abs=5e-6)
