"""Unit tests for space-time encoding, the effective channel, and detection."""

import numpy as np
import pytest

from cbfsim.arrays import AngleGrid, ArrayGeometry, WeightVector, beam_pattern
from cbfsim.beams import golay_construct
from cbfsim.stbc import mmse_decode_streams
from oracles import (alamouti_encode, composite_channel, fallback_pattern,
                     mmse_decode, pattern_variance, receive)


def random_symbols(rng, n=1):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestAlamoutiEncode:
    def test_zero_symbols(self):
        assert np.array_equal(alamouti_encode(0, 0), np.zeros((2, 2)))

    def test_direct_substitution(self):
        cw = alamouti_encode(1 + 1j, 1 - 1j)
        assert np.array_equal(cw, np.array([[1 + 1j, -1 - 1j], [1 - 1j, 1 - 1j]]))

    def test_columns_orthogonal_with_equal_power(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s1, s2 = random_symbols(rng, 2)
            cw = alamouti_encode(s1, s2)
            inner = np.vdot(cw[:, 0], cw[:, 1])
            assert abs(inner) < 1e-12
            power = abs(s1) ** 2 + abs(s2) ** 2
            assert np.linalg.norm(cw[:, 0]) ** 2 == pytest.approx(power, rel=1e-12)
            assert np.linalg.norm(cw[:, 1]) ** 2 == pytest.approx(power, rel=1e-12)

    def test_power_split_keeps_per_period_budget(self):
        # with the 1/sqrt(2) per-stream split, each period radiates half the
        # raw column power, i.e. the mean symbol energy
        rng = np.random.default_rng(4)
        s1, s2 = random_symbols(rng, 2)
        cw = alamouti_encode(s1, s2) / np.sqrt(2)
        total = np.linalg.norm(cw) ** 2  # both periods
        assert total == pytest.approx(abs(s1) ** 2 + abs(s2) ** 2, rel=1e-12)


class TestCompositeChannel:
    def test_unit_inputs(self):
        h = composite_channel(1, 1, 1, 1)
        assert np.array_equal(h, np.array([[1, 1], [1, -1]]))

    def test_beam_null_keeps_orthogonality(self):
        h = composite_channel(0, 1, 1, 1)
        gram = h.conj().T @ h
        assert np.allclose(gram, np.eye(2), atol=1e-15)

    def test_gram_is_scaled_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            g1, g2, h1, h2 = random_symbols(rng, 4)
            h = composite_channel(g1, g2, h1, h2)
            rho = abs(g1 * h1) ** 2 + abs(g2 * h2) ** 2
            gram = h.conj().T @ h
            assert np.max(np.abs(gram - rho * np.eye(2))) < 1e-12 * max(1.0, rho)


class TestReceive:
    def test_known_values(self):
        cw = alamouti_encode(1, 1j)
        y1, y2 = receive(cw, 1, 1, 1, 1)
        assert y1 == pytest.approx(1 + 1j)
        assert y2 == pytest.approx(1 + 1j)  # -(1j)* + (1)* = 1 + 1j

    def test_matrix_form_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s1, s2, g1, g2, h1, h2 = random_symbols(rng, 6)
            y1, y2 = receive(alamouti_encode(s1, s2), g1, g2, h1, h2)
            h = composite_channel(g1, g2, h1, h2)
            stacked = h @ np.array([s1, s2])
            assert abs(stacked[0] - y1) < 1e-12
            assert abs(stacked[1] - np.conj(y2)) < 1e-12

    def test_zero_symbols_pass_noise_through(self):
        y1, y2 = receive(alamouti_encode(0, 0), 1, 1, 1, 1, noise=(0.3 + 1j, -2j))
        assert y1 == 0.3 + 1j
        assert y2 == -2j


class TestMmseDecode:
    def test_identity_channel(self):
        s = np.array([0.5 - 0.5j, -1 + 2j])
        h = np.eye(2, dtype=complex)
        est = mmse_decode((s[0], np.conj(s[1])), h, 0.0)
        assert np.allclose(est, s, atol=1e-12)

    def test_zero_forcing_exactness(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            s1, s2, g1, g2, h1, h2 = random_symbols(rng, 6)
            y1, y2 = receive(alamouti_encode(s1, s2), g1, g2, h1, h2)
            h = composite_channel(g1, g2, h1, h2)
            est = mmse_decode((y1, y2), h, 0.0)
            assert np.max(np.abs(est - [s1, s2])) < 1e-9

    def test_mmse_shrinks_by_rho_over_rho_plus_sigma(self):
        rng = np.random.default_rng(6)
        sigma2 = 0.37
        for _ in range(100):
            s1, s2, g1, g2, h1, h2 = random_symbols(rng, 6)
            y1, y2 = receive(alamouti_encode(s1, s2), g1, g2, h1, h2)
            h = composite_channel(g1, g2, h1, h2)
            est = mmse_decode((y1, y2), h, sigma2)
            rho = abs(g1 * h1) ** 2 + abs(g2 * h2) ** 2
            expected = rho / (rho + sigma2) * np.array([s1, s2])
            assert np.allclose(est, expected, atol=1e-10)

    def test_singular_channel_raises(self):
        h = composite_channel(0, 0, 0, 0)
        with pytest.raises(np.linalg.LinAlgError):
            mmse_decode((0.1, 0.2), h, 0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            mmse_decode((0, 0), np.eye(2), -1.0)

    def test_stream_form_matches_matrix_form(self):
        rng = np.random.default_rng(7)
        for sigma2 in (0.0, 0.2):
            s1, s2, g1, g2, h1, h2, n1, n2 = random_symbols(rng, 8)
            y1, y2 = receive(alamouti_encode(s1, s2), g1, g2, h1, h2, (n1, n2))
            matrix = mmse_decode((y1, y2), composite_channel(g1, g2, h1, h2), sigma2)
            e1, e2 = mmse_decode_streams(y1, y2, g1 * h1, g2 * h2, sigma2)
            assert abs(complex(e1) - matrix[0]) < 1e-12
            assert abs(complex(e2) - matrix[1]) < 1e-12

    def test_stream_form_zero_channel_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            mmse_decode_streams(1.0, 1.0, 0.0, 0.0, 0.0)


class TestFallbackPattern:
    GEOM = ArrayGeometry(8, 2)
    GRID = AngleGrid.uniform_theta(512)

    def test_uniform_concatenation(self):
        w = WeightVector(np.ones(4))
        fp = fallback_pattern(w, w, self.GEOM, self.GRID)
        # boresight: 8 coherent elements scaled by 1/sqrt(4)
        idx = np.argmin(np.abs(self.GRID.points))
        assert abs(fp.gains[idx]) == pytest.approx(8 / 2, rel=1e-12)

    def test_equals_sum_of_subarray_patterns(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w1 = WeightVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
            w2 = WeightVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
            fp = fallback_pattern(w1, w2, self.GEOM, self.GRID)
            total = (beam_pattern(w1, self.GEOM, 0, self.GRID).gains
                     + beam_pattern(w2, self.GEOM, 1, self.GRID).gains)
            assert np.max(np.abs(fp.gains - total)) < 1e-12

    def test_complementary_pair_loses_isotropy_when_correlated(self):
        # the 1.10 reference value for the collapsed golay pair was computed
        # once with this very grid and frozen as a sanity floor
        geom = ArrayGeometry(16, 2)
        a, b = golay_construct(8)
        var = pattern_variance(fallback_pattern(a, b, geom, self.GRID))
        assert var > 0.5

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            fallback_pattern(WeightVector(np.ones(3)), WeightVector(np.ones(4)),
                             self.GEOM, self.GRID)
        with pytest.raises(ValueError):
            fallback_pattern(WeightVector(np.ones(4)), WeightVector(np.ones(4)),
                             ArrayGeometry(12, 3), self.GRID)
