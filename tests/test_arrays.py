"""Unit tests for the array model: geometry, steering, patterns, variance,
and the composite power tables of a beam set."""

import math

import numpy as np
import pytest

from cbfsim.arrays import (
    AngleGrid,
    ArrayGeometry,
    gain_power,
    steering_basis,
    subarray_gains,
)
from cbfsim.beams import ComplementaryBeamSet, SearchMeta
from oracles import pattern_variance, uniform_psi_grid


def beam_set(geometry, weights, grid):
    return ComplementaryBeamSet(geometry, weights, grid, SearchMeta("explicit", 0))


def steering(geometry, subarray, angle):
    """Steering row of one sub-array at one angle, global offsets included:
    the gains of its unit weight vectors, unscaled."""
    ns = geometry.subarray_size
    return subarray_gains(np.eye(ns), geometry, subarray, angle)[0] * np.sqrt(ns)


def pattern(weights, geometry, subarray, grid):
    return subarray_gains(weights, geometry, subarray, grid.points)


class TestArrayGeometry:
    def test_subarray_partition(self):
        # sub-array m drives elements 8m..8m+7: at angle 0.3 its unit weight
        # vectors steer exactly as those rows of the full array's basis
        geom = ArrayGeometry(16, 2)
        assert geom.subarray_size == 8
        full = steering_basis(np.arange(16), geom.spacing, 0.3)[0]
        for m in (0, 1):
            gains = subarray_gains(np.eye(8), geom, m, 0.3)[0]
            assert np.array_equal(gains, full[8 * m:8 * m + 8] * (1.0 / np.sqrt(8)))

    def test_single_element_is_legal(self):
        geom = ArrayGeometry(1, 1)
        assert geom.subarray_size == 1

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(10, 3)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(8, 2, spacing=0.0)
        for spacing in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                ArrayGeometry(8, 2, spacing=spacing)

    def test_bad_subarray_index(self):
        geom = ArrayGeometry(8, 2)
        for subarray in (2, -1):
            with pytest.raises(ValueError, match="outside 0..1"):
                subarray_gains(np.ones(4), geom, subarray, 0.0)


class TestAngleGrid:
    def test_uniform_theta_covers_half_open_interval(self):
        grid = AngleGrid.uniform_theta(512)
        assert len(grid) == 512
        assert grid.points[0] == -np.pi / 2
        assert grid.points[-1] < np.pi / 2

    def test_uniform_psi_requires_half_wavelength(self):
        uniform_psi_grid(512, spacing=0.5)
        with pytest.raises(ValueError):
            uniform_psi_grid(512, spacing=0.4)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            AngleGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            AngleGrid(np.array([0.3, 0.1]))

    @pytest.mark.parametrize("points", [
        [-np.inf, 0.0, 0.5], [0.0, 0.5, 3.0], [-1.6, 0.0], [0.0, np.nan],
        [0.0, np.nextafter(np.pi / 2, 2.0)],
    ], ids=["-inf", "3-rad", "below", "nan", "just-past-endfire"])
    def test_points_outside_the_visible_region_rejected(self, points):
        with pytest.raises(ValueError, match="visible region"):
            AngleGrid(np.array(points))

    def test_endfire_points_accepted(self):
        assert len(AngleGrid(np.array([-np.pi / 2, 0.0, np.pi / 2]))) == 3


class TestSteeringVector:
    def test_single_element(self):
        sv = steering(ArrayGeometry(1, 1), 0, 0.7)
        assert sv.shape == (1,)
        assert sv[0] == 1.0

    def test_broadside_all_ones(self):
        sv = steering(ArrayGeometry(8, 2), 0, 0.0)
        assert np.allclose(sv, 1.0)

    def test_endfire_two_elements(self):
        # phase 2*pi*0.5*sin(pi/2) = pi between adjacent elements
        sv = steering(ArrayGeometry(4, 2), 0, np.pi / 2)
        assert np.allclose(sv, [1.0, -1.0], atol=1e-12)

    def test_unit_modulus(self):
        geom = ArrayGeometry(16, 2)
        for angle in (-1.2, -0.3, 0.5, 1.5):
            sv = steering(geom, 1, angle)
            assert np.max(np.abs(np.abs(sv) - 1.0)) < 1e-12

    def test_second_subarray_carries_global_offsets(self):
        geom = ArrayGeometry(4, 2)
        angle = 0.4
        sv = steering(geom, 1, angle)
        expected = np.exp(-2j * np.pi * 0.5 * np.array([2, 3]) * np.sin(angle))
        assert np.allclose(sv, expected, atol=1e-15)


class TestWeightVector:
    """A beam set's weights: unit-modulus rows of one read-only array."""

    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError, match="unit modulus"):
            beam_set(ArrayGeometry(4, 2), [[1.0, 0.5], [1.0, -1.0]],
                     AngleGrid.uniform_theta(64))

    def test_entries_read_only(self):
        beams = beam_set(ArrayGeometry(4, 2), [[1.0, 1.0], [1.0, -1.0]],
                         AngleGrid.uniform_theta(64))
        assert beams.weights.shape == (2, 2) and beams.weights.dtype == complex
        with pytest.raises(ValueError):
            beams.weights[0, 0] = 2


class TestBeamPattern:
    def test_single_element_isotropic(self):
        grid = AngleGrid.uniform_theta(128)
        gains = pattern([1.0], ArrayGeometry(1, 1), 0, grid)
        assert np.allclose(np.abs(gains), 1.0)

    def test_boresight_coherent_gain(self):
        # uniform weights: |g|^2 = N_s at broadside after 1/sqrt(N_s) scaling
        grid = AngleGrid(np.array([-0.2, 0.0, 0.2]))
        gains = pattern(np.ones(8), ArrayGeometry(8, 1), 0, grid)
        assert gain_power(gains)[1] == pytest.approx(8.0, abs=1e-12)

    def test_first_null_of_uniform_beam(self):
        null = math.asin(0.25)  # psi = 2*pi/8 for half-wavelength pitch
        grid = AngleGrid(np.array([0.0, null]))
        gains = pattern(np.ones(8), ArrayGeometry(8, 1), 0, grid)
        assert abs(gains[1]) < 1e-12

    def test_length_mismatch(self):
        # a beam set checks each member's length against the sub-array size
        grid = AngleGrid.uniform_theta(16)
        with pytest.raises(ValueError, match="vector 1 has length 4, not the "
                                             "sub-array size 8"):
            beam_set(ArrayGeometry(16, 2), [np.ones(8), np.ones(4)], grid)

    def test_parseval_on_psi_grid(self):
        grid = uniform_psi_grid(512)
        geom = ArrayGeometry(16, 2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            power = gain_power(pattern(w, geom, rng.integers(0, 2), grid))
            assert power.mean() == pytest.approx(1.0, abs=1e-6)

    def test_global_phase_invariance(self):
        grid = AngleGrid.uniform_theta(256)
        geom = ArrayGeometry(8, 2)
        rng = np.random.default_rng(3)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        base = np.abs(pattern(w, geom, 0, grid))
        for alpha in (0.1, 1.0, 2.5):
            rotated = np.abs(pattern(np.exp(1j * alpha) * w, geom, 0, grid))
            assert np.max(np.abs(rotated - base)) < 1e-12

    def test_gain_linearity(self):
        # raw gain helper is linear in the weights (unit-modulus not required)
        grid = AngleGrid.uniform_theta(64)
        geom = ArrayGeometry(8, 2)
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        w2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        g12 = subarray_gains(w1 + w2, geom, 1, grid.points)
        g1 = subarray_gains(w1, geom, 1, grid.points)
        g2 = subarray_gains(w2, geom, 1, grid.points)
        assert np.allclose(g12, g1 + g2, atol=1e-12)


class TestCompositePattern:
    def test_single_flat_member(self):
        beams = beam_set(ArrayGeometry(1, 1), [[1.0]], AngleGrid.uniform_theta(64))
        assert np.allclose(np.sqrt(beams.composite_power), 1.0)
        assert beams.variance == pytest.approx(0.0, abs=1e-15)

    def test_two_element_complementary_pair_is_flat(self):
        # |1+e^{-j psi}|^2 + |1-e^{-j psi}|^2 = 4 -> composite power 1
        beams = beam_set(ArrayGeometry(4, 2), [[1, 1], [1, -1]],
                         AngleGrid.uniform_theta(512))
        assert np.max(np.abs(np.sqrt(beams.composite_power) - 1.0)) < 1e-12
        assert beams.variance < 1e-30

    def test_amplitude_is_root_mean_member_power(self):
        grid = AngleGrid.uniform_theta(64)
        geom = ArrayGeometry(8, 2)
        rng = np.random.default_rng(9)
        weights = [np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for _ in range(2)]
        beams = beam_set(geom, weights, grid)
        powers = [gain_power(pattern(w, geom, m, grid)) for m, w in enumerate(weights)]
        assert np.array_equal(beams.member_powers, powers)
        assert np.array_equal(beams.composite_power, (powers[0] + powers[1]) / 2)

    def test_power_tables_read_only(self):
        beams = beam_set(ArrayGeometry(4, 2), [[1, 1], [1, -1]],
                         AngleGrid.uniform_theta(64))
        for table in (beams.member_powers, beams.composite_power):
            with pytest.raises(ValueError):
                table[0] = 2.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="got 0 for 1"):
            beam_set(ArrayGeometry(1, 1), [], AngleGrid.uniform_theta(64))

    def test_member_count_mismatch_rejected(self):
        for members in (1, 3):
            with pytest.raises(ValueError, match=f"got {members} for 2"):
                beam_set(ArrayGeometry(4, 2), [[1, 1]] * members,
                         AngleGrid.uniform_theta(64))


class TestPatternVariance:
    def test_flat_pattern_is_zero(self):
        grid = AngleGrid.uniform_theta(64)
        gains = pattern([1.0], ArrayGeometry(1, 1), 0, grid)
        assert pattern_variance(gain_power(gains)) == 0.0

    def test_two_element_pair_zero_on_any_grid(self):
        for grid in (AngleGrid.uniform_theta(333), uniform_psi_grid(512)):
            beams = beam_set(ArrayGeometry(4, 2), [[1, 1], [1, -1]], grid)
            assert pattern_variance(beams.composite_power) < 1e-30

    def test_half_for_two_element_beam_on_psi_grid(self):
        # |g|^2 = 1 + cos(psi); E[cos^2] = 1/2 over a full period.  The 0.5
        # was cross-checked against dense trapezoid integration of the same
        # functional before being frozen here.
        grid = uniform_psi_grid(512)
        gains = pattern([1, 1], ArrayGeometry(4, 2), 0, grid)
        assert pattern_variance(gain_power(gains)) == pytest.approx(0.5, abs=1e-9)

    def test_zero_variance_is_measure_invariant(self):
        for grid in (AngleGrid.uniform_theta(512), uniform_psi_grid(512)):
            beams = beam_set(ArrayGeometry(4, 2), [[1, 1], [1, -1]], grid)
            assert beams.variance < 1e-10
