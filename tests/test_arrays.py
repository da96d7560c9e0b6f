"""Unit tests for the array model: geometry, steering, patterns, variance."""

import math

import numpy as np
import pytest

from cbfsim.arrays import (
    AngleGrid,
    ArrayGeometry,
    WeightVector,
    beam_pattern,
    composite_pattern,
    steering_basis,
    subarray_gains,
)
from oracles import pattern_variance, uniform_psi_grid


def steering(geometry, subarray, angle):
    """Steering row of one sub-array at one angle, global offsets included."""
    return steering_basis(geometry.subarray_offsets(subarray), geometry.spacing,
                          angle)[0]


class TestArrayGeometry:
    def test_subarray_partition(self):
        geom = ArrayGeometry(16, 2)
        assert geom.subarray_size == 8
        assert np.array_equal(geom.subarray_offsets(0), np.arange(8))
        assert np.array_equal(geom.subarray_offsets(1), np.arange(8, 16))

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
        with pytest.raises(ValueError):
            geom.subarray_offsets(2)
        with pytest.raises(ValueError):
            geom.subarray_offsets(-1)


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
    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            WeightVector([1.0, 0.5])

    def test_entries_read_only(self):
        w = WeightVector([1.0, -1.0])
        with pytest.raises(ValueError):
            w.entries[0] = 2.0


class TestBeamPattern:
    def test_single_element_isotropic(self):
        grid = AngleGrid.uniform_theta(128)
        bp = beam_pattern(WeightVector([1.0]), ArrayGeometry(1, 1), 0, grid)
        assert np.allclose(np.abs(bp.gains), 1.0)

    def test_boresight_coherent_gain(self):
        # uniform weights: |g|^2 = N_s at broadside after 1/sqrt(N_s) scaling
        grid = AngleGrid(np.array([-0.2, 0.0, 0.2]))
        bp = beam_pattern(WeightVector(np.ones(8)), ArrayGeometry(8, 1), 0, grid)
        assert bp.power[1] == pytest.approx(8.0, abs=1e-12)

    def test_first_null_of_uniform_beam(self):
        null = math.asin(0.25)  # psi = 2*pi/8 for half-wavelength pitch
        grid = AngleGrid(np.array([0.0, null]))
        bp = beam_pattern(WeightVector(np.ones(8)), ArrayGeometry(8, 1), 0, grid)
        assert abs(bp.gains[1]) < 1e-12

    def test_length_mismatch(self):
        grid = AngleGrid.uniform_theta(16)
        with pytest.raises(ValueError):
            beam_pattern(WeightVector(np.ones(4)), ArrayGeometry(16, 2), 0, grid)

    def test_parseval_on_psi_grid(self):
        grid = uniform_psi_grid(512)
        geom = ArrayGeometry(16, 2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = WeightVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
            bp = beam_pattern(w, geom, rng.integers(0, 2), grid)
            assert bp.power.mean() == pytest.approx(1.0, abs=1e-6)

    def test_global_phase_invariance(self):
        grid = AngleGrid.uniform_theta(256)
        geom = ArrayGeometry(8, 2)
        rng = np.random.default_rng(3)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        base = np.abs(beam_pattern(WeightVector(w), geom, 0, grid).gains)
        for alpha in (0.1, 1.0, 2.5):
            rotated = np.abs(
                beam_pattern(WeightVector(np.exp(1j * alpha) * w), geom, 0, grid).gains
            )
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
        grid = AngleGrid.uniform_theta(64)
        bp = beam_pattern(WeightVector([1.0]), ArrayGeometry(1, 1), 0, grid)
        comp = composite_pattern([bp])
        assert np.allclose(np.sqrt(comp.power), 1.0)
        assert comp.variance == pytest.approx(0.0, abs=1e-15)

    def test_two_element_complementary_pair_is_flat(self):
        # |1+e^{-j psi}|^2 + |1-e^{-j psi}|^2 = 4 -> composite power 1
        grid = AngleGrid.uniform_theta(512)
        geom = ArrayGeometry(4, 2)
        p1 = beam_pattern(WeightVector([1, 1]), geom, 0, grid)
        p2 = beam_pattern(WeightVector([1, -1]), geom, 1, grid)
        comp = composite_pattern([p1, p2])
        assert np.max(np.abs(np.sqrt(comp.power) - 1.0)) < 1e-12
        assert comp.variance < 1e-30

    def test_amplitude_is_root_mean_member_power(self):
        grid = AngleGrid.uniform_theta(64)
        geom = ArrayGeometry(8, 2)
        rng = np.random.default_rng(9)
        pats = [
            beam_pattern(WeightVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))),
                         geom, m, grid)
            for m in range(2)
        ]
        comp = composite_pattern(pats)
        expected = (pats[0].power + pats[1].power) / 2
        assert np.array_equal(comp.power, expected)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            composite_pattern([])

    def test_mismatched_grids_rejected(self):
        geom = ArrayGeometry(2, 1)
        p1 = beam_pattern(WeightVector([1, 1]), geom, 0, AngleGrid.uniform_theta(64))
        p2 = beam_pattern(WeightVector([1, 1]), geom, 0, AngleGrid.uniform_theta(65))
        with pytest.raises(ValueError):
            composite_pattern([p1, p2])


class TestPatternVariance:
    def test_flat_pattern_is_zero(self):
        grid = AngleGrid.uniform_theta(64)
        bp = beam_pattern(WeightVector([1.0]), ArrayGeometry(1, 1), 0, grid)
        assert pattern_variance(bp) == 0.0

    def test_two_element_pair_zero_on_any_grid(self):
        geom = ArrayGeometry(4, 2)
        for grid in (AngleGrid.uniform_theta(333), uniform_psi_grid(512)):
            comp = composite_pattern([
                beam_pattern(WeightVector([1, 1]), geom, 0, grid),
                beam_pattern(WeightVector([1, -1]), geom, 1, grid),
            ])
            assert pattern_variance(comp) < 1e-30

    def test_half_for_two_element_beam_on_psi_grid(self):
        # |g|^2 = 1 + cos(psi); E[cos^2] = 1/2 over a full period.  The 0.5
        # was cross-checked against dense trapezoid integration of the same
        # functional before being frozen here.
        grid = uniform_psi_grid(512)
        bp = beam_pattern(WeightVector([1, 1]), ArrayGeometry(4, 2), 0, grid)
        assert pattern_variance(bp) == pytest.approx(0.5, abs=1e-9)

    def test_zero_variance_is_measure_invariant(self):
        geom = ArrayGeometry(4, 2)
        for grid in (AngleGrid.uniform_theta(512), uniform_psi_grid(512)):
            comp = composite_pattern([
                beam_pattern(WeightVector([1, 1]), geom, 0, grid),
                beam_pattern(WeightVector([1, -1]), geom, 1, grid),
            ])
            assert comp.variance < 1e-10
