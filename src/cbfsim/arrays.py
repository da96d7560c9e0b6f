"""Uniform linear array geometry and beam patterns for sub-array beamforming.

Conventions: element pitch is given in wavelengths, angles in radians from
broadside, and every beam gain carries a 1/sqrt(N_s) scale so that one
sub-array radiating at full power has unit mean power over a phase period.
All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UNIT_MODULUS_TOL", "ArrayGeometry", "AngleGrid", "gain_power", "subarray_gains",
           "steering_basis"]

UNIT_MODULUS_TOL = 1e-12


def _readonly(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def gain_power(gains) -> np.ndarray:
    """Squared magnitude of complex gains, computed without a sqrt round trip."""
    g = np.asarray(gains)
    return g.real ** 2 + g.imag ** 2


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """A ULA of isotropic elements split into equal contiguous sub-arrays,
    one RF chain per sub-array."""

    total_elements: int
    num_subarrays: int
    spacing: float = 0.5

    def __post_init__(self):
        n, m = self.total_elements, self.num_subarrays
        if n < 1 or m < 1:
            raise ValueError("total_elements and num_subarrays must be >= 1")
        if n % m != 0:
            raise ValueError(f"{n} elements cannot form {m} equal sub-arrays")
        if not 0 < self.spacing < np.inf:
            raise ValueError("element spacing must be positive and finite")

    @property
    def subarray_size(self) -> int:
        return self.total_elements // self.num_subarrays


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Strictly increasing angles in [-pi/2, pi/2] that a pattern is scored on."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("an angle grid needs at least two points")
        if not np.all(np.abs(pts) <= np.pi / 2):  # NaN fails
            raise ValueError("grid points must lie in the visible region [-pi/2, pi/2]")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @classmethod
    def uniform_theta(cls, num_points: int = 512) -> "AngleGrid":
        """Angles uniform in theta over the ULA visible region [-pi/2, pi/2)."""
        pts = np.linspace(-np.pi / 2, np.pi / 2, num_points, endpoint=False)
        return cls(pts)


def steering_basis(offsets, spacing: float, angles) -> np.ndarray:
    """Plane-wave phase matrix exp(-j*2*pi*spacing*offsets[n]*sin(angle)),
    one row per angle.  Build it once when many weight vectors share a grid."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return np.exp(np.outer(np.sin(angles), -2j * np.pi * spacing * np.asarray(offsets)))


def subarray_gains(entries, geometry: ArrayGeometry, subarray: int, angles) -> np.ndarray:
    """Gain of raw weight entries on the given sub-array, 1/sqrt(N_s) scaled.  A
    matrix of entries gives a column of gains per column, one steering basis
    for them all."""
    ns = geometry.subarray_size
    if not 0 <= subarray < geometry.num_subarrays:
        raise ValueError(f"sub-array index {subarray} outside "
                         f"0..{geometry.num_subarrays - 1}")
    basis = steering_basis(subarray * ns + np.arange(ns), geometry.spacing, angles)
    w = np.asarray(entries, dtype=complex)  # a vector at a time: a column keeps its bytes
    gains = [(basis @ v) * (1.0 / np.sqrt(ns)) for v in (w.T if w.ndim == 2 else [w])]
    return np.stack(gains, axis=-1) if w.ndim == 2 else gains[0]


def _autocorrelation_form(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """C with composite variance x^T C x on grid for unit-modulus weights,
    x = [Re; Im] of the sub-arrays' summed autocorrelation
    R(k) = sum_i w[i+k] conj(w[i]), k >= 1.  Each member's power is
    1 + (2/N_s) sum_k Re(R(k) exp(-j*k*psi)), psi = 2*pi*spacing*sin(theta)."""
    ns, members = geometry.subarray_size, geometry.num_subarrays
    # steering at offsets -k is exp(j*k*psi): its [Re, Im] are cos(k*psi), sin(k*psi)
    lags = steering_basis(-np.arange(1, ns), geometry.spacing, grid.points)
    features = np.hstack([lags.real, lags.imag])
    features -= features.mean(axis=0)
    return (features.T @ features) / len(grid) * (2 / (ns * members)) ** 2
