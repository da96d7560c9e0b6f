"""Uniform linear array geometry, beam patterns, and the angular flatness
metric for sub-array beamforming.

Conventions: element pitch is given in wavelengths, angles in radians from
broadside, and every beam gain carries a 1/sqrt(N_s) scale so that one
sub-array radiating at full power has unit mean power over a phase period.
All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "UNIT_MODULUS_TOL",
    "ArrayGeometry",
    "AngleGrid",
    "WeightVector",
    "BeamPattern",
    "CompositePattern",
    "same_grid",
    "gain_power",
    "subarray_gains",
    "steering_basis",
    "beam_pattern",
    "composite_pattern",
]

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

    def subarray_offsets(self, subarray: int) -> np.ndarray:
        """Global element indices driven by RF chain ``subarray`` (0-based)."""
        if not 0 <= subarray < self.num_subarrays:
            raise ValueError(
                f"sub-array index {subarray} outside 0..{self.num_subarrays - 1}"
            )
        start = subarray * self.subarray_size
        return np.arange(start, start + self.subarray_size)


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Strictly increasing sample angles plus the measure they are uniform in
    ("theta" or "psi", the per-element phase increment)."""

    points: np.ndarray
    measure: str = "theta"
    name: str | None = None

    def __post_init__(self):
        pts = _readonly(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("an angle grid needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if self.measure not in ("theta", "psi"):
            raise ValueError(f"unknown grid measure {self.measure!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @classmethod
    def uniform_theta(cls, num_points: int = 512) -> "AngleGrid":
        """Angles uniform in theta over the ULA visible region [-pi/2, pi/2)."""
        pts = np.linspace(-np.pi / 2, np.pi / 2, num_points, endpoint=False)
        return cls(pts, "theta", name="uniform-theta")


def same_grid(a: AngleGrid, b: AngleGrid) -> bool:
    return a is b or (a.measure == b.measure and np.array_equal(a.points, b.points))


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Analog phase-shifter settings for one sub-array; entries unit modulus."""

    entries: np.ndarray

    def __post_init__(self):
        ent = _readonly(self.entries, dtype=complex)
        if ent.ndim != 1 or ent.size < 1:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.max(np.abs(np.abs(ent) - 1.0)) > UNIT_MODULUS_TOL:
            raise ValueError("weight entries must have unit modulus")
        object.__setattr__(self, "entries", ent)

    def __len__(self) -> int:
        return self.entries.size


@dataclass(frozen=True, eq=False)
class BeamPattern:
    """Complex gain of one weight vector sampled on an angle grid."""

    grid: AngleGrid
    gains: np.ndarray

    def __post_init__(self):
        g = _readonly(self.gains, dtype=complex)
        if g.shape != self.grid.points.shape:
            raise ValueError("gains must have one value per grid point")
        object.__setattr__(self, "gains", g)

    @cached_property
    def power(self) -> np.ndarray:
        return _readonly(gain_power(self.gains))


@dataclass(frozen=True, eq=False)
class CompositePattern:
    """Equal-split combination of member patterns: power is the member mean."""

    members: tuple[BeamPattern, ...]
    power: np.ndarray
    variance: float


def steering_basis(offsets, spacing: float, angles) -> np.ndarray:
    """Plane-wave phase matrix exp(-j*2*pi*spacing*offsets[n]*sin(angle)),
    one row per angle.  Build it once when many weight vectors share a grid."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return np.exp(np.outer(np.sin(angles), -2j * np.pi * spacing * np.asarray(offsets)))


def subarray_gains(entries, geometry: ArrayGeometry, subarray: int, angles) -> np.ndarray:
    """Gain of raw weight entries on the given sub-array, 1/sqrt(N_s) scaled."""
    basis = steering_basis(geometry.subarray_offsets(subarray), geometry.spacing, angles)
    scale = 1.0 / np.sqrt(geometry.subarray_size)
    return (basis @ np.asarray(entries, dtype=complex)) * scale


def beam_pattern(
    weights: WeightVector, geometry: ArrayGeometry, subarray: int, grid: AngleGrid
) -> BeamPattern:
    """Complex gain versus angle for a weight vector driving one sub-array."""
    if len(weights) != geometry.subarray_size:
        raise ValueError(
            f"weight length {len(weights)} != sub-array size {geometry.subarray_size}"
        )
    gains = subarray_gains(weights.entries, geometry, subarray, grid.points)
    return BeamPattern(grid=grid, gains=gains)


def composite_pattern(patterns) -> CompositePattern:
    """Combine member patterns into the equal-split composite.

    The composite power at each angle is the mean of the member powers.  All
    members must share one grid.
    """
    members = tuple(patterns)
    if not members:
        raise ValueError("composite needs at least one member pattern")
    grid = members[0].grid
    for p in members[1:]:
        if not same_grid(grid, p.grid):
            raise ValueError("member patterns must share one angle grid")
    power = _composite_power([p.power for p in members])
    return CompositePattern(
        members=members,
        power=_readonly(power),
        variance=float(_variance_of_power(power)),
    )


def _composite_power(powers):
    """Equal-split composite: the left-to-right sum of member powers over the
    member count.  Members may be whole tables that broadcast together."""
    return sum(powers[1:], powers[0]) / len(powers)


def _variance_of_power(power: np.ndarray):
    """Mean squared deviation from the mean along the last axis (np.mean's
    arithmetic without its per-call overhead); one value per leading index."""
    n = power.shape[-1]
    mean = np.add.reduce(power, axis=-1, keepdims=True) / n
    return np.add.reduce((power - mean) ** 2, axis=-1) / n


def _autocorrelation_form(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """C with composite variance x^T C x on grid for unit-modulus weights,
    x = [Re; Im] of the sub-arrays' summed autocorrelation
    R(k) = sum_i w[i+k] conj(w[i]), k >= 1.  Each member's power is
    1 + (2/N_s) sum_k Re(R(k) exp(-j*k*psi)), psi = 2*pi*spacing*sin(theta)."""
    ns, members = geometry.subarray_size, geometry.num_subarrays
    psi = 2 * np.pi * geometry.spacing * np.sin(grid.points)
    phase = np.outer(psi, np.arange(1, ns))
    features = np.hstack([np.cos(phase), np.sin(phase)])
    features -= features.mean(axis=0)
    return (features.T @ features) / len(grid) * (2 / (ns * members)) ** 2
