"""Two-stream space-time block coding over complementary beams.

Vectorised MMSE/zero-forcing decoding of Alamouti codewords, and the
correlated-stream fallback pattern that motivates independent streams in the
first place.
"""

from __future__ import annotations

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, BeamPattern, WeightVector, element_gains

__all__ = [
    "mmse_decode_streams",
    "fallback_pattern",
]


def mmse_decode_streams(y1, y2, a, b, noise_variance: float = 0.0):
    """MMSE soft estimates (H^H H + sigma^2 I)^-1 H^H [y1, y2*]^T per codeword.

    a and b are the effective gains of stream 1 and 2 (arrays or scalars) of
    the Alamouti codeword [[s1, -s2*], [s2, s1*]].  Because the restacked
    channel [[a, b], [b*, -a*]] has orthogonal columns, the 2x2 solve
    collapses to a scalar division by (|a|^2 + |b|^2 + sigma^2); with
    sigma^2 = 0 this is exact zero forcing.  The matrix form is kept as a
    test oracle (``tests/oracles.py``).
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    y1 = np.asarray(y1, dtype=complex)
    y2 = np.asarray(y2, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    scale = rho + noise_variance
    if np.any(scale == 0):
        raise np.linalg.LinAlgError("zero channel with zero noise variance")
    s1 = (np.conj(a) * y1 + b * np.conj(y2)) / scale
    s2 = (np.conj(b) * y1 - a * np.conj(y2)) / scale
    return s1, s2


def fallback_pattern(
    w1: WeightVector, w2: WeightVector, geometry: ArrayGeometry, grid: AngleGrid
) -> BeamPattern:
    """Full-array pattern of the concatenated weights [w1; w2].

    This is what radiates when both sub-arrays carry the same signal over a
    common channel: the split collapses to plain analog beamforming, and the
    result equals the pointwise sum of the two sub-array patterns.
    """
    if geometry.num_subarrays != 2:
        raise ValueError("fallback needs a geometry with two sub-arrays")
    ns = geometry.subarray_size
    if len(w1) != ns or len(w2) != ns:
        raise ValueError("weight lengths must match the sub-array size")
    entries = np.concatenate([w1.entries, w2.entries])
    gains = element_gains(entries, np.arange(2 * ns), geometry.spacing,
                          grid.points, 1.0 / np.sqrt(ns))
    return BeamPattern(grid=grid, gains=gains)
