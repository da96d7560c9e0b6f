"""Scalar space-time-code references for checking the vectorised path.

These are the textbook per-codeword forms of Alamouti encoding, the effective
2x2 channel seen after conjugate restacking of the second receive sample,
and the matrix MMSE/zero-forcing solve.  The simulator itself uses only
``cbfsim.stbc.mmse_decode_streams``; the tests compare it against these.
``fallback_pattern`` is the correlated-stream pattern that motivates
independent streams in the first place.
"""

import numpy as np

from cbfsim.arrays import AngleGrid, ArrayGeometry, BeamPattern, WeightVector, steering_basis


def alamouti_encode(s1, s2) -> np.ndarray:
    """2x2 codeword [[s1, -s2*], [s2, s1*]]: rows are streams (sub-arrays),
    columns are consecutive symbol periods."""
    s1, s2 = complex(s1), complex(s2)
    return np.array([[s1, -np.conj(s2)], [s2, np.conj(s1)]])


def composite_channel(g1, g2, h1, h2) -> np.ndarray:
    """Effective 2x2 channel for the restacked receive vector [y1, y2*]^T.

    Its Gram matrix is a nonnegative multiple of the identity, which is what
    makes per-symbol detection decouple.
    """
    a = complex(g1) * complex(h1)
    b = complex(g2) * complex(h2)
    return np.array([[a, b], [np.conj(b), -np.conj(a)]])


def receive(codeword: np.ndarray, g1, g2, h1, h2, noise=(0j, 0j)):
    """Received samples over the two symbol periods of one codeword.

    The channel (beam gain times fading coefficient per stream) is held
    constant across both periods.
    """
    a = complex(g1) * complex(h1)
    b = complex(g2) * complex(h2)
    n1, n2 = noise
    y1 = a * codeword[0, 0] + b * codeword[1, 0] + complex(n1)
    y2 = a * codeword[0, 1] + b * codeword[1, 1] + complex(n2)
    return y1, y2


def mmse_decode(y, channel: np.ndarray, noise_variance: float = 0.0) -> np.ndarray:
    """Soft symbol estimates (H^H H + sigma^2 I)^-1 H^H [y1, y2*]^T.

    With sigma^2 = 0 this is exact zero forcing.  An all-zero channel with no
    noise regularization raises numpy.linalg.LinAlgError.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    h = np.asarray(channel, dtype=complex)
    y1, y2 = y
    stacked = np.array([complex(y1), np.conj(complex(y2))])
    gram = h.conj().T @ h + noise_variance * np.eye(2)
    return np.linalg.solve(gram, h.conj().T @ stacked)


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
    basis = steering_basis(np.arange(2 * ns), geometry.spacing, grid.points)
    return BeamPattern(grid=grid, gains=(basis @ entries) * (1.0 / np.sqrt(ns)))
