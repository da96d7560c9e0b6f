"""Two-stream space-time block coding over complementary beams: vectorised
MMSE/zero-forcing decoding of Alamouti codewords."""

from __future__ import annotations

import numpy as np

__all__ = ["mmse_decode_streams"]


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
