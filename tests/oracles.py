"""Scalar space-time-code references for checking the vectorised path.

These are the textbook per-codeword forms of Alamouti encoding, the effective
2x2 channel seen after conjugate restacking of the second receive sample,
and the matrix MMSE/zero-forcing solve.  The simulator itself uses only
``cbfsim.simulate.CbfSignal.decode``; the tests compare it against these.
``fallback_pattern`` is the correlated-stream gain that motivates
independent streams in the first place, and ``rbf_qpsk_ber`` is the expected
bit error rate of random beamforming.  ``uniform_psi_grid`` and
``pattern_variance`` are the grid and flatness metric the array tests check
power patterns with.  ``binomial_cdf`` sums the binomial pmf term by term,
the defining tail the Clopper-Pearson interval ends are checked against.
"""

import math

import numpy as np

from cbfsim.arrays import AngleGrid, ArrayGeometry, steering_basis
from cbfsim.channel import q_function


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
    w1: np.ndarray, w2: np.ndarray, geometry: ArrayGeometry, grid: AngleGrid
) -> np.ndarray:
    """Full-array complex gain of the concatenated weights [w1; w2].

    This is what radiates when both sub-arrays carry the same signal over a
    common channel: the split collapses to plain analog beamforming, and the
    result equals the pointwise sum of the two sub-array patterns.
    """
    if geometry.num_subarrays != 2:
        raise ValueError("fallback needs a geometry with two sub-arrays")
    ns = geometry.subarray_size
    if len(w1) != ns or len(w2) != ns:
        raise ValueError("weight lengths must match the sub-array size")
    weights = np.concatenate([w1, w2])
    basis = steering_basis(np.arange(2 * ns), geometry.spacing, grid.points)
    return (basis @ weights) * (1.0 / np.sqrt(ns))


def rbf_qpsk_ber(eb_n0_db: float, elements: int, channel: str,
                 draws: int = 1_000_000, seed: int = 0) -> float:
    """Semi-analytic rbf bit error probability: the QPSK error probability of
    one block at per-bit SNR x = Eb/N0*|g|^2, averaged over seeded draws of
    the block's array gain g, a sum of ``elements`` unit phasors with i.i.d.
    uniform phases over sqrt(elements) (the same law at every angle).

    Given g, a block errs with Q(sqrt(2x)) in AWGN, and with the flat
    Rayleigh formula (1 - sqrt(x/(1+x)))/2 in block Rayleigh fading.
    """
    if channel not in ("awgn", "rayleigh"):
        raise ValueError(f"unknown channel {channel!r}")
    rng = np.random.default_rng(seed)
    snr = 10.0 ** (eb_n0_db / 10.0)
    q = np.frompyfunc(q_function, 1, 1)
    total = 0.0
    for start in range(0, draws, 250_000):     # bounds the temporaries
        phases = rng.uniform(0.0, 2 * np.pi, (min(250_000, draws - start), elements))
        x = snr * (np.cos(phases).sum(axis=1) ** 2
                   + np.sin(phases).sum(axis=1) ** 2) / elements
        if channel == "awgn":
            total += float(q(np.sqrt(2.0 * x)).sum())
        else:
            total += float((0.5 * (1.0 - np.sqrt(x / (1.0 + x)))).sum())
    return total / draws


def uniform_psi_grid(num_points: int = 512, spacing: float = 0.5) -> AngleGrid:
    """Angles whose per-element phase increment sweeps [-pi, pi) uniformly.

    Requires spacing >= half a wavelength; below that the array cannot
    see a full phase period.
    """
    if spacing < 0.5:
        raise ValueError("uniform-psi grids need spacing >= 0.5 wavelengths")
    psi = np.linspace(-np.pi, np.pi, num_points, endpoint=False)
    return AngleGrid(np.arcsin(psi / (2 * np.pi * spacing)), "psi", name="uniform-psi")


def pattern_variance(power) -> float:
    """Mean squared deviation of a power pattern (|gain|^2 on a grid, or a
    composite of such) from its grid mean; zero iff flat."""
    return float(np.var(power))


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 < p < 1: the pmf from i = 0 up,
    each term from the last by the ratio (n-i)/(i+1) * p/(1-p), summed in
    log space so that no term underflows."""
    log_ratio = math.log(p) - math.log1p(-p)
    logs, log_term = [], n * math.log1p(-p)
    for i in range(k + 1):
        logs.append(log_term)
        log_term += math.log((n - i) / (i + 1)) + log_ratio
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(t - top) for t in logs)
