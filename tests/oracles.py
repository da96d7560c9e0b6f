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
``sequential_climb`` is the stochastic search one restart at a time, the
reference the lockstep climb must reproduce exactly.  ``fading``,
``energy``, ``transmit_cbf``, ``cbf_decode``, ``transmit_scalar``,
``scalar_decode`` and ``qpsk_demodulate`` are the batch arithmetic before
AWGN fading became one broadcast value, the reference the batch path must
match bit for bit.  ``transmit_rbf`` and ``weights_energy`` are random
beamforming before its weights were built a chunk of blocks at a time: one
whole (blocks, elements) weight matrix per batch, and the meter that read it.
"""

import math

import numpy as np

from cbfsim.arrays import (
    AngleGrid,
    ArrayGeometry,
    gain_power,
    steering_basis,
    subarray_gains,
)
from cbfsim.beams import _SCREEN_SLACK, SearchMeta, _lag_features
from cbfsim.channel import complex_noise, q_function
from cbfsim.simulate import _SQRT2, CbfSignal, ScalarSignal


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
    return AngleGrid(np.arcsin(psi / (2 * np.pi * spacing)))


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


def sequential_climb(geometry, levels, seed, budget, form, power):
    """The one-restart-at-a-time hill climb that ``cbfsim.climb.stochastic``
    replaced, kept verbatim: restarts run in order under one evaluation
    budget, each sweep scores every remaining move and takes the first that
    improves, and the best state settles through the shared screen as it is
    visited.  The lockstep search must return the same set and count."""
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    exact = lambda rows: np.mean(
        [power(m, idx) for m, idx in enumerate(rows.tolist())], axis=0).var()
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k, group_size = geometry.subarray_size, len(levels), geometry.num_subarrays
    # Single-coefficient moves in (member, position, level) order.  Member m's
    # weights are w[m*(3ns-2) + ns-1 + p] of a flat array with zero gaps, so a
    # move at flat index i changes lag l through w[i-l] and w[i+l].
    member, pos, level = (a.ravel() for a in np.indices((group_size, ns - 1, k)))
    at = member * (3 * ns - 2) + ns + pos
    below, above = at[:, None] - np.arange(1, ns), at[:, None] + np.arange(1, ns)
    target = levels[level]
    evals, best_var, best_score, best = 0, np.inf, np.inf, None
    while evals < budget:
        state = np.array([(0,) + tuple(int(x) for x in rng.integers(0, k, ns - 1))
                          for _ in range(group_size)])
        w = np.zeros((group_size, 3 * ns - 2), complex)
        w[:, ns - 1:2 * ns - 1] = levels[state]
        x = _lag_features(w[:, ns - 1:2 * ns - 1]).sum(axis=0)
        w = w.ravel()
        cur, start, improved = x @ form @ x, 0, False
        evals += 1
        while True:
            # Rescore a visited state exactly unless the screen rules it out.
            if cur <= best_score + _SCREEN_SLACK:
                best_score = min(best_score, cur)
                if (var := exact(state)) < best_var:
                    best_var, best = var, tuple(map(tuple, state.tolist()))
            # Score the rest of the sweep at once and take the first neighbour
            # that improves; a screened near-tie is decided exactly, so each
            # step is the one an exact comparison takes.  A sweep that
            # improved nothing ends the climb.
            hit = None
            while hit is None and evals < budget:
                todo = start + np.flatnonzero(w[at[start:]] != target[start:])
                todo = todo[:budget - evals]
                if not todo.size:
                    if not improved:
                        break
                    start, improved = 0, False
                    continue
                delta = target[todo] - w[at[todo]]
                dr = (delta[:, None] * w[below[todo]].conj()
                      + w[above[todo]] * delta.conj()[:, None])
                dx = np.concatenate((dr.real, dr.imag), axis=1)
                scores = np.einsum("ij,ij->i", (x + dx) @ form, x + dx)
                for h in np.flatnonzero(scores < cur + _SCREEN_SLACK).tolist():
                    if scores[h] > cur - _SCREEN_SLACK:
                        cand = state.copy()
                        cand[member[todo[h]], pos[todo[h]] + 1] = level[todo[h]]
                        if not exact(cand) < exact(state):
                            continue
                    hit = h
                    break
                evals += todo.size if hit is None else hit + 1
                start = len(level) if hit is None else todo[hit] + 1
            if hit is None:
                break
            move = todo[hit]
            state[member[move], pos[move] + 1] = level[move]
            w[at[move]] = target[move]
            x, cur, improved = x + dx[hit], scores[hit], True

    return best, SearchMeta("stochastic", evals, seed)


# The batch arithmetic as it stood before AWGN fading became one broadcast
# value, kept verbatim but for ``fading`` (``LinkChannel.fading``, which then
# built one unit gain per block in AWGN) and the names.  Its scalar chain keeps
# the gains repeated per symbol, where ``ScalarSignal`` now keeps one per
# block; the tests repeat the package's gains to compare them.  On a full
# batch the batch path must reproduce every received sample, soft estimate and
# decision of these bit for bit, and its energy meter this per-symbol mean to
# rounding level.  numpy's complex multiply is not bitwise commutative, and numpy
# reuses a temporary of 256 KiB or more as the output of ``x * temporary``,
# computing ``temporary * x`` instead; so ``b * np.conj(s1)`` and the like
# below round in one operand order on full batches and in the other on
# short ones, where the package, which fixes the full-batch order, agrees
# with them to rounding only.

def fading(link, num_blocks: int) -> np.ndarray:
    """Per-block complex gains with E[|h|^2] = 1: ones in AWGN, the
    noise's circular-Gaussian draw at unit variance in Rayleigh."""
    if link.kind == "awgn":
        return np.ones(num_blocks, dtype=complex)
    return complex_noise(num_blocks, 1.0, link.rng)


def energy(s: np.ndarray, weights: np.ndarray | None = None, block: int = 1) -> float:
    """Radiated energy per symbol period, mean |s|^2 * ||w||^2/N over the
    N-element weights w each symbol leaves through: ``weights`` is one w, or
    a row per block of ``block`` symbols (None: one unit element).  ||w||^2/N
    is measured, not assumed, to catch scaling slips."""
    p = gain_power(s)
    if weights is not None:
        v = weights.view(float)
        p = p * np.repeat(np.einsum("...i,...i->...", v, v) / weights.shape[-1], block)
    return float(np.mean(p)) if s.size else 0.0


def cbf_decode(self, noise_variance: float) -> np.ndarray:
    """MMSE soft estimates (H^H H + sigma^2 I)^-1 H^H [y1, y2*]^T of the
    Alamouti codewords [[s1, -s2*], [s2, s1*]], re-interleaved into the
    original symbol order (``CbfSignal.decode``'s arithmetic)."""
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    a, b, y1, y2 = self.gain1, self.gain2, self.y1, self.y2
    scale = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2 + noise_variance
    if np.any(scale == 0):
        raise np.linalg.LinAlgError("zero channel with zero noise variance")
    s1 = (np.conj(a) * y1 + b * np.conj(y2)) / scale
    s2 = (np.conj(b) * y1 - a * np.conj(y2)) / scale
    return np.stack((s1, s2), axis=1).ravel()


def transmit_cbf(s: np.ndarray, beams, angle: float, link) -> CbfSignal:
    """Alamouti-encode symbol pairs and push the two streams through their
    complementary beams with an equal (1/sqrt(2) amplitude) power split."""
    if s.size % 2:
        raise ValueError("cbf transmits whole symbol pairs")
    s1, s2 = s[0::2], s[1::2]
    n = s1.size
    g1, g2 = (complex(subarray_gains(w, beams.geometry, m, angle)[0])
              for m, w in enumerate(beams.weights))
    h1 = fading(link, n)
    h2 = h1 if link.equal_subarrays else fading(link, n)
    a = (g1 / _SQRT2) * h1
    b = (g2 / _SQRT2) * h2
    y1 = a * s1 + b * s2 + link.noise(n)
    y2 = -a * np.conj(s2) + b * np.conj(s1) + link.noise(n)
    energy_ = energy(s, beams.weights.ravel())
    return CbfSignal(y1=y1, y2=y2, gain1=a, gain2=b, energy_per_period=energy_)


def transmit_scalar(s: np.ndarray, link, block_symbols: int,
                    array_gains: np.ndarray | None = None,
                    weights: np.ndarray | None = None) -> ScalarSignal:
    """One stream through a per-block gain: the fading draw times the array
    gain of each block (none for a single element), then noise."""
    if s.size % block_symbols:
        raise ValueError("symbols must fill a whole number of blocks")
    h = fading(link, s.size // block_symbols)
    eff = np.repeat(h if array_gains is None else array_gains * h, block_symbols)
    y = eff * s + link.noise(s.size)
    return ScalarSignal(y=y, gains=eff,
                        energy_per_period=energy(s, weights, block_symbols))


def scalar_decode(self, noise_variance: float) -> np.ndarray:
    """Coherent de-rotation by the known effective gain; the positive
    scale left over is irrelevant to QPSK decisions (``ScalarSignal.decode``)."""
    return self.y * np.conj(self.gains)


def qpsk_demodulate(soft) -> np.ndarray:
    """Minimum-distance (quadrant sign) ``uint8`` bit decisions; inverts the
    mapper on clean symbols and is invariant to positive scaling."""
    s = np.atleast_1d(np.asarray(soft))
    bits = np.empty(2 * s.size, dtype=np.uint8)
    bits[0::2] = s.real < 0
    bits[1::2] = s.imag < 0
    return bits


# Random beamforming with one whole weight matrix per batch, verbatim but for
# the names: ``transmit_rbf`` hands its weights to ``transmit_scalar`` above,
# and ``weights_energy`` is the one-pass meter that took the weight matrix.
# The chunked path must reproduce every received sample, block gain, soft
# estimate and decision of ``transmit_rbf`` bit for bit, at every batch size
# and element count, and these meters to rounding level.

def weights_energy(s: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Radiated energy per symbol period, mean |s|^2 * ||w||^2/N over the
    N-element weights w each symbol leaves through: one w, or one per row with
    the symbols split evenly over the rows in order (None: a unit element).
    Per-row einsum sums differ from a per-symbol mean only by rounding, and
    ||w||^2/N is measured, not assumed, to catch scaling slips."""
    if not s.size:
        return 0.0
    w = np.ones((1, 1), complex) if weights is None else np.atleast_2d(weights)
    v, u = np.ascontiguousarray(s, complex).view(float).reshape(len(w), -1), w.view(float)
    per_row = np.einsum("i,i->", np.einsum("ij,ij->i", v, v), np.einsum("ij,ij->i", u, u))
    return float(per_row) / (w.shape[1] * s.size)


def transmit_rbf(s: np.ndarray, geometry: ArrayGeometry, angle: float,
                 link, block_symbols: int = 2) -> ScalarSignal:
    """Single full-array stream, re-weighted with fresh random unit-modulus
    phases every block so the long-run average gain is flat over angle.
    Phases are float32 draws, continuous to 2^-24 of a turn, and float32
    cos/sin fill the complex128 weights, unit-modulus to float32 precision."""
    n_el = geometry.total_elements
    blocks = s.size // block_symbols
    phases = link.rng.random((blocks, n_el), dtype=np.float32)
    phases *= np.float32(2 * np.pi)
    weights = np.empty((blocks, n_el), dtype=complex)
    weights.real, weights.imag = np.cos(phases), np.sin(phases)
    steer = steering_basis(np.arange(n_el), geometry.spacing, angle)[0]
    # einsum, not @: a threaded BLAS product would oversubscribe the CPUs
    # that pool workers already fill.
    g = np.einsum("ij,j->i", weights, steer) / math.sqrt(n_el)
    return transmit_scalar(s, link, block_symbols, g, weights)
