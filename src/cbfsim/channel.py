"""QPSK mapping, circular complex Gaussian draws (the noise, and at unit
variance the block Rayleigh fading), and the noise variance of an Eb/N0 point.

Symbols have unit average energy by construction; ``noise_variance`` sizes
the noise for that budget, and the transmit chains add ``complex_noise``
themselves, each sample one (real, imaginary) pair of normal draws.
Closed-form reference BER curves live here too so simulations can be checked
against them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BITS_PER_SYMBOL", "noise_variance", "qpsk_modulate", "qpsk_demodulate",
           "complex_noise", "q_function", "awgn_qpsk_ber", "rayleigh_qpsk_ber"]

BITS_PER_SYMBOL = 2

_SCALE = 1.0 / math.sqrt(2.0)
# QPSK symbols indexed by 2*b0 + b1 (Gray: first bit the real sign, second
# the imaginary sign).
_QPSK = np.array([complex(_SCALE, _SCALE), complex(_SCALE, -_SCALE),
                  complex(-_SCALE, _SCALE), complex(-_SCALE, -_SCALE)])


def noise_variance(eb_n0_db: float) -> float:
    """Complex noise variance N0 at a per-bit SNR, for unit-energy QPSK at
    full power: Es/N0 = Eb/N0 + 10*log10(2), and N0 = 1/(Es/N0)."""
    return 1.0 / (BITS_PER_SYMBOL * 10.0 ** (eb_n0_db / 10.0))


def qpsk_modulate(bits) -> np.ndarray:
    """Map bit pairs to (+/-1 +/- j)/sqrt(2); first bit sets the real sign,
    second the imaginary sign, so 00 -> (+1+j)/sqrt(2) and 11 -> (-1-j)/sqrt(2)."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % 2:
        raise ValueError("QPSK needs a flat, even-length bit sequence")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    index = 2 * bits[0::2] + bits[1::2]
    return _QPSK[index.astype(np.intp, copy=False)]


def qpsk_demodulate(soft) -> np.ndarray:
    """Minimum-distance (quadrant sign) ``uint8`` bit decisions; inverts the
    mapper on clean symbols and is invariant to positive scaling."""
    s = np.ascontiguousarray(soft, dtype=complex)
    return (s.view(float).ravel() < 0).view(np.uint8)


def complex_noise(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian samples of an int or tuple ``shape`` with
    the given total variance (variance/2 per real dimension), drawn as one
    array of (real, imaginary) normal pairs."""
    if variance < 0:
        raise ValueError("noise variance must be >= 0")
    if variance == 0:
        return np.zeros(shape, dtype=complex)
    pairs = rng.standard_normal((*np.broadcast_shapes(shape), 2))
    pairs *= math.sqrt(variance / 2.0)
    return pairs.view(complex)[..., 0]


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def awgn_qpsk_ber(eb_n0_db: float) -> float:
    """Uncoded Gray-QPSK bit error probability in AWGN: Q(sqrt(2*Eb/N0))."""
    return q_function(math.sqrt(2.0 * 10.0 ** (eb_n0_db / 10.0)))


def rayleigh_qpsk_ber(eb_n0_db: float) -> float:
    """Uncoded Gray-QPSK bit error probability in flat Rayleigh fading with
    coherent detection: (1 - sqrt(g/(1+g)))/2 at average per-bit SNR g."""
    g = 10.0 ** (eb_n0_db / 10.0)
    return 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
