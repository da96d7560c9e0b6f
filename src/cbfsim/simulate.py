"""Seeded Monte Carlo BER campaigns for the three broadcast schemes.

"cbf" sends Alamouti-coded pairs over two complementary beams, "rbf" sends a
single stream through a fresh random full-array pattern every block, and
"single" is the one-element benchmark at the same power budget.  A batch is
one pipeline for all three: draw bits, map them to QPSK symbols, transmit
(rbf and single share one scalar path), meter the radiated energy against
the budget, decode with the signal's own ``decode``, demap and count errors.
The batch is also the unit of parallel work: the batches of every lattice
point are spread over the worker processes, even when the lattice has one
point.  Campaigns are bit-identical for the same configuration and seed,
whatever the worker count: each batch is driven by an rng stream keyed on
(seed, angle index, SNR index, batch index), so its error count does not
depend on which process runs it, and counts are folded in batch order.
A batch sent past its point's stop is discarded rather than cancelled; run in
the calling process, a batch is computed only when its count is folded, so
none runs past a stop.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import channel as chan
from .arrays import ArrayGeometry, gain_power, steering_basis, subarray_gains
from .beams import ComplementaryBeamSet
from .stbc import mmse_decode_streams

__all__ = [
    "DEFAULT_ANGLES_DEG",
    "SchemeConfig",
    "SimConfig",
    "BerPoint",
    "BerCurve",
    "LinkChannel",
    "CbfSignal",
    "ScalarSignal",
    "transmit_cbf",
    "transmit_rbf",
    "transmit_single",
    "run_ber",
]

# Default observation angles: broadside, a uniform-beam null direction
# (asin(1/4) for an 8-element half-wavelength ULA), and wide offsets.
_NULL_DEG = math.degrees(math.asin(0.25))
DEFAULT_ANGLES_DEG = (-85.0, -60.0, -30.0, -_NULL_DEG, 0.0, _NULL_DEG, 30.0, 60.0, 85.0)

BATCH_BITS = 200_000
MAX_LATTICE_POINTS = 10_000
POWER_TOL = 1e-6
_CI95 = 1.96
_SQRT2 = math.sqrt(2.0)

_SCHEMES = ("cbf", "rbf", "single")
_CHANNELS = ("awgn", "rayleigh")


@dataclass(frozen=True)
class SchemeConfig:
    """What transmits: scheme kind, the array, and per-kind extras."""

    kind: str
    geometry: ArrayGeometry
    beams: ComplementaryBeamSet | None = None
    rbf_block_symbols: int = 2

    def __post_init__(self):
        if self.kind not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.kind!r}")
        if self.kind == "cbf":
            if self.geometry.num_subarrays != 2:
                raise ValueError("cbf needs a two-sub-array geometry")
            if self.beams is None or len(self.beams.weights) != 2:
                raise ValueError("cbf needs a complementary beam pair")
            if astuple(self.beams.geometry) != astuple(self.geometry):
                raise ValueError("beam set geometry does not match the scheme geometry")
        if self.kind == "rbf":
            if self.rbf_block_symbols < 2 or self.rbf_block_symbols % 2:
                raise ValueError("rbf block length must be even and >= 2")

    @property
    def block_bits(self) -> int:
        """Bits per transmission block: one Alamouti codeword for cbf, one
        random pattern for rbf, two symbols for single."""
        symbols = self.rbf_block_symbols if self.kind == "rbf" else 2
        return symbols * chan.BITS_PER_SYMBOL


@dataclass(frozen=True)
class SimConfig:
    """One BER campaign: scheme, channel kind, angle and SNR lattices,
    stopping rule, rng seed, and the most worker processes to run batches
    in (None: one per available CPU)."""

    scheme: SchemeConfig
    channel: str
    angles: tuple[float, ...]
    snr_db: tuple[float, ...]
    min_bits: int = 1_000_000
    target_errors: int = 200
    max_bits: int | None = None
    seed: int = 0
    workers: int | None = None
    equal_subarrays: bool = True

    def __post_init__(self):
        if self.channel not in _CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        angles = tuple(float(a) for a in self.angles)
        snrs = tuple(float(s) for s in self.snr_db)
        if not angles or not snrs:
            raise ValueError("angle and SNR grids must be non-empty")
        if len(angles) * len(snrs) > MAX_LATTICE_POINTS:
            raise ValueError(f"{len(angles)} angles x {len(snrs)} SNRs exceed "
                             f"{MAX_LATTICE_POINTS} lattice points")
        # written so that NaN, which compares false, fails the checks
        if not all(abs(a) <= math.pi / 2 for a in angles):
            raise ValueError("angles must lie in the ULA visible region")
        for s in snrs:
            try:
                usable = 0.0 < chan.noise_variance(s) < math.inf
            except (OverflowError, ZeroDivisionError):
                usable = False
            if not usable:
                raise ValueError(f"SNR {s} dB must be finite and give a "
                                 f"nonzero, finite noise variance")
        if self.min_bits < 10_000:
            raise ValueError("min_bits must be at least 10000")
        if self.max_bits is not None and self.max_bits < self.min_bits:
            raise ValueError("max_bits must be >= min_bits")
        if self.resolved_max_bits < self.scheme.block_bits:
            raise ValueError("max_bits must hold at least one transmission block")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        nproc = _available_cpus()
        if self.workers is not None and not 1 <= self.workers <= 4 * nproc:
            raise ValueError(f"workers must be from 1 to {4 * nproc}, four per "
                             f"available CPU ({nproc} available)")
        if self.target_errors < 0:
            raise ValueError("target_errors must be >= 0")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "snr_db", snrs)

    @property
    def resolved_max_bits(self) -> int:
        return self.max_bits if self.max_bits is not None else 10 * self.min_bits


@dataclass(frozen=True)
class BerPoint:
    angle: float
    eb_n0_db: float
    bits: int
    errors: int
    ber: float
    ci95: float


@dataclass(frozen=True)
class BerCurve:
    scheme: str
    channel: str
    points: tuple[BerPoint, ...]


@dataclass
class LinkChannel:
    """Channel context for one batch: fading kind, noise level, rng stream."""

    kind: str
    noise_variance: float
    rng: np.random.Generator
    equal_subarrays: bool = True

    def pair_gains(self, num_blocks: int):
        if self.kind == "awgn":
            ones = np.ones(num_blocks, dtype=complex)
            return ones, ones
        return chan.rayleigh_pair_gains(num_blocks, self.equal_subarrays, self.rng)

    def scalar_gains(self, num_blocks: int) -> np.ndarray:
        if self.kind == "awgn":
            return np.ones(num_blocks, dtype=complex)
        return chan.rayleigh_pair_gains(num_blocks, True, self.rng)[0]

    def noise(self, num_samples: int) -> np.ndarray:
        return chan.complex_noise(num_samples, self.noise_variance, self.rng)


@dataclass(frozen=True, eq=False)
class CbfSignal:
    """Received codeword samples plus the receiver-known stream gains."""

    y1: np.ndarray
    y2: np.ndarray
    gain1: np.ndarray
    gain2: np.ndarray
    energy_per_period: float

    def decode(self, noise_variance: float) -> np.ndarray:
        """MMSE soft estimates for a batch of codewords, re-interleaved into
        the original symbol order."""
        s1, s2 = mmse_decode_streams(self.y1, self.y2, self.gain1, self.gain2,
                                     noise_variance)
        return np.stack((s1, s2), axis=1).ravel()


@dataclass(frozen=True, eq=False)
class ScalarSignal:
    """Received single-stream samples plus per-symbol effective gains."""

    y: np.ndarray
    gains: np.ndarray
    block_gains: np.ndarray | None
    energy_per_period: float

    def decode(self, noise_variance: float) -> np.ndarray:
        """Coherent de-rotation by the known effective gain; the positive
        scale left over is irrelevant to QPSK decisions."""
        return self.y * np.conj(self.gains)


def _energy(s: np.ndarray, weights=(), block: int = 1) -> float:
    """Radiated energy per symbol period, mean |s|^2 * ||w||^2/N over the
    N-element weights w each symbol leaves through: ``weights`` lists w's
    sub-array parts, one row per block of ``block`` symbols (none: one unit
    element).  ||w||^2/N is measured, not assumed, to catch scaling slips."""
    p = gain_power(s)
    if weights:
        n = sum(w.shape[-1] for w in weights)
        norm = sum(gain_power(w).sum(axis=-1) for w in weights) / n
        p = p * np.repeat(norm, block)
    return float(np.mean(p)) if s.size else 0.0


def transmit_cbf(s: np.ndarray, beams: ComplementaryBeamSet, angle: float,
                 link: LinkChannel) -> CbfSignal:
    """Alamouti-encode symbol pairs and push the two streams through their
    complementary beams with an equal (1/sqrt(2) amplitude) power split."""
    if s.size % 2:
        raise ValueError("cbf transmits whole symbol pairs")
    s1, s2 = s[0::2], s[1::2]
    n = s1.size
    g1, g2 = (complex(subarray_gains(w.entries, beams.geometry, m, angle)[0])
              for m, w in enumerate(beams.weights))
    h1, h2 = link.pair_gains(n)
    a = (g1 / _SQRT2) * h1
    b = (g2 / _SQRT2) * h2
    y1 = a * s1 + b * s2 + link.noise(n)
    y2 = -a * np.conj(s2) + b * np.conj(s1) + link.noise(n)
    energy = _energy(s, [w.entries for w in beams.weights])
    return CbfSignal(y1=y1, y2=y2, gain1=a, gain2=b, energy_per_period=energy)


def _transmit_scalar(s: np.ndarray, link: LinkChannel, block_symbols: int,
                     block_gains: np.ndarray | None = None,
                     weights=()) -> ScalarSignal:
    """One stream through a per-block gain: the fading draw times the array
    gain of each block (none for a single element), then noise."""
    if s.size % block_symbols:
        raise ValueError("symbols must fill a whole number of blocks")
    h = link.scalar_gains(s.size // block_symbols)
    eff = np.repeat(h if block_gains is None else block_gains * h, block_symbols)
    y = eff * s + link.noise(s.size)
    return ScalarSignal(y=y, gains=eff, block_gains=block_gains,
                        energy_per_period=_energy(s, weights, block_symbols))


def transmit_rbf(s: np.ndarray, geometry: ArrayGeometry, angle: float,
                 link: LinkChannel, block_symbols: int = 2) -> ScalarSignal:
    """Single full-array stream, re-weighted with fresh random unit-modulus
    phases every block so the long-run average gain is flat over angle."""
    n_el = geometry.total_elements
    blocks = s.size // block_symbols
    weights = np.exp(1j * link.rng.uniform(0.0, 2 * np.pi, (blocks, n_el)))
    steer = steering_basis(np.arange(n_el), geometry.spacing, angle)[0]
    # einsum, not @: a threaded BLAS product would oversubscribe the CPUs
    # that pool workers already fill.
    g = np.einsum("ij,j->i", weights, steer) / math.sqrt(n_el)
    return _transmit_scalar(s, link, block_symbols, g, [weights])


def transmit_single(s: np.ndarray, link: LinkChannel) -> ScalarSignal:
    """One isotropic element at the full power budget."""
    return _transmit_scalar(s, link, 2)


def _point_bits(config: SimConfig) -> tuple[int, int]:
    """A point's full batch and the most bits it may simulate.  Batches hold
    whole transmission blocks, and max_bits rounded down to whole blocks
    caps a point, so every batch but a point's last is full."""
    block = config.scheme.block_bits
    return (max(BATCH_BITS // block, 1) * block,
            config.resolved_max_bits // block * block)


def _run_batch(config: SimConfig, ai: int, si: int, batch: int) -> int:
    """Bit errors of batch ``batch`` of lattice point (angle ai, SNR si),
    drawn from the rng stream keyed on (seed, ai, si, batch)."""
    scheme = config.scheme
    angle = config.angles[ai]
    noise_variance = chan.noise_variance(config.snr_db[si])
    full, cap = _point_bits(config)
    rng = np.random.default_rng([config.seed, ai, si, batch])
    bits = rng.integers(0, 2, min(full, cap - batch * full))
    s = chan.qpsk_modulate(bits)
    link = LinkChannel(config.channel, noise_variance, rng, config.equal_subarrays)
    if scheme.kind == "cbf":
        sig = transmit_cbf(s, scheme.beams, angle, link)
    elif scheme.kind == "rbf":
        sig = transmit_rbf(s, scheme.geometry, angle, link, scheme.rbf_block_symbols)
    else:
        sig = transmit_single(s, link)
    budget = _energy(s)
    if abs(sig.energy_per_period - budget) > POWER_TOL:
        raise RuntimeError(f"transmit power budget violated: radiated "
                           f"{sig.energy_per_period!r} per period vs budget {budget!r}")
    decided = chan.qpsk_demodulate(sig.decode(noise_variance))
    return int(np.count_nonzero(decided != bits))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _schedule(config: SimConfig, procs: int, submit) -> list[BerPoint]:
    """Fold every lattice point's batches into a BerPoint, in lattice order.

    ``submit(ai, si, batch)`` sends one batch and returns a function that
    gives its error count.  A point's first ceil(min_bits / full batch)
    batches are certain and are all sent at once; past them, a point that has
    not stopped keeps at most ``procs`` batches in flight.  Counts are asked
    for in the order sent, so a point folds its batches in batch order and
    stops where one worker would; the counts of its at most ``procs - 1``
    batches past the stop are never asked for.
    """
    full, cap = _point_bits(config)
    most = -(-cap // full)
    certain = min(-(-config.min_bits // full), most)
    lattice = list(np.ndindex(len(config.angles), len(config.snr_db)))
    fifo = deque((p, submit(ai, si, batch)) for p, (ai, si) in enumerate(lattice)
                 for batch in range(certain))
    sent = [certain] * len(lattice)
    folded, errors = [0] * len(lattice), [0] * len(lattice)
    stopped = [False] * len(lattice)
    while fifo:
        p, count = fifo.popleft()
        if stopped[p]:
            continue            # a batch past p's stop
        errors[p] += count()
        folded[p] += 1
        stopped[p] = folded[p] == most or (folded[p] * full >= config.min_bits
                                           and errors[p] >= config.target_errors)
        if not stopped[p] and folded[p] >= certain:
            stop = min(folded[p] + procs, most)
            fifo.extend((p, submit(*lattice[p], batch)) for batch in range(sent[p], stop))
            sent[p] = stop
    points = []
    for (ai, si), f, e in zip(lattice, folded, errors):
        n = min(f * full, cap)
        ber = e / n
        points.append(BerPoint(angle=config.angles[ai], eb_n0_db=config.snr_db[si],
                               bits=n, errors=e, ber=ber,
                               ci95=_CI95 * math.sqrt(ber * (1.0 - ber) / n)))
    return points


# A pool worker's campaign, set once by the pool's initializer, so that a
# task is only an (ai, si, batch) tuple and its result an int.
_pool_config: SimConfig | None = None


def _pool_init(config: SimConfig):
    global _pool_config
    _pool_config = config
    # By default glibc maps each batch array afresh and unmaps it when freed, so
    # every batch re-faults its pages; keep freed arrays on the heap for reuse.
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return                  # no glibc malloc here (macOS, for example)
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-1, 128 << 20)      # M_TRIM_THRESHOLD


def _pool_batch(ai: int, si: int, batch: int) -> int:
    return _run_batch(_pool_config, ai, si, batch)


def run_ber(config: SimConfig) -> BerCurve:
    """Run the campaign over the (angle, SNR) lattice.

    Each point simulates at least min_bits and keeps going until
    target_errors bit errors are seen, then reports the error count, the BER
    estimate, and its 95% normal-approximation half-width.  Batches run in a
    pool of min(workers, available CPUs) forked processes, or lazily in the
    calling process when that is one or fork is missing; results do not
    depend on the worker count, and an error in a batch reaches the caller.
    """
    nproc = _available_cpus()
    procs = min(config.workers or nproc, nproc) if hasattr(os, "fork") else 1
    if procs == 1:
        points = _schedule(config, 1, lambda *key: partial(_run_batch, config, *key))
    else:
        # Imported here so that importing the package does not pay for them.
        # Forked workers inherit the imported package and the config.
        import concurrent.futures
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(
            procs, mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_init, initargs=(config,))
        try:
            points = _schedule(config, procs, lambda *key: pool.submit(
                _pool_batch, *key).result)
        finally:
            pool.shutdown(cancel_futures=True)
    return BerCurve(scheme=config.scheme.kind, channel=config.channel,
                    points=tuple(points))
