"""Seeded Monte Carlo BER campaigns for the three broadcast schemes.

"cbf" sends Alamouti-coded pairs over two complementary beams, "rbf" sends a
single stream through a fresh random full-array pattern every block, and
"single" is the one-element benchmark at the same power budget.  A batch is
one pipeline for all three: draw bits, map them to QPSK symbols, transmit
(rbf and single share one scalar path), meter the radiated energy against
the budget, decode (cbf by the unscaled Alamouti combine), demap and count errors.
The batch is also the unit of parallel work: forked workers read the (angle,
SNR, batch) keys of every point's batches, a lone point's too, from a pipe
each and answer with error counts.  Campaigns are bit-identical for the same
configuration and seed, whatever the worker count: each batch is driven by
an rng stream keyed on (seed, angle index, SNR index, batch index), so its
error count does not depend on which process runs it, and counts are folded
in batch order.  A batch draws, in order: its bits as packed random bytes,
for rbf one float32 phase per element and block, then the fading and noise,
each complex sample one pair of normal draws.  Each complex product keeps
the operand order full batches have always rounded in, as numpy's complex
multiply is not bitwise commutative.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import select
import struct
from collections import deque
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import channel as chan
from .arrays import ArrayGeometry, steering_basis, subarray_gains
from .beams import ComplementaryBeamSet

__all__ = ["DEFAULT_ANGLES_DEG", "SchemeConfig", "SimConfig", "BerPoint", "BerCurve",
           "LinkChannel", "CbfSignal", "ScalarSignal", "transmit_cbf", "transmit_rbf",
           "transmit_single", "run_ber"]

# Default observation angles: broadside, a uniform-beam null direction
# (asin(1/4) for an 8-element half-wavelength ULA), and wide offsets.
_NULL_DEG = math.degrees(math.asin(0.25))
DEFAULT_ANGLES_DEG = (-85.0, -60.0, -30.0, -_NULL_DEG, 0.0, _NULL_DEG, 30.0, 60.0, 85.0)

BATCH_BITS = 200_000
MAX_LATTICE_POINTS = 10_000
POWER_TOL = 1e-6
_CI95 = 1.96
_CP_TAIL = 0.025  # each tail of the 95% Clopper-Pearson interval
_SQRT2 = math.sqrt(2.0)
_CHUNK_WEIGHTS = 1 << 15        # rbf weights built at a time: 512 KiB of complex128

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
            if self.beams is None:
                raise ValueError("cbf needs a complementary beam pair")
            if astuple(self.beams.geometry) != astuple(self.geometry):
                raise ValueError("beam set geometry does not match the scheme geometry")
        if self.kind == "rbf" and (self.rbf_block_symbols < 2 or self.rbf_block_symbols % 2):
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
    ci_lo: float
    ci_hi: float


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

    def fading(self, num_blocks: int) -> np.ndarray:
        """Per-block complex gains with E[|h|^2] = 1: in AWGN one unit gain of shape
        (1,) for every block, in Rayleigh the noise's draw at unit variance."""
        if self.kind == "awgn":
            return np.ones(1, dtype=complex)
        return chan.complex_noise(num_blocks, 1.0, self.rng)

    def noise(self, num_samples: int) -> np.ndarray:
        return chan.complex_noise(num_samples, self.noise_variance, self.rng)


@dataclass(frozen=True, eq=False)
class CbfSignal:
    """Received codeword samples and receiver-known stream gains, shape (1,) in AWGN."""

    y1: np.ndarray
    y2: np.ndarray
    gain1: np.ndarray
    gain2: np.ndarray
    energy_per_period: float

    def decode(self) -> np.ndarray:
        """The Alamouti combine [a* y1 + b y2*, b* y1 - a y2*] of the codewords
        [[s1, -s2*], [s2, s1*]] through stream gains a and b, in symbol order:
        the MMSE estimate times 1/(|a|^2 + |b|^2 + sigma^2), a positive scale
        that QPSK ignores.  The matrix form is a test oracle (``tests/oracles.py``)."""
        a, b, y1, y2c = self.gain1, self.gain2, self.y1, np.conj(self.y2)
        out = np.empty((y1.size, 2), dtype=complex)
        np.add(np.conj(a) * y1, y2c * b, out=out[:, 0])
        np.subtract(np.conj(b) * y1, y2c * a, out=out[:, 1])
        return out.ravel()


@dataclass(frozen=True, eq=False)
class ScalarSignal:
    """Received samples and one gain per block, or one of shape (1,) shared by all."""

    y: np.ndarray
    gains: np.ndarray
    energy_per_period: float

    def decode(self) -> np.ndarray:
        """Coherent de-rotation by the known effective gain; the positive
        scale left over is irrelevant to QPSK decisions."""
        g = np.conj(self.gains)
        return (g[:, None] * self.y.reshape(g.size, self.y.size // (g.size or 1))).ravel()


def _energy(s: np.ndarray, norms=(1.0,), elements: int = 1) -> float:
    """Radiated energy per symbol period, mean |s|^2 * ||w||^2/N over the
    N-element weights w each symbol leaves through, given each weight row's
    ||w||^2 (by default one unit element), with the symbols split evenly over
    the rows in order.  Per-row einsum sums differ from a per-symbol mean only
    by rounding, and ||w||^2/N is measured, not assumed, to catch scaling slips."""
    if not s.size:
        return 0.0
    v = np.ascontiguousarray(s, complex).view(float).reshape(len(norms), -1)
    per_row = np.einsum("i,i->", np.einsum("ij,ij->i", v, v), norms)
    return float(per_row) / (elements * s.size)


def transmit_cbf(s: np.ndarray, beams: ComplementaryBeamSet, angle: float,
                 link: LinkChannel) -> CbfSignal:
    """Alamouti-encode symbol pairs and push the two streams through their
    complementary beams with an equal (1/sqrt(2) amplitude) power split."""
    if s.size % 2:
        raise ValueError("cbf transmits whole symbol pairs")
    s1, s2 = s[0::2], s[1::2]
    n = s1.size
    g1, g2 = (complex(subarray_gains(w, beams.geometry, m, angle)[0])
              for m, w in enumerate(beams.weights))
    h1 = link.fading(n)
    h2 = h1 if link.equal_subarrays else link.fading(n)
    a = (g1 / _SQRT2) * h1
    b = (g2 / _SQRT2) * h2
    y1 = a * s1 + b * s2 + link.noise(n)
    y2 = -a * np.conj(s2) + np.conj(s1) * b + link.noise(n)
    energy = _energy(s, [np.vdot(beams.weights, beams.weights).real], beams.weights.size)
    return CbfSignal(y1=y1, y2=y2, gain1=a, gain2=b, energy_per_period=energy)


def _transmit_scalar(s: np.ndarray, link: LinkChannel, block_symbols: int,
                     array_gains: np.ndarray | None = None,
                     norms=(1.0,), elements: int = 1) -> ScalarSignal:
    """One stream through a per-block gain: each block's array gain (none for
    a single element) times the fading draw, in place, then noise."""
    if s.size % block_symbols:
        raise ValueError("symbols must fill a whole number of blocks")
    h = link.fading(s.size // block_symbols)
    eff = h if array_gains is None else np.multiply(array_gains, h, out=array_gains)
    y = (eff[:, None] * s.reshape(-1, block_symbols)).ravel()
    y += link.noise(s.size)
    return ScalarSignal(y=y, gains=eff, energy_per_period=_energy(s, norms, elements))


def transmit_rbf(s: np.ndarray, geometry: ArrayGeometry, angle: float,
                 link: LinkChannel, block_symbols: int = 2) -> ScalarSignal:
    """Single full-array stream, re-weighted with fresh random unit-modulus
    phases every block so the long-run average gain is flat over angle.
    Phases are float32 draws, continuous to 2^-24 of a turn, and float32
    cos/sin fill the complex128 weights, unit-modulus to float32 precision.
    Weights are built in even chunks of blocks in one reused buffer: the same
    draws and gains as one matrix, in memory that does not grow with N."""
    n_el, blocks = geometry.total_elements, s.size // block_symbols
    # three rows or more, as einsum sums a lone row past 8192 numbers in another order
    rows = max(_CHUNK_WEIGHTS // n_el, 3)
    chunks = -(-blocks // rows)
    buf = np.empty((min(rows, blocks), n_el), dtype=complex)
    steer = steering_basis(np.arange(n_el), geometry.spacing, angle)[0]
    g, norms = np.empty(blocks, dtype=complex), np.empty(blocks)
    for c in range(chunks):
        lo, hi = c * blocks // chunks, (c + 1) * blocks // chunks
        w, u = buf[:hi - lo], buf[:hi - lo].view(float)
        phases = link.rng.random(w.shape, dtype=np.float32)
        phases *= np.float32(2 * np.pi)
        np.cos(phases, out=w.real, dtype=np.float32)
        np.sin(phases, out=w.imag, dtype=np.float32)
        # einsum, not @: a threaded BLAS product would oversubscribe the CPUs
        # that pool workers already fill.
        np.einsum("ij,j->i", w, steer, out=g[lo:hi])
        np.einsum("ij,ij->i", u, u, out=norms[lo:hi])
    buf = w = u = phases = None     # freed before the noise draw, the batch's peak
    g /= math.sqrt(n_el)
    return _transmit_scalar(s, link, block_symbols, g, norms, n_el)


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
    n = min(full, cap - batch * full)
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), np.uint8), count=n)
    s = chan.qpsk_modulate(bits)
    link = LinkChannel(config.channel, noise_variance, rng, config.equal_subarrays)
    if scheme.kind == "cbf":
        sig = transmit_cbf(s, scheme.beams, angle, link)
    elif scheme.kind == "rbf":
        sig = transmit_rbf(s, scheme.geometry, angle, link, scheme.rbf_block_symbols)
    else:
        sig = transmit_single(s, link)
    del s                       # free the symbols before decode, the batch's peak
    # the budget is the unit QPSK symbol energy that chan.noise_variance assumes
    if abs(sig.energy_per_period - 1.0) > POWER_TOL:
        raise RuntimeError(f"transmit power budget violated: radiated "
                           f"{sig.energy_per_period!r} per period vs budget 1.0")
    decided = chan.qpsk_demodulate(sig.decode())
    return int(np.count_nonzero(decided != bits))


def _log_beta(a: int, b: int) -> float:
    """log B(a, b).  lgamma rounds to about 1e-16 of its value, so past 1e4
    the larger argument's share comes from Stirling's series instead."""
    s, big = sorted((a, b))
    if big < 1e4:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(s) - s * math.log(big) - (big + s - 0.5) * math.log1p(s / big)
            + s + s / (12 * big * (big + s)))


def _beta_cdf(a: int, b: int, x: float, y: float) -> tuple[float, float]:
    """The regularized incomplete beta I_x(a, b), y = 1 - x, and its
    derivative in x, by Lentz's continued fraction, which converges fast
    below the mean a/(a+b), where every root sought lies."""
    # 1 - p rounds only where p < 1/2: take the log of the smaller of x, y
    lx, ly = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    core = math.exp(a * lx + b * ly - _log_beta(a, b))
    cf, c, d = 1.0, 1.0, 0.0
    for m in range(1, 1_000_000):
        for t in (-(a + m - 1) * (a + b + m - 1) * x / ((a + 2 * m - 2) * (a + 2 * m - 1)),
                  m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))):
            d, c = 1.0 / (1.0 + t * d), 1.0 + t / c
            cf *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return core / (a * cf), core / (x * y)


def _cp_end(k: int, n: int, p: float, upper: bool) -> float:
    """The Clopper-Pearson end, to about 1e-9 relative, at which k or more
    errors (k or fewer for the upper end) have probability 2.5%: Newton
    steps from ``p``, bisecting whenever a step would leave the bracket."""
    lo, hi = 0.0, 1.0
    for _ in range(100):        # bisection alone would settle within 60
        # P(X >= k) = I_p(k, n-k+1) rises with p; P(X <= k) = I_{1-p}(n-k, k+1) falls
        tail, slope = (_beta_cdf(n - k, k + 1, 1.0 - p, p) if upper
                       else _beta_cdf(k, n - k + 1, p, 1.0 - p))
        slope = -slope if upper else slope
        lo, hi = (p, hi) if (tail < _CP_TAIL) != upper else (lo, p)
        step = p - (tail - _CP_TAIL) / slope if slope else lo
        tol = 1e-10 * min(p, 1.0 - p)
        if abs(step - p) <= tol or hi - lo <= tol:
            return step
        p = step if lo < step < hi else (lo + hi) / 2
    return p


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact 95% interval for k errors in n bits (Clopper & Pearson, Biometrika
    1934); ends start from the Wilson bounds, mirrored past k = n/2 to converge."""
    if 2 * k > n:
        lo, hi = _clopper_pearson(n - k, n)
        return 1.0 - hi, 1.0 - lo
    z2 = _CI95 ** 2
    centre = (k + z2 / 2) / (n + z2)
    half = _CI95 * math.sqrt(k * (n - k) / n + z2 / 4) / (n + z2)
    return (_cp_end(k, n, centre - half, False) if k else 0.0,
            _cp_end(k, n, centre + half, True) if k < n else 1.0)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(config: SimConfig) -> int:
    """Processes a campaign's batches run in: min(workers, available CPUs), or 1 without fork."""
    nproc = _available_cpus()
    return min(config.workers or nproc, nproc) if hasattr(os, "fork") else 1


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
        lo, hi = _clopper_pearson(e, n)
        points.append(BerPoint(angle=config.angles[ai], eb_n0_db=config.snr_db[si],
                               bits=n, errors=e, ber=ber,
                               ci95=_CI95 * math.sqrt(ber * (1.0 - ber) / n),
                               ci_lo=lo, ci_hi=hi))
    return points


def _keep_batch_memory():
    """Keep freed batch arrays mapped, up to 128 MiB, so batches reuse pages."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return                  # no glibc malloc here (macOS, for example)
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-1, 128 << 20)      # M_TRIM_THRESHOLD


_KEY = struct.Struct("3q")      # (ai, si, batch): under PIPE_BUF, so read as written, whole
_AHEAD = 2                      # keys written ahead to a worker: one running, one queued


def _run_pool(config: SimConfig, procs: int) -> list[BerPoint]:
    """_schedule over ``procs`` forked workers, each fed keys through a pipe: in
    the order sent, to whichever has fewer than _AHEAD unanswered, so no pipe
    fills.  However the campaign ends, all pipes are closed and workers reaped."""
    pids, queue, poll = [], deque(), select.poll()
    out = {}                    # answer fd -> (its file, the key fd, tasks unanswered)

    def answer(task):           # a task is [key] until its answer is appended
        while len(task) == 1:
            try:
                for _, fd, sent in out.values():
                    while queue and len(sent) < _AHEAD:
                        sent.append(queue.popleft())
                        os.write(fd, _KEY.pack(*sent[-1][0]))
                for fd, _ in poll.poll():
                    f, _, sent = out[fd]
                    sent.popleft().append(pickle.load(f))
            except (BrokenPipeError, EOFError):
                raise RuntimeError("a BER worker process died") from None
        if isinstance(task[1], BaseException):
            raise task[1]
        return task[1]

    def submit(*key):
        queue.append(task := [key])
        return partial(answer, task)

    try:
        for _ in range(procs):
            (key_r, key_w), (ans_r, ans_w) = os.pipe(), os.pipe()
            out[ans_r] = open(ans_r, "rb", buffering=0), key_w, deque()  # poll sees all unread
            poll.register(ans_r, select.POLLIN)
            try:
                if (pid := os.fork()) == 0:
                    try:    # a worker: keys in, pickled counts or batch exceptions out
                        for f, fd, _ in out.values():
                            f.close(), os.close(fd)
                        _keep_batch_memory()
                        while key := os.read(key_r, _KEY.size):
                            try:
                                reply = _run_batch(config, *_KEY.unpack(key))
                            except Exception as exc:
                                reply = exc
                            os.write(ans_w, pickle.dumps(reply))
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:            # reached by the parent only, even if the fork fails
                os.close(key_r), os.close(ans_w)
        return _schedule(config, procs, submit)
    finally:
        for f, fd, _ in out.values():
            f.close(), os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def run_ber(config: SimConfig) -> BerCurve:
    """Run the campaign over the (angle, SNR) lattice.

    Each point simulates at least min_bits, unless a max_bits that rounds
    below it to whole blocks stops it first, and keeps going until
    target_errors bit errors are seen, then reports the error count, the BER
    estimate, its 95% normal-approximation half-width and the exact 95%
    Clopper-Pearson bounds, which treat the bit count as fixed.  Batches run in a
    pool of min(workers, available CPUs) forked processes, or lazily in the
    calling process when that is one or fork is missing; results do not
    depend on the worker count, and an error in a batch reaches the caller.
    """
    procs = _pool_size(config)
    import numpy.random  # noqa: F401  (numpy loads it lazily; forked workers inherit it)
    points = (_run_pool(config, procs) if procs > 1 else
              _schedule(config, 1, lambda *key: partial(_run_batch, config, *key)))
    return BerCurve(scheme=config.scheme.kind, channel=config.channel,
                    points=tuple(points))
