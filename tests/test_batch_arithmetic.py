"""The batch arithmetic against its verbatim earlier form (``tests/oracles.py``):
received samples, soft estimates (cbf's Alamouti combine after the MMSE scale
the package leaves out) and decisions bit for bit on full batches, the
package's decisions from its own unscaled soft values against the oracle's,
rbf's chunked weights bit for bit against one whole weight matrix at every
batch size, error counts exactly, the energy meter to rounding level, and the
demapper on edge-case inputs."""

import math

import numpy as np
import pytest

import oracles
from cbfsim import channel as chan
from cbfsim import simulate
from cbfsim.arrays import AngleGrid, ArrayGeometry
from cbfsim.beams import find_complementary_set
from cbfsim.simulate import (
    BATCH_BITS,
    POWER_TOL,
    CbfSignal,
    LinkChannel,
    ScalarSignal,
    SchemeConfig,
    SimConfig,
)

GEOM = ArrayGeometry(8, 2)
BEAMS = find_complementary_set(GEOM, 2, AngleGrid.uniform_theta(512), "golay")
# [1,1] nulls at endfire while [1,-1] peaks there (test_beam_null_still_decodes)
NULL_GEOM = ArrayGeometry(4, 2)
NULL_PAIR = find_complementary_set(NULL_GEOM, 2,
                                   AngleGrid.uniform_theta(512), "exhaustive")


def bits_of(x: np.ndarray) -> np.ndarray:
    """The IEEE-754 bit patterns of a complex array, two words per sample."""
    return np.ascontiguousarray(x).view(np.uint64)


def symbols(seed, n_bits=BATCH_BITS):
    return chan.qpsk_modulate(np.random.default_rng(seed).integers(0, 2, n_bits))


def transmit(scheme, s, angle, link, block, beams=BEAMS):
    if scheme == "cbf":
        return simulate.transmit_cbf(s, beams, angle, link)
    if scheme == "rbf":
        return simulate.transmit_rbf(s, GEOM, angle, link, block)
    return simulate.transmit_single(s, link)


def old_transmit(monkeypatch, scheme, s, angle, link, block, beams=BEAMS):
    """One transmit through the oracle's arithmetic: cbf's whole chain, rbf's
    whole-matrix chain, or the scalar chain that single uses."""
    if scheme == "cbf":
        return oracles.transmit_cbf(s, beams, angle, link)
    if scheme == "rbf":
        return oracles.transmit_rbf(s, GEOM, angle, link, block)
    with monkeypatch.context() as m:
        m.setattr(simulate, "_transmit_scalar", oracles.transmit_scalar)
        return transmit(scheme, s, angle, link, block)


def old_decode(sig, noise_variance):
    decode = oracles.cbf_decode if isinstance(sig, CbfSignal) else oracles.scalar_decode
    return decode(sig, noise_variance)


def mmse_scaled(sig, soft, noise_variance):
    """cbf's Alamouti combine times the MMSE scale 1/(|a|^2 + |b|^2 + sigma^2),
    multiplied as the package once did, (re, im) * (1/scale), which rounds as
    the oracle's division does; rbf and single soft values as they are."""
    if not isinstance(sig, CbfSignal):
        return soft
    a, b = sig.gain1, sig.gain2
    scale = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2 + noise_variance
    pairs = soft.reshape(-1, 2).view(float) * (1.0 / scale)[:, None]
    return pairs.view(complex).ravel()


CASES = [(scheme, kind, equal, 0.4, 0.3, 2, BEAMS)
         for scheme in ("cbf", "rbf", "single")
         for kind in ("awgn", "rayleigh")
         for equal in (True, False)]
CASES += [("cbf", "awgn", True, math.pi / 2, 0.3, 2, NULL_PAIR),   # a stream in a null
          ("cbf", "rayleigh", False, math.pi / 2, 0.0, 2, NULL_PAIR),
          ("cbf", "awgn", True, -0.7, 0.0, 2, BEAMS),              # zero noise variance
          ("cbf", "rayleigh", False, -0.7, 0.0, 2, BEAMS),
          ("single", "awgn", True, 0.0, 0.0, 2, None),
          ("rbf", "rayleigh", True, 1.1, 0.0, 2, None),
          ("rbf", "awgn", True, 0.2, 0.3, 4, None),                # four-symbol blocks
          ("rbf", "rayleigh", True, 0.2, 0.3, 4, None)]


def case_id(case):
    scheme, kind, equal, angle, noise_variance, block, _ = case
    return (f"{scheme}-{kind}-{'equal' if equal else 'independent'}-{angle:.2f}"
            f"-nv{noise_variance}-block{block}")


@pytest.mark.parametrize("scheme, kind, equal, angle, noise_variance, block, beams", CASES,
                         ids=[case_id(c) for c in CASES])
def test_full_batch_is_bitwise_the_oracle(monkeypatch, scheme, kind, equal, angle,
                                          noise_variance, block, beams):
    s = symbols(61)
    link = lambda: LinkChannel(kind, noise_variance, np.random.default_rng(62), equal)
    new = transmit(scheme, s, angle, link(), block, beams)
    old = old_transmit(monkeypatch, scheme, s, angle, link(), block, beams)
    for name in ("y1", "y2") if scheme == "cbf" else ("y",):
        assert np.array_equal(bits_of(getattr(new, name)), bits_of(getattr(old, name))), name
    if kind == "awgn" and scheme != "rbf":
        gains = (new.gain1, new.gain2) if scheme == "cbf" else (new.gains,)
        assert all(g.shape == (1,) for g in gains)     # one value that broadcasts
    if scheme == "rbf":    # one gain per block, the oracle's repeated per symbol
        assert np.array_equal(bits_of(np.repeat(new.gains, block)), bits_of(old.gains))
        assert new.energy_per_period == pytest.approx(old.energy_per_period,
                                                      rel=1e-12, abs=0)
    combine, soft_old = new.decode(), old_decode(old, noise_variance)
    assert np.array_equal(bits_of(mmse_scaled(new, combine, noise_variance)),
                          bits_of(soft_old))
    assert np.array_equal(chan.qpsk_demodulate(combine), oracles.qpsk_demodulate(soft_old))


@pytest.mark.parametrize("scheme, kind, equal, angle, noise_variance, block, beams",
                         CASES[:12], ids=[case_id(c) for c in CASES[:12]])
def test_short_batch_matches_the_oracle_to_rounding(monkeypatch, scheme, kind, equal,
                                                    angle, noise_variance, block, beams):
    # below numpy's temporary-reuse size some oracle products round in the
    # other operand order (see tests/oracles.py), so only ulps may differ
    s = symbols(63, 4_000)
    link = lambda: LinkChannel(kind, noise_variance, np.random.default_rng(64), equal)
    new = transmit(scheme, s, angle, link(), block, beams)
    old = old_transmit(monkeypatch, scheme, s, angle, link(), block, beams)
    combine, soft_old = new.decode(), old_decode(old, noise_variance)
    assert np.allclose(mmse_scaled(new, combine, noise_variance), soft_old,
                       rtol=1e-14, atol=1e-14)
    assert np.array_equal(chan.qpsk_demodulate(combine), oracles.qpsk_demodulate(soft_old))


def old_arithmetic(monkeypatch, noise_variance):
    """Route every batch through the oracle's transmit, decode and demap; cbf
    decodes by the full MMSE form at ``noise_variance``, the batch's own."""
    monkeypatch.setattr(simulate, "transmit_cbf", oracles.transmit_cbf)
    monkeypatch.setattr(simulate, "transmit_rbf", oracles.transmit_rbf)
    monkeypatch.setattr(simulate, "_transmit_scalar", oracles.transmit_scalar)
    monkeypatch.setattr(CbfSignal, "decode",
                        lambda sig: oracles.cbf_decode(sig, noise_variance))
    monkeypatch.setattr(ScalarSignal, "decode",
                        lambda sig: oracles.scalar_decode(sig, noise_variance))
    monkeypatch.setattr(chan, "qpsk_demodulate", oracles.qpsk_demodulate)


RUN_CASES = [(scheme, kind, equal, 2) for scheme in ("cbf", "rbf", "single")
             for kind in ("awgn", "rayleigh") for equal in (True, False)]
RUN_CASES += [("rbf", "awgn", True, 4), ("rbf", "rayleigh", True, 4)]


@pytest.mark.parametrize("scheme, kind, equal, block", RUN_CASES)
def test_run_batch_counts_are_the_oracle_counts(monkeypatch, scheme, kind, equal, block):
    # two full batches and a 10,000-bit last one, at a beam null and off it
    beams = NULL_PAIR if scheme == "cbf" else None
    geom = NULL_GEOM if scheme == "cbf" else GEOM
    config = SimConfig(SchemeConfig(scheme, geom, beams, block), kind,
                       (math.pi / 2, 0.3), (2.0,), min_bits=10_000,
                       max_bits=2 * BATCH_BITS + 10_000, seed=65, equal_subarrays=equal)
    keys = [(ai, 0, batch) for ai in range(2) for batch in range(3)]
    new = [simulate._run_batch(config, *key) for key in keys]
    old_arithmetic(monkeypatch, chan.noise_variance(config.snr_db[0]))
    old = [simulate._run_batch(config, *key) for key in keys]
    assert new == old
    assert min(new) > 0


# 7 and 33 elements: chunks of 4,681 and 992 rows, neither of which divides a
# full batch's 50,000 (or 25,000) blocks; 1,000 and 400 blocks: a batch shorter
# than one chunk; 10,000 and 20,000 elements at 7, 3 and 4 blocks: rows of over
# 8192 numbers, which einsum sums in another order in a chunk of one row, as
# fixed chunks of 3, 2 or 1 rows would leave
CHUNK_CASES = [(7, BATCH_BITS, 2), (33, BATCH_BITS, 2), (7, BATCH_BITS, 4),
               (7, 4_000, 2), (33, 1_600, 2), (10_000, 28, 2), (20_000, 12, 2),
               (20_000, 16, 2)]


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("elements, n_bits, block", CHUNK_CASES)
def test_rbf_chunks_are_bitwise_the_whole_matrix(elements, n_bits, block, kind):
    s = symbols(72, n_bits)
    geometry = ArrayGeometry(elements, 1)
    link = lambda: LinkChannel(kind, 0.3, np.random.default_rng(73))
    new = simulate.transmit_rbf(s, geometry, 0.4, link(), block)
    old = oracles.transmit_rbf(s, geometry, 0.4, link(), block)
    # both decoded by the package, so that only the transmit differs
    soft_new, soft_old = new.decode(), old.decode()
    for got, want in ((new.y, old.y), (np.repeat(new.gains, block), old.gains),
                      (soft_new, soft_old)):
        assert np.array_equal(bits_of(got), bits_of(want))
    assert np.array_equal(chan.qpsk_demodulate(soft_new), oracles.qpsk_demodulate(soft_old))
    assert new.energy_per_period == pytest.approx(old.energy_per_period, rel=1e-12, abs=0)


def rbf_weights(rng, blocks, n_el=8):
    """Random weight rows of uneven norms, so a wrong grouping shows."""
    return (rng.uniform(0.5, 1.5, (blocks, n_el))
            * np.exp(2j * np.pi * rng.random((blocks, n_el))))


def row_norms(weights):
    """||w||^2 of each weight row, summed apart from the package's einsum."""
    return (np.abs(np.atleast_2d(weights)) ** 2).sum(axis=1)


@pytest.mark.parametrize("block", [2, 4])
def test_meter_matches_the_per_symbol_mean(block):
    rng = np.random.default_rng(66)
    s = symbols(67) * rng.uniform(0.5, 1.5, BATCH_BITS // 2)   # uneven |s|
    weights = rbf_weights(rng, s.size // block)
    cbf_w = BEAMS.weights.ravel()
    for new, old in [(simulate._energy(s), oracles.energy(s)),
                     (simulate._energy(s, row_norms(cbf_w), cbf_w.size),
                      oracles.energy(s, cbf_w)),
                     (simulate._energy(s, row_norms(weights), 8),
                      oracles.energy(s, weights, block)),
                     (simulate._energy(s, row_norms(weights), 8),
                      oracles.weights_energy(s, weights))]:
        assert new == pytest.approx(old, rel=1e-12, abs=0)


def test_meter_of_no_symbols_is_zero():
    empty, cbf_w = np.empty(0, dtype=complex), BEAMS.weights.ravel()
    assert simulate._energy(empty) == 0.0
    assert simulate._energy(empty, row_norms(cbf_w), cbf_w.size) == 0.0
    assert simulate._energy(empty, np.empty(0), 8) == 0.0


def test_meter_catches_one_block_scaled_by_one_percent(monkeypatch):
    rng = np.random.default_rng(68)
    s = symbols(69, 4 * 200)
    weights = np.exp(2j * np.pi * rng.random((s.size // 2, 8)))
    scaled = weights.copy()
    scaled[7] *= 1.01
    assert abs(simulate._energy(s, row_norms(scaled), 8)
               - simulate._energy(s, row_norms(weights), 8)) > POWER_TOL

    config = SimConfig(SchemeConfig("rbf", GEOM), "awgn", (0.0,), (6.0,),
                       min_bits=10_000, max_bits=10_000)
    simulate._run_batch(config, 0, 0, 0)          # the true weights pass
    real = simulate._transmit_scalar

    def one_block_hot(s, link, block_symbols, array_gains=None, norms=(1.0,), elements=1):
        norms = norms.copy()
        norms[0] *= 1.01 ** 2       # the first block's weights scaled by 1.01
        return real(s, link, block_symbols, array_gains, norms, elements)

    monkeypatch.setattr(simulate, "_transmit_scalar", one_block_hot)
    with pytest.raises(RuntimeError, match="power budget violated"):
        simulate._run_batch(config, 0, 0, 0)


NAN = float("nan")
DEMAP_INPUTS = {
    "signed-zeros": np.array([complex(0.0, -0.0), complex(-0.0, 0.0),
                              complex(-0.0, -0.0), complex(0.0, 0.0)]),
    "nan": np.array([complex(NAN, -1.0), complex(-1.0, NAN), complex(NAN, NAN)]),
    "complex64": (symbols(70, 400) * (1 + 0.3j)).astype(np.complex64),
    "real": np.array([-1.0, 2.0, -0.0, 0.0, NAN]),
    "python-scalar": -0.2 + 5j,
    "python-float": -3.0,
    "strided": (symbols(71, 1_200) * (0.6 - 0.8j))[::3],
}


@pytest.mark.parametrize("name", DEMAP_INPUTS)
def test_demapper_edge_cases_match_the_oracle(name):
    soft = DEMAP_INPUTS[name]
    got, want = chan.qpsk_demodulate(soft), oracles.qpsk_demodulate(soft)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want)
