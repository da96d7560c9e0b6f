"""The batch arithmetic against its verbatim earlier form (``tests/oracles.py``):
received samples, soft estimates and decisions bit for bit on full batches,
error counts exactly, the energy meter to rounding level, and the demapper
on edge-case inputs."""

import math

import numpy as np
import pytest

import oracles
from cbfsim import channel as chan
from cbfsim import simulate
from cbfsim.arrays import AngleGrid, ArrayGeometry
from cbfsim.beams import PhaseCodebook, find_complementary_set
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
BEAMS = find_complementary_set(GEOM, PhaseCodebook(2), AngleGrid.uniform_theta(512), "golay")
# [1,1] nulls at endfire while [1,-1] peaks there (test_beam_null_still_decodes)
NULL_GEOM = ArrayGeometry(4, 2)
NULL_PAIR = find_complementary_set(NULL_GEOM, PhaseCodebook(2),
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
    """One transmit through the oracle's arithmetic: cbf's whole chain, or
    the scalar chain that rbf and single share."""
    if scheme == "cbf":
        return oracles.transmit_cbf(s, beams, angle, link)
    with monkeypatch.context() as m:
        m.setattr(simulate, "_transmit_scalar", oracles.transmit_scalar)
        return transmit(scheme, s, angle, link, block)


def old_decode(sig, noise_variance):
    decode = oracles.cbf_decode if isinstance(sig, CbfSignal) else oracles.scalar_decode
    return decode(sig, noise_variance)


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
    soft_new, soft_old = new.decode(noise_variance), old_decode(old, noise_variance)
    assert np.array_equal(bits_of(soft_new), bits_of(soft_old))
    assert np.array_equal(chan.qpsk_demodulate(soft_new), oracles.qpsk_demodulate(soft_old))


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
    soft_new, soft_old = new.decode(noise_variance), old_decode(old, noise_variance)
    assert np.allclose(soft_new, soft_old, rtol=1e-14, atol=1e-14)
    assert np.array_equal(chan.qpsk_demodulate(soft_new), oracles.qpsk_demodulate(soft_old))


def old_arithmetic(monkeypatch):
    """Route every batch through the oracle's transmit, decode and demap."""
    monkeypatch.setattr(simulate, "transmit_cbf", oracles.transmit_cbf)
    monkeypatch.setattr(simulate, "_transmit_scalar", oracles.transmit_scalar)
    monkeypatch.setattr(CbfSignal, "decode", oracles.cbf_decode)
    monkeypatch.setattr(ScalarSignal, "decode", oracles.scalar_decode)
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
    old_arithmetic(monkeypatch)
    old = [simulate._run_batch(config, *key) for key in keys]
    assert new == old
    assert min(new) > 0


def rbf_weights(rng, blocks, n_el=8):
    """Random weight rows of uneven norms, so a wrong grouping shows."""
    return (rng.uniform(0.5, 1.5, (blocks, n_el))
            * np.exp(2j * np.pi * rng.random((blocks, n_el))))


@pytest.mark.parametrize("block", [2, 4])
def test_meter_matches_the_per_symbol_mean(block):
    rng = np.random.default_rng(66)
    s = symbols(67) * rng.uniform(0.5, 1.5, BATCH_BITS // 2)   # uneven |s|
    weights = rbf_weights(rng, s.size // block)
    for new, old in [(simulate._energy(s), oracles.energy(s)),
                     (simulate._energy(s, BEAMS.weights.ravel()),
                      oracles.energy(s, BEAMS.weights.ravel())),
                     (simulate._energy(s, weights), oracles.energy(s, weights, block))]:
        assert new == pytest.approx(old, rel=1e-12, abs=0)


def test_meter_of_no_symbols_is_zero():
    empty = np.empty(0, dtype=complex)
    assert simulate._energy(empty) == 0.0
    assert simulate._energy(empty, BEAMS.weights.ravel()) == 0.0
    assert simulate._energy(empty, np.empty((0, 8), dtype=complex)) == 0.0


def test_meter_catches_one_block_scaled_by_one_percent(monkeypatch):
    rng = np.random.default_rng(68)
    s = symbols(69, 4 * 200)
    weights = np.exp(2j * np.pi * rng.random((s.size // 2, 8)))
    scaled = weights.copy()
    scaled[7] *= 1.01
    assert abs(simulate._energy(s, scaled) - simulate._energy(s, weights)) > POWER_TOL

    config = SimConfig(SchemeConfig("rbf", GEOM), "awgn", (0.0,), (6.0,),
                       min_bits=10_000, max_bits=10_000)
    simulate._run_batch(config, 0, 0, 0)          # the true weights pass
    real = simulate._transmit_scalar

    def one_block_hot(s, link, block_symbols, array_gains=None, weights=None):
        weights = weights.copy()
        weights[0] *= 1.01
        return real(s, link, block_symbols, array_gains, weights)

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
