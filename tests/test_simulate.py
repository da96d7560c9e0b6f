"""Tests for the three transmit paths and the Monte Carlo campaign runner."""

import collections
import dataclasses
import math
import os
import pickle
import platform
import resource
import select
import subprocess
import sys
import textwrap
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cbfsim
from cbfsim import simulate
from cbfsim.arrays import AngleGrid, ArrayGeometry, subarray_gains
from cbfsim.beams import find_complementary_set
from cbfsim.channel import (
    awgn_qpsk_ber,
    complex_noise,
    qpsk_demodulate,
    qpsk_modulate,
)
from cbfsim.cli import main
from cbfsim.simulate import (
    DEFAULT_ANGLES_DEG,
    POWER_TOL,
    LinkChannel,
    SchemeConfig,
    SimConfig,
    run_ber,
    transmit_cbf,
    transmit_rbf,
    transmit_single,
)
from oracles import binomial_cdf

GEOM = ArrayGeometry(8, 2)
BEAMS = find_complementary_set(GEOM, 2,
                               AngleGrid.uniform_theta(512), "golay")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Two available CPUs, and the size of every process pool run_ber opens."""
    sizes = []
    run_pool = simulate._run_pool
    monkeypatch.setattr(simulate, "_run_pool",
                        lambda config, procs: sizes.append(procs) or run_pool(config, procs))
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
    return sizes


def assert_no_child_processes():
    # every worker forked for a campaign has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def quiet_link(rng=None):
    return LinkChannel("awgn", 0.0, rng or np.random.default_rng(0))


def make_symbols(rng, n_bits):
    return qpsk_modulate(rng.integers(0, 2, n_bits))


class TestSchemeConfig:
    def test_cbf_requires_beams(self):
        with pytest.raises(ValueError):
            SchemeConfig("cbf", GEOM)

    def test_cbf_geometry_must_match_beams(self):
        with pytest.raises(ValueError):
            SchemeConfig("cbf", ArrayGeometry(16, 2), beams=BEAMS)

    def test_rbf_block_must_be_even(self):
        with pytest.raises(ValueError):
            SchemeConfig("rbf", GEOM, rbf_block_symbols=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SchemeConfig("fanbeam", GEOM)


class TestSimConfig:
    def test_min_bits_floor(self):
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0,), (4.0,),
                      min_bits=100)

    def test_angles_within_visible_region(self):
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (2.0,), (4.0,))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, angle):
        with pytest.raises(ValueError, match="visible region"):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0, angle), (4.0,))

    # beyond about +/-3000 dB the noise variance overflows or underflows
    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, 1e10, -1e10])
    def test_snrs_must_give_a_usable_noise_variance(self, snr):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0,), (4.0, snr))

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (), (4.0,))
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0,), ())

    def test_lattice_size_bounded(self):
        most = simulate.MAX_LATTICE_POINTS
        SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0,),
                  np.linspace(0.0, 10.0, most))
        with pytest.raises(ValueError, match="lattice points"):
            SimConfig(SchemeConfig("single", GEOM), "awgn", (0.0, 0.5),
                      np.linspace(0.0, 10.0, most // 2 + 1))

    def test_unknown_channel(self):
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("single", GEOM), "ricean", (0.0,), (4.0,))

    def test_max_bits_must_hold_one_block(self):
        # a 12,000-bit rbf block cannot fit under a 10,000-bit cap
        with pytest.raises(ValueError):
            SimConfig(SchemeConfig("rbf", GEOM, rbf_block_symbols=6_000), "awgn",
                      (0.0,), (4.0,), min_bits=10_000, max_bits=10_000)

    def test_worker_count_bounded_by_cpus(self, monkeypatch):
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        make = lambda workers: SimConfig(SchemeConfig("single", GEOM), "awgn",
                                         (0.0,), (4.0,), workers=workers)
        assert make(8).workers == 8
        assert make(None).workers is None
        for workers in (0, 9):
            with pytest.raises(ValueError, match="from 1 to 8.*2 available"):
                make(workers)


class TestTransmitCbf:
    def test_noiseless_decode_exact_at_every_angle(self):
        rng = np.random.default_rng(21)
        s = make_symbols(rng, 400)
        for angle_deg in DEFAULT_ANGLES_DEG:
            sig = transmit_cbf(s, BEAMS, math.radians(angle_deg), quiet_link())
            assert np.max(np.abs(sig.decode(0.0) - s)) < 1e-9

    def test_beam_null_still_decodes(self):
        # [1,1] nulls at endfire while [1,-1] peaks there: orthogonality
        # keeps zero-forcing exact on the surviving stream
        geom = ArrayGeometry(4, 2)
        pair = find_complementary_set(geom, 2,
                                      AngleGrid.uniform_theta(512), "exhaustive")
        angle = math.pi / 2
        gains = [abs(subarray_gains(w, geom, m, angle)[0])
                 for m, w in enumerate(pair.weights)]
        assert min(gains) < 1e-12
        rng = np.random.default_rng(22)
        s = make_symbols(rng, 400)
        sig = transmit_cbf(s, pair, angle, quiet_link())
        assert np.max(np.abs(sig.decode(0.0) - s)) < 1e-9

    def test_zero_symbols_give_noise_only_output(self):
        sig = transmit_cbf(np.zeros(4, dtype=complex), BEAMS, 0.0,
                           LinkChannel("awgn", 0.5, np.random.default_rng(23)))
        replay = np.random.default_rng(23)
        n1 = complex_noise(2, 0.5, replay)
        n2 = complex_noise(2, 0.5, replay)
        assert np.array_equal(sig.y1, n1)
        assert np.array_equal(sig.y2, n2)

    def test_pre_noise_energy_equal_across_angles(self):
        # zero-variance beams: |g1|^2 + |g2|^2 is angle-independent
        rhos = []
        for angle_deg in DEFAULT_ANGLES_DEG:
            sig = transmit_cbf(make_symbols(np.random.default_rng(1), 200), BEAMS,
                               math.radians(angle_deg), quiet_link())
            rho = np.abs(sig.gain1[0]) ** 2 + np.abs(sig.gain2[0]) ** 2
            rhos.append(rho)
        assert max(rhos) - min(rhos) < 1e-9


class TestTransmitRbf:
    # E[|g|^2] = 1 whatever the angle: near both ends of the visible region,
    # broadside, where the per-element phase step is pi/4, and at 37 degrees
    @pytest.mark.parametrize("angle", [math.radians(-85.0), 0.0, math.asin(0.25),
                                       math.radians(37.0), math.radians(85.0)],
                             ids=["-85", "0", "asin-quarter", "37", "85"])
    def test_average_gain_flat(self, angle):
        rng = np.random.default_rng(31)
        s = make_symbols(rng, 4 * 100_000)
        sig = transmit_rbf(s, GEOM, angle, quiet_link(rng))
        mean_power = np.mean(np.abs(sig.gains[::2]) ** 2)
        assert mean_power == pytest.approx(1.0, abs=0.02)

    def test_deep_fade_blocks_burst_errors(self):
        # blocks whose random beam lands near a null behave like deep fades
        rng = np.random.default_rng(32)
        bits = rng.integers(0, 2, 4 * 20_000)
        link = LinkChannel("awgn", 0.1, rng)  # about 7 dB Eb/N0
        sig = transmit_rbf(qpsk_modulate(bits), GEOM, 0.0, link)
        bits_hat = qpsk_demodulate(sig.decode(0.1))
        errors = (bits_hat != bits).reshape(-1, 4)  # bits per block
        block_ber = errors.mean(axis=1)
        faded = np.abs(sig.gains[::2]) < 0.1
        assert faded.any()
        assert block_ber[faded].mean() > 0.25
        assert block_ber[~faded].mean() < 0.05

    def test_reproducible_under_seed(self):
        s = make_symbols(np.random.default_rng(5), 400)
        a = transmit_rbf(s, GEOM, 0.3, quiet_link(np.random.default_rng(33)))
        b = transmit_rbf(s, GEOM, 0.3, quiet_link(np.random.default_rng(33)))
        assert np.array_equal(a.y, b.y)

    def test_weights_unit_modulus_and_continuous(self):
        # through one element with a unit steering phase, each block's gain is
        # its weight: unit modulus to float32 precision, and no phase repeats
        # more often than 2^24 float32 levels a turn make likely
        blocks = 50_000
        s = make_symbols(np.random.default_rng(7), 4 * blocks)
        g = transmit_rbf(s, ArrayGeometry(1, 1), 0.3,
                         quiet_link(np.random.default_rng(34))).gains[::2]
        assert np.max(np.abs(np.abs(g) ** 2 - 1)) < 4 * np.finfo(np.float32).eps
        assert len(np.unique(np.angle(g))) > 0.99 * blocks

    def test_partial_block_rejected(self):
        s = make_symbols(np.random.default_rng(6), 6)
        with pytest.raises(ValueError):
            transmit_rbf(s, GEOM, 0.0, quiet_link(), block_symbols=2)

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("elements", [8, 256])
    def test_batch_memory_does_not_grow_with_the_array(self, elements, channel):
        # the weights are built a chunk at a time, so a full batch peaks at
        # about 8-9 MiB whatever the array; one whole weight matrix took
        # 14.7-15.5 MiB at 8 elements and 343.5 MiB at 256
        config = SimConfig(SchemeConfig("rbf", ArrayGeometry(elements, 1)), channel,
                           (0.3,), (4.0,), min_bits=simulate.BATCH_BITS,
                           max_bits=simulate.BATCH_BITS)
        simulate._run_batch(config, 0, 0, 0)       # lazy imports load first
        tracemalloc.start()
        try:
            simulate._run_batch(config, 0, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20


class TestTransmitSingle:
    def test_noiseless_identity_up_to_channel(self):
        bits = np.random.default_rng(41).integers(0, 2, 400)
        s = qpsk_modulate(bits)
        sig = transmit_single(s, quiet_link())
        assert np.array_equal(sig.y, s)
        assert np.array_equal(qpsk_demodulate(sig.decode(0.0)), bits)

    def test_rayleigh_gain_applied_blockwise(self):
        rng = np.random.default_rng(42)
        s = make_symbols(rng, 400)
        link = LinkChannel("rayleigh", 0.0, rng)
        sig = transmit_single(s, link)
        gains = sig.gains.reshape(-1, 2)
        assert np.array_equal(gains[:, 0], gains[:, 1])
        assert np.max(np.abs(sig.decode(0.0)
                             - np.abs(sig.gains) ** 2 * s)) < 1e-12


class TestPowerFairness:
    def test_energy_meter_identical_across_schemes(self):
        # a full batch, whose 50,000 float32-phase rbf patterns all count
        rng = np.random.default_rng(51)
        s = make_symbols(rng, simulate.BATCH_BITS)
        budget = np.mean(np.abs(s) ** 2)
        cbf = transmit_cbf(s, BEAMS, 0.4, quiet_link())
        rbf = transmit_rbf(s, GEOM, 0.4, quiet_link(np.random.default_rng(2)))
        single = transmit_single(s, quiet_link())
        for sig in (cbf, rbf, single):
            assert abs(sig.energy_per_period - budget) < POWER_TOL

    @pytest.mark.parametrize("kind", ["cbf", "rbf", "single"])
    def test_scaled_symbols_break_the_budget(self, monkeypatch, kind):
        # the noise is sized for unit symbol energy, so a QPSK map 0.1% too
        # loud (every Eb/N0 point off by 0.009 dB) must fail the meter
        monkeypatch.setattr(cbfsim.channel, "_QPSK", 1.001 * cbfsim.channel._QPSK)
        scheme = SchemeConfig(kind, GEOM if kind != "single" else ArrayGeometry(1, 1),
                              beams=BEAMS if kind == "cbf" else None)
        config = SimConfig(scheme, "awgn", (0.0,), (4.0,), min_bits=100_000, seed=1)
        with pytest.raises(RuntimeError, match="transmit power budget violated"):
            simulate._run_batch(config, 0, 0, 0)


class TestRunBer:
    def small_config(self, scheme, channel="awgn", angles=(0.0,), snr=(6.0,),
                     seed=7, **kw):
        return SimConfig(scheme=scheme, channel=channel, angles=angles,
                         snr_db=snr, min_bits=100_000, target_errors=50,
                         seed=seed, **kw)

    def test_deterministic(self):
        cfg = self.small_config(SchemeConfig("cbf", GEOM, beams=BEAMS))
        assert run_ber(cfg) == run_ber(cfg)

    def test_worker_count_does_not_change_results(self, pool_sizes):
        # every point draws from its own rng streams, so which process runs
        # it cannot alter the outcome
        def curve(workers):
            return run_ber(self.small_config(
                SchemeConfig("cbf", GEOM, beams=BEAMS), angles=(0.0, 0.5),
                snr=(4.0, 6.0), workers=workers))
        assert curve(1).points == curve(2).points
        assert pool_sizes == [2]

    def test_one_point_batches_share_the_pool(self, pool_sizes):
        # a fixed-size point is all certain batches, spread over the workers;
        # more workers than CPUs count as one per CPU
        def point(workers):
            return run_ber(SimConfig(
                scheme=SchemeConfig("rbf", ArrayGeometry(8, 1)),
                channel="rayleigh", angles=(0.0,), snr_db=(10.0,),
                min_bits=1_000_000, max_bits=1_000_000, target_errors=0,
                seed=5, workers=workers)).points
        assert point(1) == point(2) == point(4)
        assert pool_sizes == [2, 2]
        assert_no_child_processes()

    def test_one_worker_opens_no_pool(self, pool_sizes):
        run_ber(self.small_config(SchemeConfig("cbf", GEOM, beams=BEAMS),
                                  angles=(0.0, 0.5), workers=1))
        assert pool_sizes == []

    def test_scheduler_discards_at_most_procs_minus_one(self):
        # 0 dB stops at min_bits, 8 dB at target_errors after speculative
        # batches, 12 dB at max_bits; run inline with a three-batch window
        cfg = SimConfig(scheme=SchemeConfig("single", ArrayGeometry(1, 1)),
                        channel="awgn", angles=(0.0,), snr_db=(0.0, 8.0, 12.0),
                        min_bits=400_000, target_errors=100,
                        max_bits=2_000_000, seed=2, workers=1)
        sent, run = collections.Counter(), collections.Counter()

        def submit(ai, si, batch):
            sent[si] += 1

            def count():
                run[si] += 1
                return simulate._run_batch(cfg, ai, si, batch)
            return count

        points = simulate._schedule(cfg, 3, submit)
        assert points == list(run_ber(cfg).points)
        low, mid, high = points
        assert low.bits == 400_000 and low.errors >= 100
        assert 400_000 < mid.bits < 2_000_000 and mid.errors >= 100
        assert high.bits == 2_000_000 and high.errors < 100
        full = simulate.BATCH_BITS
        discarded = [sent[si] - math.ceil(p.bits / full)
                     for si, p in enumerate(points)]
        assert max(discarded) <= 3 - 1
        assert discarded[1] > 0
        # the count of a discarded batch is never asked for, so run inline
        # it is never computed
        assert [run[si] for si in range(3)] == [math.ceil(p.bits / full)
                                                for p in points]

    def test_counts_consistent(self):
        cfg = self.small_config(SchemeConfig("single", ArrayGeometry(1, 1)))
        point = run_ber(cfg).points[0]
        assert point.errors <= point.bits
        assert point.ber == point.errors / point.bits
        assert point.bits >= 100_000
        assert point.ci95 == pytest.approx(
            1.96 * math.sqrt(point.ber * (1 - point.ber) / point.bits))

    def test_single_awgn_matches_q_function(self):
        cfg = self.small_config(SchemeConfig("single", ArrayGeometry(1, 1)),
                                snr=(4.0, 6.79))
        for p in run_ber(cfg).points:
            assert abs(p.ber - awgn_qpsk_ber(p.eb_n0_db)) <= 3 * p.ci95

    def test_cbf_coincides_with_single_antenna(self):
        cbf = run_ber(self.small_config(SchemeConfig("cbf", GEOM, beams=BEAMS),
                                        angles=(math.radians(30),)))
        single = run_ber(self.small_config(SchemeConfig("single", ArrayGeometry(1, 1))))
        a, b = cbf.points[0], single.points[0]
        assert abs(a.ber - b.ber) <= 3 * math.hypot(a.ci95, b.ci95)

    def test_rbf_inferior_at_mid_snr(self):
        rbf = run_ber(self.small_config(SchemeConfig("rbf", GEOM), snr=(8.0,)))
        cbf = run_ber(self.small_config(SchemeConfig("cbf", GEOM, beams=BEAMS),
                                        snr=(8.0,)))
        assert rbf.points[0].ber > cbf.points[0].ber

    def test_stops_at_max_bits_when_errors_scarce(self):
        cfg = SimConfig(scheme=SchemeConfig("single", ArrayGeometry(1, 1)),
                        channel="awgn", angles=(0.0,), snr_db=(12.0,),
                        min_bits=10_000, target_errors=10_000,
                        max_bits=20_000, seed=3)
        point = run_ber(cfg).points[0]
        assert point.bits <= 20_000
        assert point.errors < 10_000

    def test_equal_min_and_max_bits_is_exact(self):
        # a point never exceeds max_bits; with 12-bit rbf blocks, 9,996 bits
        # is the most that fits in whole blocks, and a 10,004-bit batch draws
        # 1,251 random bytes and uses all but 4 of their bits
        for scheme, cap, bits in (
            (SchemeConfig("single", ArrayGeometry(1, 1)), 10_000, 10_000),
            (SchemeConfig("single", ArrayGeometry(1, 1)), 10_004, 10_004),
            (SchemeConfig("cbf", GEOM, beams=BEAMS), 10_000, 10_000),
            (SchemeConfig("rbf", GEOM, rbf_block_symbols=6), 10_000, 9_996),
        ):
            cfg = SimConfig(scheme=scheme, channel="awgn", angles=(0.0,),
                            snr_db=(4.0,), min_bits=cap, target_errors=0,
                            max_bits=cap, seed=3)
            assert run_ber(cfg).points[0].bits == bits

    def test_lattice_ordering(self):
        cfg = SimConfig(scheme=SchemeConfig("single", ArrayGeometry(1, 1)),
                        channel="awgn", angles=(0.0, 0.5), snr_db=(2.0, 4.0),
                        min_bits=10_000, target_errors=0, seed=1)
        pts = run_ber(cfg).points
        assert [(p.angle, p.eb_n0_db) for p in pts] == [
            (0.0, 2.0), (0.0, 4.0), (0.5, 2.0), (0.5, 4.0)]


class TestClopperPearson:
    @pytest.mark.parametrize("k, n", [
        (1, 10), (9, 10), (10, 10), (1, 100_000), (3, 100_000), (3_000, 100_000),
        (200, 1_000_000), (2, 8_000_000), (40, 7_000_000)])
    def test_ends_have_two_and_a_half_percent_tails(self, k, n):
        # the defining property, against a term-by-term binomial sum; the
        # ends are solved to about 1e-9 relative
        lo, hi = simulate._clopper_pearson(k, n)
        assert 0 < lo < k / n
        assert 1 - binomial_cdf(k - 1, n, lo) == pytest.approx(0.025, rel=1e-8)
        if k < n:
            assert binomial_cdf(k, n, hi) == pytest.approx(0.025, rel=1e-8)
        else:
            assert hi == 1.0

    def test_zero_error_point_is_not_certain(self):
        # Wald's half-width is 0 here; the exact upper end is 1 - 0.025^(1/n)
        point = run_ber(SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)),
                                  "awgn", (0.0,), (14.0,), min_bits=200_000,
                                  max_bits=200_000, target_errors=0, seed=1)).points[0]
        assert (point.errors, point.ci95, point.ci_lo) == (0, 0.0, 0.0)
        assert point.ci_hi == pytest.approx(1.84e-5, rel=3e-3)
        assert point.ci_hi == pytest.approx(-math.expm1(math.log(0.025) / 200_000),
                                            rel=1e-9)

    def test_covers_rare_errors_where_wald_cannot(self):
        # at p = 1e-5 and n = 1e5 a count is 0 with probability e^-1, and
        # Wald's interval then excludes p, so Wald covers at most about 63%
        p, n = 1e-5, 100_000
        counts = np.random.default_rng(61).binomial(n, p, 400).tolist()
        cp = [lo <= p <= hi for lo, hi in map(simulate._clopper_pearson,
                                               counts, [n] * len(counts))]
        wald = [abs(k / n - p) <= 1.96 * math.sqrt(k / n * (1 - k / n) / n)
                for k in counts]
        assert np.mean(cp) >= 0.95
        assert np.mean(wald) <= 1 - counts.count(0) / len(counts) <= 0.7

    def test_near_all_errors_mirrors_few_errors(self, monkeypatch):
        # past k = n/2 the interval is the mirror of n - k errors' interval,
        # whose ends converge in a few steps; solved directly, the lower end
        # of (12465700, 12465703) runs to its 100-step cap
        calls = []
        beta_cdf = simulate._beta_cdf
        monkeypatch.setattr(simulate, "_beta_cdf",
                            lambda *args: calls.append(args) or beta_cdf(*args))
        k, n = 12_465_700, 12_465_703
        lo, hi = simulate._clopper_pearson(k, n)
        assert len(calls) <= 15
        assert lo < k / n < hi
        for k, n in ((k, n), (9, 10), (10, 10), (60_000, 100_000)):
            lo, hi = simulate._clopper_pearson(k, n)
            mirror_lo, mirror_hi = simulate._clopper_pearson(n - k, n)
            assert (lo, hi) == (1.0 - mirror_hi, 1.0 - mirror_lo)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_error_reaches_the_caller(pool_sizes, monkeypatch, capsys, tmp_path,
                                        workers):
    # every batch breaks the power budget, in whichever process runs it: the
    # error reaches run_ber's caller, and the CLI reports it on one line
    monkeypatch.setattr(simulate, "POWER_TOL", -1.0)
    with pytest.raises(RuntimeError, match="transmit power budget violated"):
        run_ber(SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)), "awgn",
                          (0.0,), (4.0,), min_bits=400_000, seed=1,
                          workers=workers))
    code = main(["ber", "--scheme", "single", "--snr-db", "4", "--angles", "0",
                 "--min-bits", "400000", "--workers", str(workers),
                 "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: transmit power budget violated")
    assert not (tmp_path / "e.ber.csv").exists()
    assert pool_sizes == ([] if workers == 1 else [2, 2])
    assert_no_child_processes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_ber forks its pool workers")
def test_worker_death_fails_the_campaign(pool_sizes, monkeypatch, capsys, tmp_path):
    # a worker that dies on its batch 2 ends the campaign with an error, not a
    # hang, and no worker outlives it
    parent, run_batch = os.getpid(), simulate._run_batch

    def die_on_batch_2(config, ai, si, batch):
        if batch == 2 and os.getpid() != parent:
            os._exit(3)
        return run_batch(config, ai, si, batch)

    monkeypatch.setattr(simulate, "_run_batch", die_on_batch_2)
    with pytest.raises(RuntimeError, match="worker process died"):
        run_ber(SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)), "awgn",
                          (0.0,), (4.0,), min_bits=1_000_000, seed=1, workers=2))
    assert_no_child_processes()
    code = main(["ber", "--scheme", "single", "--snr-db", "4", "--angles", "0",
                 "--min-bits", "1000000", "--workers", "2", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and err == ["error: a BER worker process died"]
    assert not list(tmp_path.iterdir())
    assert pool_sizes == [2, 2]
    assert_no_child_processes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_ber forks its pool workers")
def test_interrupt_in_the_parent_reaps_the_workers(pool_sizes, monkeypatch):
    # an interrupt in the parent's third wait for answers, with batches still
    # written ahead to the workers, ends the campaign; every worker is reaped
    real_poll = select.poll

    class InterruptedPoll:
        def __init__(self):
            self.inner, self.waits = real_poll(), 0

        def register(self, *args):
            self.inner.register(*args)

        def poll(self):
            self.waits += 1
            if self.waits == 3:
                raise KeyboardInterrupt
            return self.inner.poll()

    monkeypatch.setattr(select, "poll", InterruptedPoll)
    with pytest.raises(KeyboardInterrupt):
        run_ber(SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)), "awgn",
                          (0.0, 0.5), (4.0,), min_bits=1_000_000, seed=1, workers=2))
    assert pool_sizes == [2]
    assert_no_child_processes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_ber forks its pool workers")
def test_pool_hears_workers_on_descriptors_past_fd_setsize(pool_sizes):
    # with 1,100 descriptors already open the pool's pipes are numbered past
    # 1,024, which select.select cannot watch
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1200:
        pytest.skip("fewer than 1,200 descriptors allowed")
    config = SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)), "awgn", (0.0,), (4.0,),
                       min_bits=600_000, max_bits=600_000, target_errors=0, seed=1)
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 1200), hard))
    held = []
    try:
        held += (os.open(os.devnull, os.O_RDONLY) for _ in range(1100))
        pooled = run_ber(dataclasses.replace(config, workers=2))
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert max(held) >= 1024
    assert pooled == run_ber(dataclasses.replace(config, workers=1))
    assert pool_sizes == [2]
    assert_no_child_processes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_ber forks its pool workers")
def test_keys_written_ahead_stay_bounded(pool_sizes, monkeypatch, tmp_path):
    # 3,000 one-batch points: their 24-byte keys, all sent at once, are more
    # than one 64 KiB pipe holds, yet no worker is ever written more than
    # _AHEAD keys it has not answered, and the CSV is the one-worker CSV.
    # _run_pool opens each worker's key pipe, then its answer pipe.
    parent, pipes, written, answered = os.getpid(), [], collections.Counter(), collections.Counter()
    real_pipe, real_write, real_load = os.pipe, os.write, pickle.load

    def spy_pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def spy_write(fd, data):
        if os.getpid() == parent:
            written[fd] += 1
            k = [w for _, w in pipes[0::2]].index(fd)
            assert written[fd] - answered[pipes[2 * k + 1][0]] <= simulate._AHEAD
        return real_write(fd, data)

    def spy_load(file):
        answered[file.fileno()] += 1
        return real_load(file)

    monkeypatch.setattr(os, "pipe", spy_pipe)
    monkeypatch.setattr(os, "write", spy_write)
    monkeypatch.setattr(pickle, "load", spy_load)
    angles = ",".join(str(a) for a in range(-87, 88, 6))
    common = ["ber", "--scheme", "single", "--snr-db", "0:0.1:9.9", f"--angles={angles}",
              "--min-bits", "10000", "--max-bits", "10000"]
    for workers in ("1", "2"):
        assert main(common + ["--workers", workers, "--out", str(tmp_path / workers)]) == 0
    assert sum(written.values()) == 3000 > (64 << 10) // simulate._KEY.size
    assert sum(answered.values()) == 3000
    assert pool_sizes == [2]
    assert ((tmp_path / "1.ber.csv").read_bytes() == (tmp_path / "2.ber.csv").read_bytes())
    assert_no_child_processes()


@pytest.mark.skipif(not (sys.platform.startswith("linux") and hasattr(os, "fork")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="tunes glibc's allocator in forked pool workers")
def test_pool_workers_reuse_batch_memory(pool_sizes):
    # a worker keeps freed batch arrays on its heap, so a batch beyond the
    # first few costs next to no page faults; when glibc unmaps every freed
    # array, each 200k-bit cbf batch re-faults about 1,900 pages
    def worker_faults(batches):
        bits = batches * simulate.BATCH_BITS
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        run_ber(SimConfig(SchemeConfig("cbf", GEOM, beams=BEAMS), "awgn",
                          (0.0,), (4.0,), min_bits=bits, max_bits=bits,
                          target_errors=0, seed=9, workers=2))
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    batches = 10
    extra = worker_faults(2 * batches) - worker_faults(batches)
    assert pool_sizes == [2, 2]
    assert extra / batches < 200


WARM_FORK = textwrap.dedent("""
    import sys

    from cbfsim import simulate
    from cbfsim.arrays import ArrayGeometry

    seen = []
    run_pool = simulate._run_pool

    def spy_pool(config, procs):
        seen.append("numpy.random" in sys.modules)
        return run_pool(config, procs)

    simulate._run_pool = spy_pool
    simulate._available_cpus = lambda: 2
    simulate.run_ber(simulate.SimConfig(
        simulate.SchemeConfig("rbf", ArrayGeometry(8, 1)), "awgn", (0.0,), (10.0,),
        min_bits=400_000, max_bits=400_000, target_errors=0, workers=2))
    print(seen)
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_ber forks its pool workers")
def test_pool_workers_fork_with_numpy_random_loaded():
    # numpy loads numpy.random lazily; loaded before the pool forks, it is
    # inherited rather than imported again by every worker on its first batch
    src = str(Path(cbfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", WARM_FORK], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[True]"]


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="tunes glibc's allocator in the ber command's process")
def test_inline_campaign_reuses_batch_memory(tmp_path):
    # with one worker the ber command runs every batch in its own process,
    # which keeps freed batch arrays on its heap as a pool worker does
    src = str(Path(cbfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def command_faults(batches):
        bits = str(batches * simulate.BATCH_BITS)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "cbfsim.cli", "ber", "--scheme", "cbf",
                        "--snr-db", "4", "--angles", "0", "--min-bits", bits,
                        "--max-bits", bits, "--target-errors", "0", "--workers", "1",
                        "--out", str(tmp_path / "run")],
                       check=True, env=env, capture_output=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    batches = 10
    extra = command_faults(2 * batches) - command_faults(batches)
    assert extra / batches < 200


@pytest.mark.parametrize("min_bits, target_errors",
                         [(100_000, 200), (1_000_000, 200), (100_000, 20)])
def test_clopper_pearson_coverage_under_the_stopping_rule(min_bits, target_errors):
    # stopping at target_errors makes a point's bit count random, so the
    # exact interval's coverage is only approximate (Haldane 1945).  The
    # scheduler folds seeded Binomial(batch, p) counts at 4,000 known rates,
    # and each end of the 95% interval may miss p at most 2.5% plus four
    # binomial standard errors of a 4,000-point rate: 3.49%.
    cfg = SimConfig(SchemeConfig("single", ArrayGeometry(1, 1)), "awgn",
                    tuple(np.linspace(-1.5, 1.5, 40)), tuple(np.linspace(0, 9.9, 100)),
                    min_bits=min_bits, target_errors=target_errors, workers=1)
    p = np.geomspace(3e-4, 1e-2, 4000).reshape(40, 100)
    full, _ = simulate._point_bits(cfg)

    def submit(ai, si, batch):
        rng = np.random.default_rng([min_bits, target_errors, ai, si, batch])
        return partial(int, rng.binomial(full, p[ai, si]))

    points = simulate._schedule(cfg, 1, submit)
    lo, hi = (np.array([getattr(pt, end) for pt in points]) for end in ("ci_lo", "ci_hi"))
    bound = 0.025 + 4 * math.sqrt(0.025 * 0.975 / p.size)
    assert round(bound, 4) == 0.0349
    assert np.mean(p.ravel() < lo) <= bound
    assert np.mean(p.ravel() > hi) <= bound
