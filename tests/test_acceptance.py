"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and prints one
pass/fail line.  Run `pytest tests/test_acceptance.py -v -s` to watch the
lines as the criteria execute; all randomness is seeded, so outcomes are
reproducible run to run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cbfsim.arrays import (
    AngleGrid,
    ArrayGeometry,
    gain_power,
    subarray_gains,
)
from cbfsim.beams import find_complementary_set, phase_levels
from cbfsim.channel import awgn_qpsk_ber, rayleigh_qpsk_ber
from cbfsim.cli import main
from cbfsim.simulate import (
    DEFAULT_ANGLES_DEG,
    CbfSignal,
    SchemeConfig,
    SimConfig,
    run_ber,
)
from oracles import (alamouti_encode, composite_channel, fallback_pattern,
                     mmse_decode, rbf_qpsk_ber, receive)

SEED = 20260810

ISOTROPY_TOL = 1e-10
GRAM_TOL = 1e-12
ZF_TOL = 1e-9
FALLBACK_TOL = 1e-12
CI_MULTIPLE = 3.0


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def default_cbf_scheme():
    geometry = ArrayGeometry(8, 2)
    beams = find_complementary_set(geometry, 2,
                                   AngleGrid.uniform_theta(512), "golay")
    return SchemeConfig("cbf", geometry, beams=beams)


def test_criterion_1_isotropy():
    grid = AngleGrid.uniform_theta(4096)

    t0 = time.perf_counter()
    golay = find_complementary_set(ArrayGeometry(16, 2), 2,
                                   grid, "golay")
    golay_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    exhaustive = find_complementary_set(ArrayGeometry(4, 2), 2,
                                        grid, "exhaustive")
    exhaustive_elapsed = time.perf_counter() - t0

    ok = (golay.variance <= ISOTROPY_TOL and exhaustive.variance <= ISOTROPY_TOL
          and golay_elapsed < 1.0 and exhaustive_elapsed < 10.0)
    report(1, "isotropy", ok,
           f"golay var={golay.variance:.2e} in {golay_elapsed:.2f}s, "
           f"exhaustive var={exhaustive.variance:.2e} in {exhaustive_elapsed:.2f}s")
    assert golay.variance <= ISOTROPY_TOL
    assert exhaustive.variance <= ISOTROPY_TOL
    assert golay_elapsed < 1.0
    assert exhaustive_elapsed < 10.0


def _brute_force_pair_minimum(geometry, k, grid):
    """Oracle: enumerate every raw pair, no symmetry reduction at all, and
    score it with a beam set's variance arithmetic on member power tables."""
    ns = geometry.subarray_size
    coeffs = phase_levels(k)
    powers = [{}, {}]

    def power(member, idx):
        if idx not in powers[member]:
            powers[member][idx] = gain_power(subarray_gains(
                coeffs[list(idx)], geometry, member, grid.points))
        return powers[member][idx]

    best = math.inf
    for t1 in itertools.product(range(k), repeat=ns):
        p1 = power(0, t1)
        for t2 in itertools.product(range(k), repeat=ns):
            var = float(np.mean([p1, power(1, t2)], axis=0).var())
            if var < best:
                best = var
    return best


def test_criterion_2_brute_force_equivalence():
    grid = AngleGrid.uniform_theta(512)
    t0 = time.perf_counter()
    results = []
    for ns, k in ((2, 2), (2, 4), (3, 2)):
        geometry = ArrayGeometry(2 * ns, 2)
        found = find_complementary_set(geometry, k, grid, "exhaustive")
        oracle = _brute_force_pair_minimum(geometry, k, grid)
        results.append((ns, k, found.variance, oracle))
    elapsed = time.perf_counter() - t0
    ok = all(f == o for _, _, f, o in results) and elapsed < 60.0
    detail = "; ".join(f"Ns={ns},K={k}: {'==' if f == o else '!='}"
                       for ns, k, f, o in results)
    report(2, "brute-force equivalence", ok, f"{detail}; {elapsed:.1f}s")
    for ns, k, found_var, oracle_var in results:
        assert found_var == oracle_var, (ns, k, found_var, oracle_var)
    assert elapsed < 60.0


# Criteria 3, 5, 6 and 9 are statistical: each runs at two seeds, so that a
# change to the random streams is judged on more than one draw.
SEEDS = (SEED, SEED + 1)


def test_criterion_3_cbf_matches_single_antenna_oracle():
    t0 = time.perf_counter()
    points = []
    for seed in SEEDS:
        config = SimConfig(
            scheme=default_cbf_scheme(),
            channel="awgn",
            angles=(0.0, math.radians(30.0), math.radians(60.0)),
            snr_db=(4.0, 6.0, 8.0),
            min_bits=1_000_000,
            seed=seed,
        )
        points += [(seed, p) for p in run_ber(config).points]
    elapsed = time.perf_counter() - t0
    worst = max(abs(p.ber - awgn_qpsk_ber(p.eb_n0_db)) / p.ci95 for _, p in points)
    ok = worst <= CI_MULTIPLE and elapsed < 300.0
    report(3, "cbf equals single-antenna AWGN oracle", ok,
           f"worst |ber-Q|/ci95={worst:.2f} over {len(points)} points at seeds "
           f"{SEEDS}, {elapsed:.0f}s")
    for seed, p in points:
        assert abs(p.ber - awgn_qpsk_ber(p.eb_n0_db)) <= CI_MULTIPLE * p.ci95, seed
    assert elapsed < 300.0


def test_criterion_4_angle_invariance():
    config = SimConfig(
        scheme=default_cbf_scheme(),
        channel="awgn",
        angles=tuple(math.radians(a) for a in DEFAULT_ANGLES_DEG),
        snr_db=(4.0, 8.0),
        min_bits=200_000,
        seed=SEED,
    )
    curve = run_ber(config)
    worst = 0.0
    for snr in config.snr_db:
        at_snr = [p for p in curve.points if p.eb_n0_db == snr]
        for a, b in itertools.combinations(at_snr, 2):
            combined = math.hypot(a.ci95, b.ci95)
            worst = max(worst, abs(a.ber - b.ber) / combined)
    ok = worst <= CI_MULTIPLE
    report(4, "angle invariance", ok,
           f"worst pairwise |dBER|/combined-ci={worst:.2f} across "
           f"{len(DEFAULT_ANGLES_DEG)} angles x {len(config.snr_db)} SNRs")
    assert worst <= CI_MULTIPLE


def test_criterion_5_rbf_inferior_in_awgn():
    geometry = ArrayGeometry(8, 2)
    results = []
    for seed in SEEDS:
        common = dict(channel="awgn", angles=(0.0,), snr_db=(8.0,),
                      min_bits=1_000_000, seed=seed)
        rbf = run_ber(SimConfig(scheme=SchemeConfig("rbf", geometry), **common)).points[0]
        cbf = run_ber(SimConfig(scheme=default_cbf_scheme(), **common)).points[0]
        results.append((seed, rbf, cbf, rbf.ber - rbf.ci95 > cbf.ber + cbf.ci95))
    report(5, "rbf inferiority", all(sep for *_, sep in results), "; ".join(
        f"seed {seed}: rbf={rbf.ber:.3g}+/-{rbf.ci95:.1g}, "
        f"cbf={cbf.ber:.3g}+/-{cbf.ci95:.1g}" for seed, rbf, cbf, _ in results))
    for seed, rbf, cbf, separated in results:
        assert rbf.ber > cbf.ber, seed
        assert separated, seed


def test_criterion_6_rayleigh_oracle():
    t0 = time.perf_counter()
    formula_10db = rayleigh_qpsk_ber(10.0)
    assert formula_10db == pytest.approx(0.02327, abs=5e-6)
    worst = 0.0
    for seed in SEEDS:
        for scheme in (default_cbf_scheme(), SchemeConfig("single", ArrayGeometry(1, 1))):
            config = SimConfig(scheme=scheme, channel="rayleigh", angles=(0.0,),
                               snr_db=(5.0, 10.0, 15.0), min_bits=1_000_000,
                               seed=seed, equal_subarrays=True)
            for p in run_ber(config).points:
                worst = max(worst, abs(p.ber - rayleigh_qpsk_ber(p.eb_n0_db)) / p.ci95)
    elapsed = time.perf_counter() - t0
    ok = worst <= CI_MULTIPLE and elapsed < 300.0
    report(6, "rayleigh oracle", ok,
           f"worst |ber-formula|/ci95={worst:.2f} at seeds {SEEDS}, "
           f"formula(10dB)={formula_10db:.5f}, {elapsed:.0f}s")
    assert worst <= CI_MULTIPLE
    assert elapsed < 300.0


def test_criterion_7_stbc_property_suite():
    rng = np.random.default_rng(SEED)

    def draw(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    worst_gram = 0.0
    worst_zf = 0.0
    worst_streams = 0.0
    for _ in range(10_000):
        s1, s2, g1, g2, h1, h2 = draw(6)
        channel = composite_channel(g1, g2, h1, h2)
        rho = abs(g1 * h1) ** 2 + abs(g2 * h2) ** 2
        gram = channel.conj().T @ channel
        worst_gram = max(worst_gram,
                         np.max(np.abs(gram - rho * np.eye(2))) / max(1.0, rho))
        y = receive(alamouti_encode(s1, s2), g1, g2, h1, h2)
        estimate = mmse_decode(y, channel, 0.0)
        worst_zf = max(worst_zf, float(np.max(np.abs(estimate - [s1, s2]))))
        # the vectorised decoder the simulator runs, against the matrix oracle
        streams = CbfSignal(*(np.array([v]) for v in (*y, g1 * h1, g2 * h2)),
                            energy_per_period=0.0).decode(0.0)
        worst_streams = max(worst_streams,
                            float(np.max(np.abs(streams - estimate))))

    geometry = ArrayGeometry(8, 2)
    grid = AngleGrid.uniform_theta(512)
    worst_fallback = 0.0
    for _ in range(1_000):
        w1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        w2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        combined = fallback_pattern(w1, w2, geometry, grid)
        total = (subarray_gains(w1, geometry, 0, grid.points)
                 + subarray_gains(w2, geometry, 1, grid.points))
        worst_fallback = max(worst_fallback, float(np.max(np.abs(combined - total))))

    ok = (worst_gram <= GRAM_TOL and worst_zf <= ZF_TOL
          and worst_streams <= ZF_TOL and worst_fallback <= FALLBACK_TOL)
    report(7, "stbc property suite", ok,
           f"gram dev={worst_gram:.1e}, zf dev={worst_zf:.1e}, "
           f"streams vs oracle dev={worst_streams:.1e}, "
           f"fallback dev={worst_fallback:.1e}")
    assert worst_gram <= GRAM_TOL
    assert worst_zf <= ZF_TOL
    assert worst_streams <= ZF_TOL
    assert worst_fallback <= FALLBACK_TOL


def test_criterion_8_byte_identical_reruns(tmp_path):
    args = ["ber", "--scheme", "cbf", "--channel", "awgn", "--snr-db", "2:2:6",
            "--angles", "0,30", "--min-bits", "20000", "--target-errors", "50",
            "--seed", str(SEED), "--workers", "1"]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first.ber.csv").read_bytes()
    second = (tmp_path / "second.ber.csv").read_bytes()
    ok = first == second and len(first) > 0
    report(8, "determinism", ok, f"{len(first)} bytes, identical={first == second}")
    assert first == second


def test_criterion_9_rbf_semi_analytic_oracle():
    # two-sided, where criterion 5 only orders rbf and cbf; sharp enough to
    # tell rbf/awgn at 4 dB (0.0741) from the Rayleigh curve (0.0771)
    geometry = ArrayGeometry(8, 1)
    results = []
    for channel, snr_db in (("awgn", 4.0), ("rayleigh", 10.0)):
        expected = rbf_qpsk_ber(snr_db, geometry.total_elements, channel)
        for seed in SEEDS:
            config = SimConfig(scheme=SchemeConfig("rbf", geometry), channel=channel,
                               angles=(0.0,), snr_db=(snr_db,), min_bits=2_000_000,
                               max_bits=2_000_000, target_errors=0, seed=seed)
            p = run_ber(config).points[0]
            results.append((channel, seed, p, expected))
    worst = max(abs(p.ber - e) / p.ci95 for _, _, p, e in results)
    ok = worst <= CI_MULTIPLE
    report(9, "rbf semi-analytic oracle", ok,
           f"worst |ber-oracle|/ci95={worst:.2f}; " + "; ".join(
               f"{c} seed {s}: {p.ber:.5f} vs {e:.5f}" for c, s, p, e in results))
    for channel, seed, p, expected in results:
        assert abs(p.ber - expected) <= CI_MULTIPLE * p.ci95, (channel, seed)
