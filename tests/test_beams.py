"""Unit tests for complementary beam search and its helper constructions."""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cbfsim import beams, climb
from cbfsim.arrays import (
    AngleGrid,
    ArrayGeometry,
    _autocorrelation_form,
    gain_power,
    subarray_gains,
)
from cbfsim.beams import (
    ComplementaryBeamSet,
    SearchCapacityError,
    SearchMeta,
    find_complementary_set,
    _lag_features,
    golay_construct,
    phase_levels,
)
from oracles import sequential_climb, uniform_psi_grid

GRID = AngleGrid.uniform_theta(512)


def composite_variance(powers):
    """A beam set's variance arithmetic on member power tables."""
    return float(np.mean(powers, axis=0).var())


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``tracemalloc`` sees while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def power_table(geometry, accuracy, grid, m, idx):
    """|gain|^2 of phase-index vector idx on sub-array m, one vector a call."""
    return gain_power(subarray_gains(phase_levels(accuracy)[list(idx)], geometry, m,
                                     grid.points))


def power_tables(geometry, accuracy, grid, vectors):
    """|gain|^2 of every phase-index vector on every sub-array."""
    return {(m, idx): power_table(geometry, accuracy, grid, m, idx)
            for m in range(geometry.num_subarrays) for idx in vectors}


def cached_power(geometry, accuracy, grid):
    """power(m, idx): power_table memoized, the climb oracles' member tables,
    built apart from the exact scorer's cache that the searches use."""
    table = functools.cache(lambda m, idx: power_table(geometry, accuracy, grid, m, idx))
    return lambda m, idx: table(m, tuple(idx))


def brute_force_minimum(geometry, accuracy, grid, group_size=2):
    """Independent oracle: scan every raw weight tuple, no symmetry reduction."""
    vectors = list(itertools.product(range(accuracy),
                                     repeat=geometry.subarray_size))
    power = power_tables(geometry, accuracy, grid, vectors)
    return min(composite_variance([power[m, idx] for m, idx in enumerate(combo)])
               for combo in itertools.product(vectors, repeat=group_size))


class CountingGenerator(np.random.Generator):
    """A seed's generator that counts its ``integers`` calls: one per member
    of each restart's start state."""

    draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return super().integers(*args, **kwargs)


def restarts_spend(geometry, accuracy, seed, restarts, lo=1):
    """Evaluations the sequential climb spends on its first ``restarts``
    restarts: the largest budget under which it draws no more start states,
    searched upwards from a budget lo that draws no more either."""
    form = _autocorrelation_form(geometry, GRID)
    power = cached_power(geometry, accuracy, GRID)

    def drawn(budget):
        rng = CountingGenerator(np.random.PCG64(seed))
        sequential_climb(geometry, phase_levels(accuracy), rng, budget, form, power)
        return rng.draws // geometry.num_subarrays

    hi = 2 * lo
    while drawn(hi) <= restarts:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:          # drawn(lo) <= restarts < drawn(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if drawn(mid) <= restarts else (lo, mid)
    return lo


class TestPhaseCodebook:
    def test_coefficients_k4_are_exact(self):
        assert np.array_equal(phase_levels(4), np.array([1, 1j, -1, -1j]))

    @pytest.mark.parametrize("accuracy", [1, 2, 3, 4, 5, 8, 12, 360, 4096])
    def test_quarter_turns_are_exact_bit_patterns(self, accuracy):
        # compared as bit patterns, so that a -0.0 real part (Python's -1j)
        # shows: quarter turns are exactly 1, j, -1, -j and every other level
        # is exp(2j*pi*k/K)
        expected = np.exp(2j * np.pi * np.arange(accuracy) / accuracy)
        for turns, level in enumerate([1, 1j, -1, complex(0, -1)]):
            if turns * accuracy % 4 == 0:
                expected[turns * accuracy // 4] = level
        coeffs = phase_levels(accuracy)
        assert np.array_equal(coeffs.view(np.uint64), expected.view(np.uint64))

    def test_coefficients_are_distinct_unit_modulus(self):
        levels = phase_levels(5)
        assert len(set(levels.tolist())) == 5
        assert np.max(np.abs(np.abs(levels) - 1.0)) < 1e-12
        assert levels[0] == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            phase_levels(0)
        for method in ("exhaustive", "golay", "stochastic"):
            with pytest.raises(ValueError, match="K must be >= 1"):
                find_complementary_set(ArrayGeometry(4, 2), 0, GRID, method)


class TestGolayConstruct:
    def test_length_one(self):
        a, b = golay_construct(1)
        assert np.array_equal(a, [1.0])
        assert np.array_equal(b, [1.0])

    def test_length_two(self):
        a, b = golay_construct(2)
        assert np.array_equal(a, [1.0, 1.0])
        assert np.array_equal(b, [1.0, -1.0])

    def test_autocorrelation_sums_to_delta(self):
        # exact integer oracle: aperiodic autocorrelations of the pair sum to
        # 2*N at lag zero and to 0 elsewhere
        for n in (2, 4, 8, 16):
            a, b = golay_construct(n)
            ra = np.correlate(a.real, a.real, "full")
            rb = np.correlate(b.real, b.real, "full")
            total = ra + rb
            expected = np.zeros(2 * n - 1)
            expected[n - 1] = 2 * n
            assert np.array_equal(total, expected)

    def test_flat_power_sum_on_dense_grid(self):
        n = 8
        a, b = golay_construct(n)
        psi = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        basis = np.exp(-1j * np.outer(psi, np.arange(n)))
        total = np.abs(basis @ a) ** 2 + np.abs(basis @ b) ** 2
        assert np.max(np.abs(total - 2 * n)) < 1e-9 * n

    def test_composite_variance_is_tiny(self):
        geom = ArrayGeometry(16, 2)
        a, b = golay_construct(8)
        grid = AngleGrid.uniform_theta(4096)
        beams = ComplementaryBeamSet(geom, (a, b), grid, SearchMeta("golay", 1))
        assert beams.variance < 1e-12

    def test_unsupported_length(self):
        for n in (3, 6, 12):
            with pytest.raises(ValueError):
                golay_construct(n)


class TestFindComplementaryPair:
    def test_trivial_single_elements(self):
        found = find_complementary_set(ArrayGeometry(2, 2), 1,
                                       GRID, "exhaustive")
        assert np.array_equal(found.weights[0], [1.0])
        assert np.array_equal(found.weights[1], [1.0])
        assert found.variance == pytest.approx(0.0, abs=1e-15)

    def test_exhaustive_matches_brute_force_exactly(self):
        geom = ArrayGeometry(4, 2)
        found = find_complementary_set(geom, 2, GRID, "exhaustive")
        oracle = brute_force_minimum(geom, 2, GRID)
        assert found.variance == oracle
        assert found.variance < 1e-12

    def test_exhaustive_pair_is_complementary_class(self):
        # minimum of 0 is achieved by ([1,1],[1,-1]) up to symmetry
        found = find_complementary_set(ArrayGeometry(4, 2), 2,
                                       GRID, "exhaustive")
        mags = sorted(tuple(np.sign(w.real).astype(int)) for w in found.weights)
        assert mags == [(1, -1), (1, 1)]

    def test_golay_method_zero_variance(self):
        geom = ArrayGeometry(16, 2)
        found = find_complementary_set(geom, 2, GRID, "golay")
        assert found.variance <= 1e-10
        assert found.meta.method == "golay"

    @pytest.mark.parametrize("read", ["variance", "member_powers"])
    def test_golay_set_builds_no_table_until_read(self, monkeypatch, read):
        # a cbf campaign's default pair reads neither its tables nor its
        # variance, so building the set computes neither; the first read
        # builds one table per member, and the variance is numpy's var of
        # the composite, bit for bit
        members = []
        monkeypatch.setattr(beams, "subarray_gains", lambda w, geom, m, angles: (
            members.append(m) or subarray_gains(w, geom, m, angles)))
        found = find_complementary_set(ArrayGeometry(16, 2), 2, GRID, "golay")
        assert members == []
        getattr(found, read)
        assert members == [0, 1]
        assert found.variance.hex() == float(found.composite_power.var()).hex()
        assert members == [0, 1]

    def test_golay_unsupported_length(self):
        with pytest.raises(ValueError):
            find_complementary_set(ArrayGeometry(6, 2), 2,
                                   GRID, "golay")

    def test_capacity_ceiling_named_in_error(self):
        geom = ArrayGeometry(16, 2)
        with pytest.raises(SearchCapacityError, match="1000"):
            find_complementary_set(geom, 4, GRID, "exhaustive",
                                   candidate_ceiling=1000)

    def test_capacity_checked_before_anything_is_built(self):
        # a million levels and their screen would take about 38 MiB
        def over_ceiling():
            with pytest.raises(SearchCapacityError, match=f"{10 ** 12} candidate pairs"):
                find_complementary_set(ArrayGeometry(4, 2), 10 ** 6, GRID, "exhaustive")
        assert traced_peak(over_ceiling) < 2 ** 20

    @pytest.mark.parametrize("accuracy", [1, 3, 5])
    def test_golay_needs_even_k(self, accuracy):
        # its weights of -1 are a level of K only when K is even
        with pytest.raises(ValueError, match=f"even K, got K={accuracy}$"):
            find_complementary_set(ArrayGeometry(8, 2), accuracy, GRID, "golay")

    def test_wrong_subarray_count(self):
        for geometry in (ArrayGeometry(4, 1), ArrayGeometry(8, 4)):
            with pytest.raises(ValueError, match="2 or 3 sub-arrays"):
                find_complementary_set(geometry, 2, GRID,
                                       "exhaustive")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            find_complementary_set(ArrayGeometry(4, 2), 2,
                                   GRID, "annealing")

    def test_variance_recomputes_bitwise(self):
        geom = ArrayGeometry(8, 2)
        for method, kwargs in (("exhaustive", {}), ("golay", {}),
                               ("stochastic", {"seed": 5, "budget": 300})):
            found = find_complementary_set(geom, 2, GRID,
                                           method, **kwargs)
            powers = [gain_power(subarray_gains(w, geom, m, GRID.points))
                      for m, w in enumerate(found.weights)]
            assert found.variance == composite_variance(powers)
            assert np.array_equal(found.member_powers, powers)
            assert np.array_equal(found.composite_power, np.mean(powers, axis=0))

    @pytest.mark.parametrize("elements,group_size,accuracy", [
        (4, 2, 2), (6, 3, 2), (8, 2, 2), (8, 2, 4), (9, 3, 2),
    ], ids=["pair", "triple", "pair-8-k2", "pair-8-k4", "triple-9-k2"])
    def test_exhaustive_returns_first_of_ties(self, elements, group_size,
                                              accuracy):
        # scan the leading-phase-reduced candidates in lexicographic order and
        # keep the first strict minimum; the search must return that one
        geom = ArrayGeometry(elements, group_size)
        reduced = [(0,) + s for s in itertools.product(
            range(accuracy), repeat=geom.subarray_size - 1)]
        power = power_tables(geom, accuracy, GRID, reduced)
        scores = [(composite_variance([power[m, idx] for m, idx in enumerate(combo)]),
                   combo)
                  for combo in itertools.product(reduced, repeat=group_size)]
        best_var = min(var for var, _ in scores)
        first = next(combo for var, combo in scores if var == best_var)
        found = find_complementary_set(geom, accuracy, GRID, "exhaustive")
        assert found.phase_indices == first
        assert found.variance == best_var

    @pytest.mark.parametrize("elements, group_size, accuracy, points", [
        (4, 2, 2, 512), (6, 3, 2, 512), (8, 2, 2, 512), (8, 2, 4, 512), (9, 3, 2, 512),
        (6, 2, 3, 512), (6, 3, 3, 512), (14, 2, 2, 512), (12, 3, 3, 512), (12, 2, 2, 2),
    ], ids=["pair", "triple", "pair-8-k2", "pair-8-k4", "triple-9-k2", "pair-k3",
            "triple-k3", "pair-14-k2", "triple-12-k3", "near-ties-2-points"])
    def test_exhaustive_is_block_size_invariant(self, monkeypatch, elements, group_size,
                                                accuracy, points):
        # blocks of 7 floats end mid-table (3 rows of 2 or 2 of 3 vectors) and,
        # on 2 points, mid-run of near-ties (3 groups of 236); the screen only
        # rules candidates out and every near-tie is rescored exactly, so the
        # block sizes cannot move the result
        args = (ArrayGeometry(elements, group_size), accuracy,
                AngleGrid.uniform_theta(points), "exhaustive")
        default = find_complementary_set(*args)
        monkeypatch.setattr(beams, "_SCREEN_BLOCK_FLOATS", 7)
        monkeypatch.setattr(beams, "_RESCORE_BLOCK_FLOATS", 7)
        tiny = find_complementary_set(*args)
        assert tiny.phase_indices == default.phase_indices
        assert tiny.variance.hex() == default.variance.hex()
        assert tiny.meta == default.meta
        assert tiny.meta.candidates == accuracy ** ((elements // group_size - 1)
                                                    * group_size)

    def test_codebook_closure(self):
        found = find_complementary_set(ArrayGeometry(8, 2), 4, GRID,
                                       "stochastic", seed=2, budget=500)
        members = set(phase_levels(4).tolist())
        for w in found.weights:
            assert set(w.tolist()) <= members
        a, b = find_complementary_set(ArrayGeometry(16, 2), 4, GRID, "golay").weights
        assert set(a.tolist()) | set(b.tolist()) <= {1.0 + 0j, -1.0 + 0j}

    def test_stochastic_deterministic_under_seed(self):
        geom = ArrayGeometry(8, 2)
        one = find_complementary_set(geom, 4, GRID, "stochastic", seed=9, budget=400)
        two = find_complementary_set(geom, 4, GRID, "stochastic", seed=9, budget=400)
        assert one.variance == two.variance
        assert one.phase_indices == two.phase_indices
        assert one.meta.seed == 9

    def test_stochastic_monotone_in_budget(self):
        geom = ArrayGeometry(8, 2)
        last = math.inf
        for budget in (50, 200, 800, 3200):
            found = find_complementary_set(geom, 4, GRID, "stochastic",
                                           seed=1234, budget=budget)
            assert found.variance <= last
            last = found.variance

    def test_stochastic_settles_near_ties_exactly(self):
        # an exact tie between the current state and a neighbour is decided by
        # the exact variance, as a pattern-table climb decides it; settling it
        # by the screened score instead ends this climb at variance 0.0107
        found = find_complementary_set(ArrayGeometry(10, 2), 8,
                                       GRID, "stochastic", seed=5, budget=20000)
        assert found.phase_indices == ((0, 7, 0, 3, 6), (0, 1, 0, 5, 2))
        assert found.variance < 1e-20

    @pytest.mark.parametrize("geometry, accuracy, seed, budget, grid", [
        (ArrayGeometry(32, 2), 4, 5, 100_000, GRID),
        (ArrayGeometry(32, 2), 4, 7, 100_000, GRID),
        (ArrayGeometry(24, 3), 3, 2, 10_000, GRID),
        (ArrayGeometry(10, 2), 8, 5, 20_000, GRID),
        (ArrayGeometry(8, 2), 4, 3, 1, GRID),
        (ArrayGeometry(8, 2), 4, 3, "one restart + 1", GRID),
        (ArrayGeometry(8, 2), 4, 3, "inside a block's middle restart", GRID),
        (ArrayGeometry(8, 2), 2, 1, 20_000, AngleGrid.uniform_theta(2)),
        (ArrayGeometry(9, 3), 4, 2, 20_000, AngleGrid.uniform_theta(2)),
        (ArrayGeometry(8, 2), 1000, 3, 3000, GRID),
        (ArrayGeometry(8, 2), 4, 3, 12_345, GRID),
        (ArrayGeometry(16, 2), 4, 3, 20_000, GRID),
        (ArrayGeometry(12, 3), 4, 2, 9000, GRID),
        (ArrayGeometry(8, 2), 4, 3, 200_000, GRID),
        (ArrayGeometry(24, 2), 4, 11, 2000, GRID),
        (ArrayGeometry(15, 3), 3, 6, 4000, GRID),
        (ArrayGeometry(9, 3), 100, 5, 4000, GRID),
    ], ids=["n32-k4-seed5", "n32-k4-seed7", "triple-k3", "near-ties-k8",
            "budget-1", "one-restart-plus-1", "cut-mid-block",
            "exact-ties-2-point-n8-k2", "exact-ties-2-point-triple-k4",
            "k1000-slots-split-over-rounds", "passes-while-earlier-climb-n8",
            "passes-while-earlier-climb-n16", "passes-while-earlier-climb-triple",
            "slots-refilled-many-times", "drained-re-climbs-alone-n24",
            "drained-re-climbs-alone-triple", "k100-sparse-rounds-split-levels"])
    def test_stochastic_matches_sequential_climb(self, geometry, accuracy, seed,
                                                 budget, grid):
        # restarts climbing in lockstep slots, a few moves at a time, return
        # the set and count of the one-restart-at-a-time climb; on a 2-point
        # grid exact ties occur, and the first of them must be kept.  At
        # K=1000 a round scores 16 of a slot's levels, so first improvement
        # must hold across rounds; at the three "passes" budgets the restart
        # that passes the budget ends while earlier restarts still climb and
        # later ones have ended; at 200,000 each slot takes about 30 restarts.
        # In the "drained" cases the other slots have emptied when the restart
        # that passes the budget climbs again, so it climbs alone, a whole
        # sweep a round; at K=100 a round of 21 to 127 climbing restarts gives
        # each 17 to 97 moves, so a widened round still splits a coefficient's
        # levels
        if budget == "one restart + 1":
            budget = restarts_spend(geometry, accuracy, seed, 1) + 1
        elif isinstance(budget, str):
            spent = restarts_spend(geometry, accuracy, seed, climb._CLIMB_BLOCK // 2)
            after = restarts_spend(geometry, accuracy, seed, climb._CLIMB_BLOCK // 2 + 1,
                                   spent)
            budget = (spent + after) // 2
            assert spent < budget < after
        power = cached_power(geometry, accuracy, grid)
        best, meta = sequential_climb(geometry, phase_levels(accuracy), seed, budget,
                                      _autocorrelation_form(geometry, grid), power)
        found = find_complementary_set(geometry, accuracy, grid, "stochastic", seed=seed,
                                       budget=budget)
        assert found.phase_indices == best
        assert found.variance.hex() == composite_variance(
            [power(m, idx) for m, idx in enumerate(best)]).hex()
        assert found.meta == meta and meta.candidates == budget

    @pytest.mark.parametrize("geometry, accuracy, method", [
        (ArrayGeometry(12, 2), 2, "exhaustive"),
        (ArrayGeometry(12, 3), 2, "exhaustive"),
        (ArrayGeometry(16, 2), 4, "stochastic"),
    ], ids=["exhaustive-pair", "exhaustive-triple", "stochastic"])
    def test_one_scorer_decides_every_search(self, geometry, accuracy, method):
        # the returned set's exact score is the beam set's own variance
        found = find_complementary_set(geometry, accuracy, GRID, method, seed=3,
                                       budget=3000)
        score = beams._exact_scorer(geometry, GRID, phase_levels(accuracy))
        (exact,) = score([found.phase_indices])
        assert float(exact).hex() == found.variance.hex()

    @pytest.mark.parametrize("geometry, accuracy, method", [
        (ArrayGeometry(20, 2), 2, "exhaustive"),
        (ArrayGeometry(16, 2), 4, "stochastic"),
    ], ids=["exhaustive", "stochastic"])
    def test_rescoring_builds_one_composite(self, monkeypatch, geometry, accuracy,
                                            method):
        # on two grid points the screen leaves many near-ties, which are
        # rescored from one power table per distinct member vector; only the
        # returned set builds its members' patterns a second time.  A call
        # may pass a matrix of weight vectors, counted a column at a time
        calls = []
        counted = lambda w, geom, m, angles: (
            calls.extend((m, v.tobytes()) for v in np.reshape(w, (len(w), -1)).T)
            or subarray_gains(w, geom, m, angles))
        monkeypatch.setattr(beams, "subarray_gains", counted)
        find_complementary_set(geometry, accuracy,
                               AngleGrid.uniform_theta(2), method, seed=1,
                               budget=5000)
        assert len(calls) > 2 * geometry.num_subarrays
        assert len(calls) - len(set(calls)) <= geometry.num_subarrays

    @pytest.mark.parametrize("elements, group_size, tables", [(20, 2, 34), (21, 3, 87)],
                             ids=["pairs-20", "triples-21"])
    def test_rescoring_builds_a_table_once_and_a_basis_per_block(
            self, monkeypatch, elements, group_size, tables):
        # the benchmark's exhaustive lines: the member tables built, the
        # returned set's own included, keep their count, no rescored table is
        # built twice, and a member's tables that a block of rescored groups
        # lacks share one steering basis (one subarray_gains call), as each
        # of the returned set's members takes one
        rows, bases, missing, seen = [], [], [], set()
        scorer = beams._exact_scorer

        def counted(w, geom, m, angles):
            bases.append(m)
            rows.extend((m, v.tobytes()) for v in np.reshape(w, (len(w), -1)).T)
            return subarray_gains(w, geom, m, angles)

        def blocks(*args):
            score = scorer(*args)

            def by_block(groups):
                step = max(1, beams._RESCORE_BLOCK_FLOATS // len(GRID))
                for i, m in itertools.product(range(0, len(groups), step), range(group_size)):
                    new = {(m, tuple(g[m])) for g in groups[i:i + step]} - seen
                    missing.extend([m] if new else [])
                    seen.update(new)
                return score(groups)
            return by_block

        monkeypatch.setattr(beams, "subarray_gains", counted)
        monkeypatch.setattr(beams, "_exact_scorer", blocks)
        found = find_complementary_set(ArrayGeometry(elements, group_size), 2, GRID,
                                       "exhaustive")
        found.variance          # the returned set's tables, which `cbfsim search` reads
        assert len(rows) == tables
        assert len(rows) - len(set(rows)) == group_size
        assert len(bases) <= len(missing) + group_size < tables

    def test_stochastic_draws_and_records_seed(self):
        found = find_complementary_set(ArrayGeometry(4, 2), 2,
                                       GRID, "stochastic", budget=50)
        assert found.meta.seed is not None
        again = find_complementary_set(ArrayGeometry(4, 2), 2,
                                       GRID, "stochastic", seed=found.meta.seed,
                                       budget=50)
        assert again.variance == found.variance


CLIMB_IMPORT = """
import sys
from cbfsim.arrays import AngleGrid, ArrayGeometry
from cbfsim.beams import find_complementary_set
seen = []
for method in ("exhaustive", "golay", "stochastic"):
    find_complementary_set(ArrayGeometry(8, 2), 2, AngleGrid.uniform_theta(8), method,
                           seed=1, budget=50)
    seen.append("cbfsim.climb" in sys.modules)
print(seen)
"""


def test_climb_is_imported_only_when_a_search_climbs():
    # in a fresh interpreter the exhaustive and golay searches leave the climb's
    # module unimported, so no start-up that does not climb compiles it
    src = str(Path(beams.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", CLIMB_IMPORT], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[False,", "False,", "True]"]


LAZY_IMPORT = """
import sys
import cbfsim.cli
cbfsim.cli.build_parser()
print("cbfsim.simulate" in sys.modules)
import cbfsim
print(cbfsim.run_ber is cbfsim.simulate.run_ber, "SimConfig" in vars(cbfsim))
print(*cbfsim.__all__)
"""


def test_simulate_is_imported_only_when_used():
    # in a fresh interpreter the command line's import and parser leave the
    # BER simulator unimported; the package resolves simulate's exports on
    # first use and keeps them, and its export list is unchanged
    src = str(Path(beams.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORT], check=True, env=env,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[:2] == ["False", "True True"]
    assert out[2].split() == [
        "AngleGrid", "ArrayGeometry", "BerCurve", "BerPoint", "ComplementaryBeamSet",
        "SchemeConfig", "SearchCapacityError", "SimConfig", "arrays", "awgn_qpsk_ber",
        "beams", "channel", "find_complementary_set", "golay_construct",
        "noise_variance", "phase_levels", "qpsk_demodulate", "qpsk_modulate",
        "rayleigh_qpsk_ber", "run_ber", "simulate", "transmit_cbf", "transmit_rbf",
        "transmit_single"]


def climb_draws(count=12, seed=20_241_019):
    """Seeded (geometry, K, grid points, budget) draws: pairs and triples of
    1-6 elements per sub-array, K from 1 to 40 (beyond 16 a slot's levels
    take several rounds), grids of 2 to 512 points, budgets from 1 to 5,000."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        members = int(rng.choice([2, 3]))
        yield (ArrayGeometry(members * int(rng.integers(1, 7)), members),
               int(rng.choice([1, 2, 3, 4, 5, 8, 17, 40])),
               int(rng.choice([2, 3, 8, 64, 512])),
               int(np.exp(rng.uniform(0, np.log(5000)))), int(rng.integers(0, 2 ** 31)))


@pytest.mark.parametrize("geometry, accuracy, points, budget, seed", list(climb_draws()),
                         ids=[f"draw-{i}" for i in range(12)])
def test_stochastic_fuzz_matches_sequential_climb(geometry, accuracy, points, budget, seed):
    # the refilled lockstep against the one-restart-at-a-time climb on random
    # geometries, accuracies, grids and budgets
    grid = AngleGrid.uniform_theta(points)
    power = cached_power(geometry, accuracy, grid)
    best, meta = sequential_climb(geometry, phase_levels(accuracy), seed, budget,
                                  _autocorrelation_form(geometry, grid), power)
    found = find_complementary_set(geometry, accuracy, grid, "stochastic", seed=seed,
                                   budget=budget)
    assert found.phase_indices == best
    assert found.variance.hex() == composite_variance(
        [power(m, idx) for m, idx in enumerate(best)]).hex()
    assert found.meta == meta


@pytest.mark.parametrize("members", [2, 3])
def test_numpy_reductions_keep_the_pinned_order(members):
    # the pinned composite and variance bytes rest on numpy adding member
    # tables left to right and on var's two-pass arithmetic, written out here
    rng = np.random.default_rng(members)
    for groups, points in ((1, 2), (3, 17), (8, 512), (2, 4096)):
        stack = rng.exponential(size=(groups, members, points))
        composite = functools.reduce(np.add, stack.transpose(1, 0, 2)) / members
        mean = np.add.reduce(composite, axis=-1, keepdims=True) / points
        two_pass = np.add.reduce((composite - mean) ** 2, axis=-1) / points
        assert stack.mean(axis=1).tobytes() == composite.tobytes()
        assert composite.var(axis=-1).tobytes() == two_pass.tobytes()
        for table, row, var in zip(stack, composite, two_pass):
            assert table.mean(axis=0).tobytes() == row.tobytes()
            assert row.var() == var


@pytest.mark.parametrize("lags", [1, 2, 7, 8])
@pytest.mark.parametrize("k", [2, 3, 4, 8])
@pytest.mark.parametrize("members", [2, 3])
def test_block_of_start_states_is_the_per_restart_draws(members, k, lags):
    # the climb draws a block's start states in one call; the stream pinned by
    # the sequential climb is one call per member per restart, and both leave
    # the generator in one state (with odd lags, one with a 32-bit half kept)
    one, each = (np.random.default_rng(members * k + lags) for _ in range(2))
    block = one.integers(0, k, (climb._CLIMB_BLOCK, members, lags))
    draws = [each.integers(0, k, lags) for _ in range(climb._CLIMB_BLOCK * members)]
    assert np.array_equal(block.reshape(-1, lags), draws)
    assert one.bit_generator.state == each.bit_generator.state


class TestAutocorrelationScreen:
    @pytest.mark.parametrize("grid,spacing", [
        (AngleGrid.uniform_theta(512), 0.5),
        (AngleGrid.uniform_theta(512), 0.7),
        (uniform_psi_grid(300, spacing=0.5), 0.5),
    ], ids=["theta-0.5", "theta-0.7", "psi-0.5"])
    @pytest.mark.parametrize("group_size", [2, 3])
    def test_quadratic_form_is_the_composite_variance(self, grid, spacing,
                                                      group_size):
        # x^T C x of the summed autocorrelation against the pattern tables
        rng = np.random.default_rng(31 + group_size)
        for ns, k in ((9, 2), (7, 4), (16, 8), (1, 2)):
            geom = ArrayGeometry(ns * group_size, group_size, spacing)
            form = _autocorrelation_form(geom, grid)
            for _ in range(10):
                w = phase_levels(k)[rng.integers(0, k, (group_size, ns))]
                x = _lag_features(w).sum(axis=0)
                exact = np.mean([gain_power(subarray_gains(w[m], geom, m, grid.points))
                                 for m in range(group_size)], axis=0).var()
                assert abs(x @ form @ x - exact) <= 1e-12

    def test_stochastic_memory_stays_small(self):
        # the climb keeps no per-vector pattern tables, and only one end state
        # per restart of its current block: a log of every visit took the
        # tie-heavy 4-element K=4 climb, whose restarts keep ending at flat
        # pairs, to 3.0 MiB at a budget of 50,000
        assert traced_peak(find_complementary_set, ArrayGeometry(32, 2), 4, GRID,
                           "stochastic", seed=7, budget=20000) < 10 * 2 ** 20
        assert traced_peak(find_complementary_set, ArrayGeometry(4, 2), 4, GRID,
                           "stochastic", seed=7, budget=50000) < 2 ** 20
        # the benchmark's climb: lockstep blocks of 64 restarts that waited
        # for their slowest took 0.92 MiB, and blocks of 256 took 3.54 MiB
        assert traced_peak(find_complementary_set, ArrayGeometry(32, 2), 4, GRID,
                           "stochastic", seed=5, budget=100_000) < 1.25 * 2 ** 20

    def test_stochastic_memory_does_not_grow_with_k(self):
        # a round scores a fixed number of moves whatever K; scoring every
        # level of a few slots per round took 204.8 MiB at K=10^5 for 10
        # evaluations, where the levels themselves take 1.6 MB
        assert traced_peak(find_complementary_set, ArrayGeometry(4, 2), 10 ** 5, GRID,
                           "stochastic", seed=1, budget=10) < 8 * 2 ** 20

    def test_widened_round_memory_stays_linear_in_its_moves(self):
        # a restart left climbing alone scores a whole sweep a round, here
        # 1,016 moves (two members' 127 coefficients, 4 levels each); its
        # evaluation count is a running sum over the round, where a square
        # rank matrix for that width took the peak from 10.7 to 18.5 MiB
        assert traced_peak(find_complementary_set, ArrayGeometry(256, 2), 4, GRID,
                           "stochastic", seed=1, budget=100) < 14 * 2 ** 20

    @pytest.mark.parametrize("elements, group_size, points, limit_mib", [
        (24, 2, 512, 8), (21, 3, 512, 3), (24, 3, 512, 5), (20, 2, 2, 3),
    ], ids=["readme-pair-2^22", "triple-2^18", "readme-triple-2^21",
            "pair-2^18-2-points"])
    def test_exhaustive_memory_stays_small(self, elements, group_size, points,
                                           limit_mib):
        # the screen and the rescoring work a fixed-size block at a time; one
        # block of every score would take 32 MiB for the README's 2^22 pairs,
        # a triple scan holding the summed features of its leading pairs past
        # the screen's setup took 6.7 MiB at 24 elements, and keeping every
        # block's near-ties for one rescore after the scan took the 2-point
        # grid's 42,252 near-ties to 5.7 MiB
        assert traced_peak(find_complementary_set, ArrayGeometry(elements, group_size),
                           2, AngleGrid.uniform_theta(points),
                           "exhaustive") < limit_mib * 2 ** 20


class TestFindComplementaryTriple:
    def test_trivial_single_elements(self):
        found = find_complementary_set(ArrayGeometry(3, 3), 1,
                                       GRID, "exhaustive")
        assert len(found.weights) == 3
        assert found.variance == pytest.approx(0.0, abs=1e-15)

    def test_exhaustive_matches_brute_force_exactly(self):
        geom = ArrayGeometry(6, 3)
        found = find_complementary_set(geom, 2, GRID, "exhaustive")
        oracle = brute_force_minimum(geom, 2, GRID, group_size=3)
        assert found.variance == oracle
        # no zero-variance binary triple of length 2 exists; record, not assume
        assert found.variance > 0

    def test_grid_outside_the_visible_region_rejected(self):
        with pytest.raises(ValueError, match="visible region"):
            find_complementary_set(ArrayGeometry(6, 3), 2,
                                   AngleGrid([-np.inf, 0.0, 0.5]), "exhaustive")

    def test_golay_is_pairs_only(self):
        with pytest.raises(ValueError, match="only yields pairs"):
            find_complementary_set(ArrayGeometry(12, 3), 2,
                                   GRID, "golay")

    def test_stochastic_reproducible(self):
        geom = ArrayGeometry(12, 3)
        one = find_complementary_set(geom, 4, GRID, "stochastic", seed=77,
                                     budget=400)
        two = find_complementary_set(geom, 4, GRID, "stochastic", seed=77,
                                     budget=400)
        assert one.variance == two.variance


class TestBeamSetJson:
    def test_round_trip(self):
        found = find_complementary_set(ArrayGeometry(8, 2), 4,
                                       GRID, "stochastic", seed=3, budget=200)
        doc = found.to_json_dict()
        back = ComplementaryBeamSet.from_json_dict(doc)
        assert back.variance == found.variance
        for w1, w2 in zip(back.weights, found.weights):
            assert np.array_equal(w1, w2)
        assert back.phase_indices == found.phase_indices
        assert back.meta == found.meta

    @pytest.mark.parametrize("grid", [
        AngleGrid.uniform_theta(64),
        uniform_psi_grid(64, spacing=1.0),
        AngleGrid(np.linspace(-1.0, 1.1, 40) ** 3),
    ], ids=["uniform-theta", "uniform-psi-spacing-1", "explicit"])
    def test_grid_round_trip(self, grid):
        found = find_complementary_set(ArrayGeometry(8, 2, spacing=1.0),
                                       2, grid, "golay")
        back = ComplementaryBeamSet.from_json_dict(found.to_json_dict())
        assert np.array_equal(back.grid.points, grid.points)

    def test_grid_kind_comes_from_the_points(self):
        # a grid built from uniform_theta's points is stored by its size
        grid = AngleGrid(AngleGrid.uniform_theta(64).points)
        found = find_complementary_set(ArrayGeometry(8, 2), 2, grid, "golay")
        assert found.to_json_dict()["grid"] == {
            "kind": "uniform-theta", "measure": "theta", "num_points": 64}
        moved = AngleGrid(np.append(grid.points[:-1], grid.points[-1] + 1e-3))
        spec = find_complementary_set(ArrayGeometry(8, 2), 2, moved,
                                      "golay").to_json_dict()["grid"]
        assert spec["kind"] == "explicit" and spec["points"] == moved.points.tolist()

    def test_uniform_psi_document_loads_on_its_points(self):
        # beam sets written before grids lost their labels name their kind
        # and measure; any kind but uniform-theta loads on the stored points
        grid = uniform_psi_grid(64, spacing=1.0)
        doc = find_complementary_set(ArrayGeometry(8, 2, spacing=1.0), 2, grid,
                                     "golay").to_json_dict()
        doc["grid"] = {"kind": "uniform-psi", "measure": "psi", "num_points": 64,
                       "points": grid.points.tolist()}
        back = ComplementaryBeamSet.from_json_dict(doc)
        assert np.array_equal(back.grid.points, grid.points)
        assert back.to_json_dict()["grid"]["kind"] == "explicit"

    @pytest.mark.parametrize("num_points", [1, 0, -3])
    def test_bad_uniform_grid_size_names_the_grid(self, num_points):
        doc = find_complementary_set(ArrayGeometry(8, 2), 2, GRID, "golay").to_json_dict()
        doc["grid"]["num_points"] = num_points
        with pytest.raises(ValueError, match="'grid'"):
            ComplementaryBeamSet.from_json_dict(doc)

    @pytest.mark.parametrize("point", [3.0, float("inf")], ids=["3-rad", "1e999"])
    def test_grid_outside_the_visible_region_rejected(self, point):
        doc = find_complementary_set(ArrayGeometry(4, 2), 2, AngleGrid(np.linspace(
            -1.0, 1.0, 16)), "exhaustive").to_json_dict()
        doc["grid"]["points"][-1] = point
        with pytest.raises(ValueError, match="'grid'.*visible region"):
            ComplementaryBeamSet.from_json_dict(doc)

    def test_phase_index_out_of_range_rejected(self):
        # a K=4 set relabelled K=2 with an index past even K=4's levels
        doc = find_complementary_set(ArrayGeometry(8, 2), 4, GRID, "stochastic",
                                     seed=3, budget=200).to_json_dict()
        doc["accuracy"], doc["weights"][0]["phase_indices"] = 2, [0, 3, 3, 7]
        with pytest.raises(ValueError, match="phase_indices"):
            ComplementaryBeamSet.from_json_dict(doc)

    def test_phase_index_contradicting_its_value_rejected(self):
        # an in-range index that names another level than the stored value
        doc = find_complementary_set(ArrayGeometry(8, 2), 4, GRID, "stochastic",
                                     seed=3, budget=200).to_json_dict()
        row = doc["weights"][1]["phase_indices"]
        row[-1] = (row[-1] + 1) % 4
        with pytest.raises(ValueError, match="phase_indices"):
            ComplementaryBeamSet.from_json_dict(doc)
        row[-1] = (row[-1] - 1) % 4
        assert ComplementaryBeamSet.from_json_dict(doc).phase_indices is not None

    @pytest.mark.parametrize("accuracy", [0, -7])
    def test_accuracy_below_one_rejected(self, accuracy):
        # a golay set stores no phase indices, so only K itself can be checked
        doc = find_complementary_set(ArrayGeometry(8, 2), 2, GRID, "golay").to_json_dict()
        doc["accuracy"] = accuracy
        with pytest.raises(ValueError, match="K must be >= 1"):
            ComplementaryBeamSet.from_json_dict(doc)

    def test_corrupt_variance_rejected(self):
        found = find_complementary_set(ArrayGeometry(4, 2), 2,
                                       GRID, "exhaustive")
        doc = found.to_json_dict()
        doc["variance"] = 0.25
        with pytest.raises(ValueError):
            ComplementaryBeamSet.from_json_dict(doc)
