"""Complementary beam synthesis.

Exhaustive codebook search with global-phase symmetry reduction, a
Golay-doubling constructor for power-of-two sub-arrays, stochastic hill
climbing for large instances, RF-chain grouping, and the beam-set JSON
format.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    WeightVector,
    _variance_of_power,
    beam_pattern,
    composite_pattern,
    gain_power,
    steering_basis,
)

__all__ = [
    "SearchCapacityError",
    "PhaseCodebook",
    "SearchMeta",
    "ComplementaryBeamSet",
    "golay_construct",
    "find_complementary_pair",
    "find_complementary_triple",
    "group_rf_chains",
    "DEFAULT_CANDIDATE_CEILING",
    "DEFAULT_STOCHASTIC_BUDGET",
]

DEFAULT_CANDIDATE_CEILING = 1_000_000
DEFAULT_STOCHASTIC_BUDGET = 100_000

_SNAP_TOL = 1e-12


class SearchCapacityError(ValueError):
    """Exhaustive enumeration would exceed the configured candidate ceiling."""


@dataclass(frozen=True, eq=False)
class PhaseCodebook:
    """Uniform K-level phase quantization: coefficients exp(j*2*pi*k/K)."""

    accuracy: int

    def __post_init__(self):
        if self.accuracy < 1:
            raise ValueError("accuracy factor K must be >= 1")

    @cached_property
    def coefficients(self) -> np.ndarray:
        k = np.arange(self.accuracy)
        coeffs = np.exp(2j * np.pi * k / self.accuracy)
        # Quarter-circle coefficients snapped to exact 1, j, -1, -j so that
        # fixing the leading phase of a weight vector is a bitwise-lossless
        # symmetry reduction.
        re = coeffs.real.copy()
        im = coeffs.imag.copy()
        for comp in (re, im):
            comp[np.abs(comp) < _SNAP_TOL] = 0.0
            comp[np.abs(comp - 1.0) < _SNAP_TOL] = 1.0
            comp[np.abs(comp + 1.0) < _SNAP_TOL] = -1.0
        out = re + 1j * im
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class SearchMeta:
    method: str
    candidates: int
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class ComplementaryBeamSet:
    """Weight vectors whose composite power pattern is (near-)flat over angle."""

    geometry: ArrayGeometry
    weights: tuple[WeightVector, ...]
    variance: float
    grid: AngleGrid
    meta: SearchMeta
    accuracy: int | None = None
    phase_indices: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_weights(cls, geometry, weights, grid, meta, accuracy=None,
                     phase_indices=None) -> "ComplementaryBeamSet":
        """Beam set whose variance is that of its weights' composite on grid."""
        beams = cls(geometry=geometry, weights=tuple(weights), variance=math.nan,
                    grid=grid, meta=meta, accuracy=accuracy,
                    phase_indices=phase_indices)
        return dataclasses.replace(beams, variance=beams.composite().variance)

    def member_patterns(self):
        return [beam_pattern(w, self.geometry, m, self.grid)
                for m, w in enumerate(self.weights)]

    def composite(self):
        return composite_pattern(self.member_patterns())

    def to_json_dict(self) -> dict:
        geo = self.geometry
        doc = {
            "geometry": {
                "total_elements": geo.total_elements,
                "num_subarrays": geo.num_subarrays,
                "spacing": geo.spacing,
            },
            "accuracy": self.accuracy,
            "method": self.meta.method,
            "seed": self.meta.seed,
            "candidates": self.meta.candidates,
            "variance": self.variance,
            "grid": _grid_spec(self.grid),
            "weights": [
                {
                    "phase_indices": (list(map(int, idx)) if idx is not None else None),
                    "values": [[float(v.real), float(v.imag)] for v in w.entries],
                }
                for w, idx in zip(self.weights, self.phase_indices
                                  or (None,) * len(self.weights))
            ],
        }
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ComplementaryBeamSet":
        """Inverse of to_json_dict.  A missing or ill-typed field raises a
        ValueError that names it."""
        if not isinstance(doc, dict):
            raise ValueError("a beam set must be a JSON object")
        geo = _field(doc, "geometry", dict)
        geometry = ArrayGeometry(
            total_elements=_field(geo, "total_elements", int, "geometry"),
            num_subarrays=_field(geo, "num_subarrays", int, "geometry"),
            spacing=float(_field(geo, "spacing", _REAL, "geometry")),
        )
        weights, indices = [], []
        for i, member in enumerate(_field(doc, "weights", list)):
            where = f"weights[{i}]"
            values = _field(member, "values", list, where)
            idx = _field(member, "phase_indices", (list, type(None)), where)
            try:
                weights.append(WeightVector([complex(re, im) for re, im in values]))
                indices.append(None if idx is None else tuple(int(k) for k in idx))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"beam set field {where!r}: {exc}") from None
        meta = SearchMeta(method=_field(doc, "method", str),
                          candidates=_field(doc, "candidates", int),
                          seed=_field(doc, "seed", _INT_OR_NONE))
        out = cls.from_weights(
            geometry, weights, _grid_from_spec(_field(doc, "grid", dict)), meta,
            _field(doc, "accuracy", _INT_OR_NONE),
            None if None in indices else tuple(indices))
        if abs(out.variance - _field(doc, "variance", _REAL)) > 1e-12:
            raise ValueError("beam set variance does not match its weights")
        return out


_REAL = (int, float)
_INT_OR_NONE = (int, type(None))


def _field(obj, key: str, types, where: str = ""):
    """obj[key] checked against types (a bool never passes); a missing or
    ill-typed field raises a ValueError naming it as where.key."""
    name = f"{where}.{key}" if where else key
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"beam set lacks field {name!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"beam set field {name!r} has the wrong type")
    return value


def _grid_spec(grid: AngleGrid) -> dict:
    # Only uniform-theta grids are rebuilt from their size; every other grid
    # keeps its points, since e.g. uniform-psi depends on a spacing.
    kind = grid.name or "explicit"
    spec = {"kind": kind, "measure": grid.measure, "num_points": len(grid)}
    if kind != "uniform-theta":
        spec["points"] = [float(p) for p in grid.points]
    return spec


def _grid_from_spec(spec: dict) -> AngleGrid:
    kind = _field(spec, "kind", str, "grid")
    if kind == "uniform-theta":
        return AngleGrid.uniform_theta(_field(spec, "num_points", int, "grid"))
    points = _field(spec, "points", list, "grid")
    measure = _field(spec, "measure", str, "grid")
    try:
        return AngleGrid(points, measure, name=None if kind == "explicit" else kind)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"beam set field 'grid': {exc}") from None


def golay_construct(length: int) -> tuple[WeightVector, WeightVector]:
    """Binary complementary pair by recursive doubling from ([1], [1]).

    The two sequences a, b satisfy |A(psi)|^2 + |B(psi)|^2 = 2*length at every
    phase, which makes their equal-split composite exactly flat.
    """
    if length < 1 or length & (length - 1):
        raise ValueError(
            f"no doubling construction for length {length}: not a power of two"
        )
    a = np.ones(1)
    b = np.ones(1)
    while a.size < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return WeightVector(a.astype(complex)), WeightVector(b.astype(complex))


def group_rf_chains(num_chains: int) -> list[tuple[int, ...]]:
    """Partition RF chains 0..M-1 into pairs in index order; an odd count ends
    with one triple covering the last three chains."""
    if num_chains < 2:
        raise ValueError("grouping needs at least two RF chains")
    if num_chains % 2 == 0:
        return [(i, i + 1) for i in range(0, num_chains, 2)]
    pairs = [(i, i + 1) for i in range(0, num_chains - 3, 2)]
    return pairs + [(num_chains - 3, num_chains - 2, num_chains - 1)]


def find_complementary_pair(
    geometry: ArrayGeometry,
    codebook: PhaseCodebook,
    grid: AngleGrid,
    method: str = "exhaustive",
    *,
    seed: int | None = None,
    budget: int = DEFAULT_STOCHASTIC_BUDGET,
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
) -> ComplementaryBeamSet:
    """Find two weight vectors minimizing the composite pattern variance.

    Methods: "exhaustive" scans the phase-reduced codebook space and returns
    the global minimizer (lexicographically first among ties); "golay" uses
    the doubling construction (power-of-two sub-arrays only); "stochastic"
    runs seeded random restarts with single-coefficient hill climbing and
    returns the best of its evaluation budget.
    """
    return _search(geometry, codebook, grid, method, 2, seed, budget,
                   candidate_ceiling)


def find_complementary_triple(
    geometry: ArrayGeometry,
    codebook: PhaseCodebook,
    grid: AngleGrid,
    method: str = "exhaustive",
    *,
    seed: int | None = None,
    budget: int = DEFAULT_STOCHASTIC_BUDGET,
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
) -> ComplementaryBeamSet:
    """Like find_complementary_pair but over three sub-arrays.

    No flat construction is known here, so "golay" is unsupported; the best
    found variance is reported, never asserted to be zero.
    """
    return _search(geometry, codebook, grid, method, 3, seed, budget,
                   candidate_ceiling)


def _search(geometry, codebook, grid, method, group_size, seed, budget, ceiling):
    if geometry.num_subarrays != group_size:
        raise ValueError(
            f"geometry must have exactly {group_size} sub-arrays, "
            f"got {geometry.num_subarrays}"
        )
    if method == "golay":
        if group_size != 2:
            raise ValueError("the doubling construction only yields pairs")
        pair = golay_construct(geometry.subarray_size)
        return ComplementaryBeamSet.from_weights(
            geometry, pair, grid, SearchMeta("golay", 1, None), codebook.accuracy)
    if method == "exhaustive":
        return _exhaustive(geometry, codebook, grid, group_size, ceiling)
    if method == "stochastic":
        return _stochastic(geometry, codebook, grid, group_size, seed, budget)
    raise ValueError(f"unknown search method {method!r}")


def _member_bases(geometry, group_size, grid):
    return [
        steering_basis(geometry.subarray_offsets(m), geometry.spacing, grid.points)
        for m in range(group_size)
    ]


def _candidate_vectors(codebook, subarray_size):
    # Leading coefficient pinned to 1: a global phase never changes |gain|,
    # so the search space shrinks from K^N_s to K^(N_s-1) per vector.
    k = codebook.accuracy
    suffixes = itertools.product(range(k), repeat=subarray_size - 1)
    index_tuples = [(0,) + s for s in suffixes]
    coeffs = codebook.coefficients
    vectors = [coeffs[list(t)] for t in index_tuples]
    return index_tuples, vectors


def _exhaustive(geometry, codebook, grid, group_size, ceiling):
    ns, k = geometry.subarray_size, codebook.accuracy
    num_vectors = k ** (ns - 1)
    total = num_vectors ** group_size
    kind = "pairs" if group_size == 2 else "triples"
    if total > ceiling:
        raise SearchCapacityError(
            f"exhaustive search over {total} candidate {kind} exceeds the "
            f"ceiling of {ceiling}; use method='stochastic' or 'golay'"
        )
    index_tuples, vectors = _candidate_vectors(codebook, ns)
    bases = _member_bases(geometry, group_size, grid)
    scale = 1.0 / np.sqrt(ns)
    powers = [
        np.stack([gain_power((bases[m] @ v) * scale) for v in vectors])
        for m in range(group_size)
    ]

    best_var = np.inf
    best_idx = None
    if group_size == 2:
        p0, p1 = powers
        for i in range(num_vectors):
            comp = (p0[i] + p1) / 2
            mean = comp.mean(axis=1)
            scores = ((comp - mean[:, None]) ** 2).mean(axis=1)
            j = int(np.argmin(scores))
            if scores[j] < best_var:
                best_var = float(scores[j])
                best_idx = (i, j)
    else:
        p0, p1, p2 = powers
        for i in range(num_vectors):
            for j in range(num_vectors):
                comp = ((p0[i] + p1[j]) + p2) / 3
                mean = comp.mean(axis=1)
                scores = ((comp - mean[:, None]) ** 2).mean(axis=1)
                kk = int(np.argmin(scores))
                if scores[kk] < best_var:
                    best_var = float(scores[kk])
                    best_idx = (i, j, kk)

    weights = tuple(WeightVector(vectors[ix]) for ix in best_idx)
    indices = tuple(index_tuples[ix] for ix in best_idx)
    return ComplementaryBeamSet.from_weights(
        geometry, weights, grid, SearchMeta("exhaustive", total, None),
        codebook.accuracy, indices)


def _stochastic(geometry, codebook, grid, group_size, seed, budget):
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k = geometry.subarray_size, codebook.accuracy
    coeffs = codebook.coefficients
    bases = _member_bases(geometry, group_size, grid)
    scale = 1.0 / np.sqrt(ns)
    cache: dict[tuple, np.ndarray] = {}

    def member_power(m, idx):
        key = (m, idx)
        if key not in cache:
            cache[key] = gain_power((bases[m] @ coeffs[list(idx)]) * scale)
        return cache[key]

    def variance_of(tuples):
        total = member_power(0, tuples[0])
        for m in range(1, group_size):
            total = total + member_power(m, tuples[m])
        return _variance_of_power(total / group_size)

    evals = 0
    best_var = np.inf
    best = None
    while evals < budget:
        current = tuple(
            (0,) + tuple(int(x) for x in rng.integers(0, k, ns - 1))
            for _ in range(group_size)
        )
        cur_var = variance_of(current)
        evals += 1
        if cur_var < best_var:
            best_var, best = cur_var, current
        improved = True
        while improved and evals < budget:
            improved = False
            for m in range(group_size):
                for pos in range(1, ns):
                    for alt in range(k):
                        if alt == current[m][pos]:
                            continue
                        member = current[m][:pos] + (alt,) + current[m][pos + 1:]
                        cand = current[:m] + (member,) + current[m + 1:]
                        var = variance_of(cand)
                        evals += 1
                        if var < cur_var:
                            current, cur_var = cand, var
                            improved = True
                            if cur_var < best_var:
                                best_var, best = cur_var, current
                        if evals >= budget:
                            break
                    if evals >= budget:
                        break
                if evals >= budget:
                    break

    weights = tuple(WeightVector(coeffs[list(t)]) for t in best)
    return ComplementaryBeamSet.from_weights(
        geometry, weights, grid, SearchMeta("stochastic", evals, seed),
        codebook.accuracy, best)
