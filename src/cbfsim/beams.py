"""Complementary beam synthesis.

Exhaustive codebook search with global-phase symmetry reduction, a
Golay-doubling constructor for power-of-two sub-arrays, stochastic hill
climbing for large instances, RF-chain grouping, and the beam-set JSON
format.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    WeightVector,
    _composite_power,
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
    """Weight vectors whose composite power pattern is (near-)flat over angle.

    ``variance`` is derived from the weights' composite on ``grid``."""

    geometry: ArrayGeometry
    weights: tuple[WeightVector, ...]
    grid: AngleGrid
    meta: SearchMeta
    accuracy: int | None = None
    phase_indices: tuple[tuple[int, ...], ...] | None = None
    variance: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "variance", self.composite.variance)

    @cached_property
    def composite(self):
        """Equal-split composite of the members on the set's grid."""
        return composite_pattern([beam_pattern(w, self.geometry, m, self.grid)
                                  for m, w in enumerate(self.weights)])

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
        out = cls(geometry, weights, _grid_from_spec(_field(doc, "grid", dict)),
                  meta, _field(doc, "accuracy", _INT_OR_NONE),
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
        return ComplementaryBeamSet(geometry, pair, grid,
                                    SearchMeta("golay", 1, None), codebook.accuracy)
    if method == "exhaustive":
        best, meta = _exhaustive(geometry, codebook, grid, group_size, ceiling)
    elif method == "stochastic":
        best, meta = _stochastic(geometry, codebook, grid, group_size, seed, budget)
    else:
        raise ValueError(f"unknown search method {method!r}")
    weights = [WeightVector(codebook.coefficients[list(t)]) for t in best]
    return ComplementaryBeamSet(geometry, weights, grid, meta, codebook.accuracy,
                                best)


def _member_power(geometry, grid, coeffs):
    """power(m, idx): power pattern on grid of sub-array m driven by the
    codebook coefficients coeffs[idx]."""
    bases = [steering_basis(geometry.subarray_offsets(m), geometry.spacing,
                            grid.points)
             for m in range(geometry.num_subarrays)]
    scale = 1.0 / np.sqrt(geometry.subarray_size)

    def power(m, idx):
        return gain_power((bases[m] @ coeffs[list(idx)]) * scale)

    return power


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
    # Leading coefficient pinned to 1: a global phase never changes |gain|,
    # so the search space shrinks from K^N_s to K^(N_s-1) per vector.
    index_tuples = [(0,) + s for s in itertools.product(range(k), repeat=ns - 1)]
    power = _member_power(geometry, grid, codebook.coefficients)
    tables = [np.stack([power(m, t) for t in index_tuples])
              for m in range(group_size)]

    # Fix every member but the last and score the last as a whole table;
    # strict improvement keeps the lexicographically first minimum.  comp
    # stays bound until the next step rebinds it: freeing it inside the step
    # made the (20, 2, K=2) pair search 2.4x slower on a 2-vCPU EPYC, as the
    # allocator faulted in fresh pages every step.
    best_var = np.inf
    best = None
    for head in itertools.product(range(num_vectors), repeat=group_size - 1):
        comp = _composite_power([t[i] for t, i in zip(tables, head)]
                                + [tables[-1]])
        scores = _variance_of_power(comp)
        last = int(np.argmin(scores))
        if scores[last] < best_var:
            best_var, best = scores[last], head + (last,)

    return (tuple(index_tuples[i] for i in best),
            SearchMeta("exhaustive", total, None))


def _stochastic(geometry, codebook, grid, group_size, seed, budget):
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k = geometry.subarray_size, codebook.accuracy
    member_power = functools.cache(
        _member_power(geometry, grid, codebook.coefficients))

    def variance_of(tuples):
        return _variance_of_power(_composite_power(
            [member_power(m, t) for m, t in enumerate(tuples)]))

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
            # Single-coefficient neighbours in (member, position, level) order.
            for m, pos, alt in itertools.product(range(group_size),
                                                 range(1, ns), range(k)):
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

    return best, SearchMeta("stochastic", evals, seed)
