"""Complementary beam synthesis.

Exhaustive codebook search with global-phase symmetry reduction, a
Golay-doubling constructor for power-of-two sub-arrays, stochastic hill
climbing for large instances, and the beam-set JSON format.

Both searches screen candidates by the members' summed autocorrelation, in
which the composite variance is a quadratic form whatever the grid size, and
rescore those the screen cannot rule out with the exact pattern arithmetic
of ``ComplementaryBeamSet``, which alone decides minima and ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    WeightVector,
    _autocorrelation_form,
    _composite_power,
    _variance_of_power,
    beam_pattern,
    composite_pattern,
)

__all__ = [
    "SearchCapacityError",
    "PhaseCodebook",
    "SearchMeta",
    "ComplementaryBeamSet",
    "golay_construct",
    "find_complementary_pair",
    "find_complementary_triple",
    "DEFAULT_CANDIDATE_CEILING",
    "DEFAULT_STOCHASTIC_BUDGET",
]

DEFAULT_CANDIDATE_CEILING = 2 ** 22
DEFAULT_STOCHASTIC_BUDGET = 100_000

_SNAP_TOL = 1e-12
_SCREEN_SLACK = 1e-9  # far above the screen's rounding, near 1e-15
_SCREEN_BLOCK_FLOATS = 2 ** 22  # one 32 MB block of exhaustive scores
_RESCORE_BLOCK_FLOATS = 2 ** 15  # 256 kB of each member's rescoring table


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
    # keeps its points.
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
    form = _autocorrelation_form(geometry, grid)
    power = _member_powers(geometry, grid, codebook.coefficients)
    if method == "exhaustive":
        best, meta = _exhaustive(geometry, codebook, ceiling, form, power)
    elif method == "stochastic":
        best, meta = _stochastic(geometry, codebook, seed, budget, form, power)
    else:
        raise ValueError(f"unknown search method {method!r}")
    weights = [WeightVector(codebook.coefficients[list(t)]) for t in best]
    return ComplementaryBeamSet(geometry, weights, grid, meta, codebook.accuracy,
                                best)


def _lag_features(weights: np.ndarray) -> np.ndarray:
    """[Re; Im] of each row's autocorrelation sum_i w[i+k] conj(w[i]), k >= 1."""
    ns = weights.shape[-1]
    r = np.zeros(weights.shape[:-1] + (ns - 1,), complex)
    for k in range(1, ns):
        r[..., k - 1] = np.sum(weights[..., k:] * weights[..., :ns - k].conj(), axis=-1)
    return np.concatenate([r.real, r.imag], axis=-1)


def _member_powers(geometry, grid, coeffs):
    """power(m, idx): the |gain|^2 table of phase-index vector idx on
    sub-array m, built once per distinct vector.  Composite variances of such
    tables are ComplementaryBeamSet's arithmetic, which decides every
    reported minimum and tie."""
    tables = {}

    def power(m, idx):
        key = (m, tuple(idx))
        if key not in tables:
            tables[key] = beam_pattern(WeightVector(coeffs[list(idx)]),
                                       geometry, m, grid).power
        return tables[key]

    return power


def _exhaustive(geometry, codebook, ceiling, form, power):
    ns, k, group_size = geometry.subarray_size, codebook.accuracy, geometry.num_subarrays
    num_vectors = k ** (ns - 1)
    total = num_vectors ** group_size
    if total > ceiling:
        kind = "pairs" if group_size == 2 else "triples"
        raise SearchCapacityError(
            f"exhaustive search over {total} candidate {kind} exceeds the "
            f"ceiling of {ceiling}; use method='stochastic' or 'golay'"
        )
    # Leading coefficient pinned to 1: a global phase never changes |gain|,
    # so the search space shrinks from K^N_s to K^(N_s-1) per vector.  Row v
    # holds the base-K digits of v, so rows run in lexicographic order.
    digits = (np.arange(num_vectors)[:, None] // k ** np.arange(ns - 2, -1, -1)) % k
    rows = np.pad(digits, ((0, 0), (1, 0))).tolist()
    x = _lag_features(codebook.coefficients[rows])
    # A group scores q[i] + 2 (xC)[i] . z[r] + (zCz)[r] for leading member i
    # and trailing members r, z[r] their summed features in C order.
    z = x
    for _ in range(group_size - 2):
        z = (x[:, None] + z[None]).reshape(len(x) * len(z), x.shape[1])
    y, zc = x @ form, z @ form
    q, qz = np.einsum("ij,ij->i", y, x), np.einsum("ij,ij->i", zc, z)
    step = max(1, _SCREEN_BLOCK_FLOATS // len(z))
    least, hits = np.inf, []
    for i in range(0, num_vectors, step):
        block = y[i:i + step] @ z.T
        block *= 2
        block += q[i:i + step, None] + qz
        least = min(least, block.min())
        flat = np.flatnonzero(block <= least + _SCREEN_SLACK)
        hits.append((block.ravel()[flat], flat + i * len(z)))
    scores, flat = (np.concatenate(a) for a in zip(*hits))
    near = np.unravel_index(flat[scores <= least + _SCREEN_SLACK],
                            (num_vectors,) * group_size)
    # Rescore the near-minimal groups exactly from one power table per
    # distinct member vector, a block of groups at a time, and keep the first
    # minimum in lexicographic order.
    distinct = [np.unique(numbers, return_inverse=True) for numbers in near]
    tables = [np.array([power(m, rows[v]) for v in d.tolist()])
              for m, (d, _) in enumerate(distinct)]
    step = max(1, _RESCORE_BLOCK_FLOATS // tables[0].shape[1])
    variances = []
    for i in range(0, len(near[0]), step):
        block = [t[inverse[i:i + step]] for t, (_, inverse) in zip(tables, distinct)]
        variances.append(_variance_of_power(_composite_power(block)))
    first = int(np.argmin(np.concatenate(variances)))
    return (tuple(tuple(rows[numbers[first]]) for numbers in near),
            SearchMeta("exhaustive", total, None))


def _stochastic(geometry, codebook, seed, budget, form, power):
    if budget < 1:
        raise ValueError("stochastic search needs a positive budget")
    exact = lambda rows: _variance_of_power(_composite_power(
        [power(m, idx) for m, idx in enumerate(rows.tolist())]))
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    rng = np.random.default_rng(seed)
    ns, k, group_size = geometry.subarray_size, codebook.accuracy, geometry.num_subarrays
    # Single-coefficient moves in (member, position, level) order.  Member m's
    # weights are w[m*(3ns-2) + ns-1 + p] of a flat array with zero gaps, so a
    # move at flat index i changes lag l through w[i-l] and w[i+l].
    member, pos, level = (a.ravel() for a in np.indices((group_size, ns - 1, k)))
    at = member * (3 * ns - 2) + ns + pos
    below, above = at[:, None] - np.arange(1, ns), at[:, None] + np.arange(1, ns)
    target = codebook.coefficients[level]
    evals, best_var, best_score, best = 0, np.inf, np.inf, None
    while evals < budget:
        state = np.array([(0,) + tuple(int(x) for x in rng.integers(0, k, ns - 1))
                          for _ in range(group_size)])
        w = np.zeros((group_size, 3 * ns - 2), complex)
        w[:, ns - 1:2 * ns - 1] = codebook.coefficients[state]
        x = _lag_features(w[:, ns - 1:2 * ns - 1]).sum(axis=0)
        w = w.ravel()
        cur, start, improved = x @ form @ x, 0, False
        evals += 1
        while True:
            # Rescore a visited state exactly unless the screen rules it out.
            if cur <= best_score + _SCREEN_SLACK:
                best_score = min(best_score, cur)
                if (var := exact(state)) < best_var:
                    best_var, best = var, tuple(map(tuple, state.tolist()))
            # Score the rest of the sweep at once and take the first neighbour
            # that improves; a screened near-tie is decided exactly, so each
            # step is the one an exact comparison takes.  A sweep that
            # improved nothing ends the climb.
            hit = None
            while hit is None and evals < budget:
                todo = start + np.flatnonzero(w[at[start:]] != target[start:])
                todo = todo[:budget - evals]
                if not todo.size:
                    if not improved:
                        break
                    start, improved = 0, False
                    continue
                delta = target[todo] - w[at[todo]]
                dr = (delta[:, None] * w[below[todo]].conj()
                      + w[above[todo]] * delta.conj()[:, None])
                dx = np.concatenate((dr.real, dr.imag), axis=1)
                scores = np.einsum("ij,ij->i", (x + dx) @ form, x + dx)
                for h in np.flatnonzero(scores < cur + _SCREEN_SLACK).tolist():
                    if scores[h] > cur - _SCREEN_SLACK:
                        cand = state.copy()
                        cand[member[todo[h]], pos[todo[h]] + 1] = level[todo[h]]
                        if not exact(cand) < exact(state):
                            continue
                    hit = h
                    break
                evals += todo.size if hit is None else hit + 1
                start = len(level) if hit is None else todo[hit] + 1
            if hit is None:
                break
            move = todo[hit]
            state[member[move], pos[move] + 1] = level[move]
            w[at[move]] = target[move]
            x, cur, improved = x + dx[hit], scores[hit], True

    return best, SearchMeta("stochastic", evals, seed)
