"""Complementary beam synthesis.

Exhaustive codebook search with global-phase symmetry reduction, a
Golay-doubling constructor for power-of-two sub-arrays, stochastic hill
climbing for large instances, and the beam-set JSON format.

Both searches screen a block of candidates at a time by the members' summed
autocorrelation, in which the composite variance is a quadratic form whatever
the grid size, and settle the block's near-ties against a running best with
one exact scorer, ``ComplementaryBeamSet``'s arithmetic on member tables kept
for the search, which alone decides minima and ties; a block's missing tables
share one steering basis per member.  The climb runs restarts in lockstep
slots, each taking the next as soon as its own ends, shares a fixed number of
moves a round among them, and returns the set one restart at a time returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import (
    UNIT_MODULUS_TOL,
    AngleGrid,
    ArrayGeometry,
    _autocorrelation_form,
    _readonly,
    gain_power,
    subarray_gains,
)

__all__ = ["SearchCapacityError", "phase_levels", "SearchMeta", "ComplementaryBeamSet",
           "golay_construct", "find_complementary_set", "DEFAULT_CANDIDATE_CEILING",
           "DEFAULT_STOCHASTIC_BUDGET"]

DEFAULT_CANDIDATE_CEILING = 2 ** 22
DEFAULT_STOCHASTIC_BUDGET = 100_000

_SCREEN_SLACK = 1e-9  # far above the screen's rounding, near 1e-15
_SCREEN_BLOCK_FLOATS = 2 ** 15  # 256 kB of exhaustive scores per block
_RESCORE_BLOCK_FLOATS = 2 ** 12  # 32 kB of each member's power tables per block


class SearchCapacityError(ValueError):
    """Exhaustive enumeration would exceed the configured candidate ceiling."""


def phase_levels(accuracy: int) -> np.ndarray:
    """Read-only uniform K-level phase quantization exp(j*2*pi*k/K), k < K."""
    if accuracy < 1:
        raise ValueError("accuracy factor K must be >= 1")
    k = np.arange(accuracy)
    levels = np.exp(2j * np.pi * k / accuracy)
    # Quarter-turn levels are exactly 1, j, -1, -j so that fixing the leading
    # phase of a weight vector is a bitwise-lossless symmetry reduction.
    # complex(0, -1), unlike -1j, has a +0.0 real part.
    quarter = k[4 * k % accuracy == 0]
    levels[quarter] = np.array([1, 1j, -1, complex(0, -1)])[4 * quarter // accuracy]
    return _readonly(levels)


@dataclass(frozen=True)
class SearchMeta:
    method: str
    candidates: int
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class ComplementaryBeamSet:
    """One unit-modulus weight vector per sub-array whose composite power
    pattern is (near-)flat over angle.

    ``weights`` is read-only complex, one row per sub-array; the composite power on
    ``grid`` and its ``variance`` are computed when first read.  Given
    ``phase_indices`` pick each weight exactly from ``phase_levels(accuracy)``."""

    geometry: ArrayGeometry
    weights: np.ndarray
    grid: AngleGrid
    meta: SearchMeta
    accuracy: int | None = None
    phase_indices: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        rows = [np.asarray(w, dtype=complex) for w in self.weights]
        if len(rows) != self.geometry.num_subarrays:
            raise ValueError(f"a beam set needs one weight vector per sub-array: "
                             f"got {len(rows)} for {self.geometry.num_subarrays}")
        for m, w in enumerate(rows):
            if w.shape != (self.geometry.subarray_size,):
                raise ValueError(f"weight vector {m} has length {w.size}, not the "
                                 f"sub-array size {self.geometry.subarray_size}")
        weights = _readonly(rows)
        if not np.max(np.abs(np.abs(weights) - 1.0)) <= UNIT_MODULUS_TOL:  # NaN fails
            raise ValueError("weight entries must have unit modulus")
        idx, k = self.phase_indices, self.accuracy
        if k is not None and k < 1:
            raise ValueError("accuracy factor K must be >= 1")
        if idx is not None and (k is None or len(idx) != len(rows) or not all(
                all(0 <= i < k for i in row) and np.array_equal(phase_levels(k)[list(row)], w)
                for row, w in zip(idx, rows))):
            raise ValueError(f"phase_indices must be levels 0..K-1 of K={k} giving the weights")
        object.__setattr__(self, "weights", weights)

    @cached_property
    def member_powers(self) -> np.ndarray:
        """Read-only |gain|^2 of each member on the set's grid, one row each."""
        return _readonly(gain_power([
            subarray_gains(w, self.geometry, m, self.grid.points)
            for m, w in enumerate(self.weights)]))

    @cached_property
    def composite_power(self) -> np.ndarray:
        """Read-only equal-split composite: the mean of the member powers."""
        return _readonly(self.member_powers.mean(axis=0))

    @cached_property
    def variance(self) -> float:
        return float(self.composite_power.var())

    def to_json_dict(self) -> dict:
        geo = self.geometry
        return {
            "geometry": {"total_elements": geo.total_elements,
                         "num_subarrays": geo.num_subarrays, "spacing": geo.spacing},
            "accuracy": self.accuracy,
            "method": self.meta.method,
            "seed": self.meta.seed,
            "candidates": self.meta.candidates,
            "variance": self.variance,
            "grid": _grid_spec(self.grid),
            "weights": [{"phase_indices": None if idx is None else list(map(int, idx)),
                         "values": [[float(v.real), float(v.imag)] for v in w]}
                        for w, idx in zip(self.weights, self.phase_indices
                                          or (None,) * len(self.weights))],
        }

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
                weights.append([complex(re, im) for re, im in values])
                indices.append(None if idx is None else tuple(int(k) for k in idx))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"beam set field {where!r}: {exc}") from None
        meta = SearchMeta(method=_field(doc, "method", str),
                          candidates=_field(doc, "candidates", int),
                          seed=_field(doc, "seed", _INT_OR_NONE))
        out = cls(geometry, weights, _grid_from_spec(_field(doc, "grid", dict)),
                  meta, _field(doc, "accuracy", _INT_OR_NONE),
                  None if None in indices else tuple(indices))
        if not abs(out.variance - _field(doc, "variance", _REAL)) <= 1e-12:
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
    # A grid with uniform_theta's points is stored by its size, any other by its points.
    if np.array_equal(grid.points, AngleGrid.uniform_theta(len(grid)).points):
        return {"kind": "uniform-theta", "measure": "theta", "num_points": len(grid)}
    return {"kind": "explicit", "num_points": len(grid), "points": grid.points.tolist()}


def _grid_from_spec(spec: dict) -> AngleGrid:
    uniform = _field(spec, "kind", str, "grid") == "uniform-theta"
    value = _field(spec, *(("num_points", int) if uniform else ("points", list)), "grid")
    try:
        return AngleGrid.uniform_theta(value) if uniform else AngleGrid(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"beam set field 'grid': {exc}") from None


def golay_construct(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary complementary pair of complex arrays by doubling from ([1], [1]).

    The two sequences a, b satisfy |A(psi)|^2 + |B(psi)|^2 = 2*length at every
    phase, which makes their equal-split composite exactly flat.
    """
    if length < 1 or length & (length - 1):
        raise ValueError(
            f"no doubling construction for length {length}: not a power of two"
        )
    a = b = np.ones(1)
    while a.size < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a.astype(complex), b.astype(complex)


def find_complementary_set(
    geometry: ArrayGeometry,
    accuracy: int,
    grid: AngleGrid,
    method: str = "exhaustive",
    *,
    seed: int | None = None,
    budget: int = DEFAULT_STOCHASTIC_BUDGET,
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
) -> ComplementaryBeamSet:
    """Find one weight vector per sub-array (a pair or a triple) minimizing
    the composite pattern variance, with phases from ``phase_levels(accuracy)``.

    Methods: "exhaustive" scans the phase-reduced codebook space and returns
    the global minimizer (lexicographically first among ties); "golay" uses
    the doubling construction (power-of-two pairs only); "stochastic" runs
    seeded random restarts of single-coefficient hill climbing in lockstep
    slots, refilled in restart order and sharing a fixed number of moves a
    round, and returns the best of its evaluation budget, as one restart at a
    time would.  No flat triple construction is known, so a triple's best
    found variance is reported, never asserted to be zero.
    """
    if geometry.num_subarrays not in (2, 3):
        raise ValueError(f"geometry must have 2 or 3 sub-arrays, "
                         f"got {geometry.num_subarrays}")
    # Not left to phase_levels: building levels before golay raised cmd_ber's peak RSS.
    if accuracy < 1:
        raise ValueError("accuracy factor K must be >= 1")
    if method == "golay":
        if geometry.num_subarrays != 2:
            raise ValueError("the doubling construction only yields pairs")
        if accuracy % 2:
            raise ValueError(f"the doubling construction needs an even K, got K={accuracy}")
        return ComplementaryBeamSet(geometry, golay_construct(geometry.subarray_size), grid,
                                    SearchMeta("golay", 1, None), accuracy)
    if method not in ("exhaustive", "stochastic"):
        raise ValueError(f"unknown search method {method!r}")
    # Counted before anything is built: the levels and the screen grow with K.
    total = accuracy ** ((geometry.subarray_size - 1) * geometry.num_subarrays)
    if method == "exhaustive" and total > candidate_ceiling:
        kind = "pairs" if geometry.num_subarrays == 2 else "triples"
        raise SearchCapacityError(
            f"exhaustive search over {total} candidate {kind} exceeds the "
            f"ceiling of {candidate_ceiling}; use method='stochastic' or 'golay'"
        )
    levels, form = phase_levels(accuracy), _autocorrelation_form(geometry, grid)
    score = _exact_scorer(geometry, grid, levels)
    if method == "exhaustive":
        best, meta = _exhaustive(geometry, levels, form, score)
    else:
        from .climb import stochastic  # compiled only when a search climbs
        best, meta = stochastic(geometry, levels, seed, budget, form, score)
    return ComplementaryBeamSet(geometry, levels[list(best)], grid, meta, accuracy, best)


def _lag_features(weights: np.ndarray) -> np.ndarray:
    """[Re; Im] of each row's autocorrelation sum_i w[i+k] conj(w[i]), k >= 1."""
    ns = weights.shape[-1]
    r = np.zeros(weights.shape[:-1] + (ns - 1,), complex)
    for k in range(1, ns):
        r[..., k - 1] = np.sum(weights[..., k:] * weights[..., :ns - k].conj(), axis=-1)
    return np.concatenate([r.real, r.imag], axis=-1)


def _exact_scorer(geometry, grid, levels):
    """score(groups): composite variances of phase-index groups (one index vector
    per member) by ComplementaryBeamSet's arithmetic, a block of groups at a time:
    the values that decide every reported minimum and tie.  A member's tables that
    the groups lack are built first, a rescoring block's worth from one transient
    steering basis, and kept for the search."""
    tables, step = {}, max(1, _RESCORE_BLOCK_FLOATS // len(grid))
    def score(groups):
        for m in range(len(groups[0])):
            new = [v for v in {tuple(g[m]) for g in groups} if (m, v) not in tables]
            for block in (new[i:i + step] for i in range(0, len(new), step)):
                gains = subarray_gains(levels[block].T, geometry, m, grid.points)
                tables.update(((m, v), gain_power(c)) for v, c in zip(block, gains.T))
        return np.concatenate([
            np.array([[tables[m, tuple(v)] for m, v in enumerate(g)] for g in groups[i:i + step]])
            .mean(axis=1).var(axis=-1) for i in range(0, len(groups), step)])
    return score


def _settle(score, best, groups):
    """The running best (exact variance, group), replaced by the first of
    groups, in search order, whose exact variance is strictly smaller."""
    if not groups:
        return best
    var = score(groups)
    i = int(np.argmin(var))
    return (var[i], groups[i]) if var[i] < best[0] else best


def _exhaustive(geometry, levels, form, score):
    ns, k, group_size = geometry.subarray_size, len(levels), geometry.num_subarrays
    num_vectors = k ** (ns - 1)
    # Leading coefficient pinned to 1: a global phase never changes |gain|,
    # so the search space shrinks from K^N_s to K^(N_s-1) per vector.  Row v
    # holds the base-K digits of v, so rows run in lexicographic order.
    rows = list(map(tuple, np.indices((1,) + (k,) * (ns - 1)).reshape(ns, -1).T.tolist()))
    x = _lag_features(levels[rows])
    # A group scores (zCz)[l] + 2 (zC)[l] . x[t] + q[t] for last member t and
    # leading members l, z[l] their summed features in C order: row l of
    # [2zC, zCz, 1] times row t of [x, 1, q].  A block is rows l by every t.
    z = x if group_size == 2 else (x[:, None] + x[None]).reshape(len(x) ** 2, -1)
    trail = np.column_stack([x, np.ones(len(x)), np.einsum("ij,ij->i", x @ form, x)])
    lead = np.ones((len(z), z.shape[1] + 2))
    zc = np.matmul(z, 2 * form, out=lead[:, :-2])
    lead[:, -2] = np.einsum("ij,ij->i", zc, z) / 2
    del x, z, zc                # the scan holds only lead and trail
    # Blocks run in lexicographic order, so settling each keeps the first minimum.
    step = max(1, _SCREEN_BLOCK_FLOATS // num_vectors)
    least, best = np.inf, (np.inf, None)
    for i in range(0, len(lead), step):
        block = lead[i:i + step] @ trail.T
        least = min(least, block.min())
        near = np.unravel_index(np.flatnonzero(block <= least + _SCREEN_SLACK)
                                + i * num_vectors, (num_vectors,) * group_size)
        best = _settle(score, best, list(zip(*([rows[v] for v in numbers.tolist()]
                                              for numbers in near))))
    return best[1], SearchMeta("exhaustive", num_vectors ** group_size, None)
