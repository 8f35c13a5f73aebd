"""Half-space geometry and a dense linear-programming core.

An H-domain is a finite intersection of open half-spaces with normals on the
probability simplex.  All quantitative questions about such regions reduce to
maximizing a linear functional over the closed region, which a small
two-phase dense-tableau simplex solves; Bland's entering rule guards against
cycling.  On top of the LP sit the support function, the convex closure of a
sampled positively homogeneous function (computed as the support function of
the polyhedron carved by the samples, so only homogeneous linear minorants
participate), and the reduction of a region to the supporting half-spaces of
a prescribed direction subset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

import numpy as np

from .multiindex import SimplexDirection, as_direction, as_directions

__all__ = [
    "EmptyDomain",
    "HDomain",
    "HalfSpace",
    "LpResult",
    "SampledFunction",
    "convex_closure_value",
    "lp_maximize",
    "reduce_to_dense_subset",
    "support_value",
]

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7
MAX_DIMENSION = 16
MAX_CONSTRAINTS = 10_000
_ITERATION_CAP = 100_000


class EmptyDomain(ValueError):
    """The constraint region is infeasible."""


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space {s : <normal, s> - offset < 0} with a simplex normal."""

    normal: SimplexDirection
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_direction(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError("half-space offset must be finite")

    def value(self, point) -> float:
        return math.fsum(a * x for a, x in zip(self.normal.coords, point)) - self.offset

    def to_json(self) -> dict:
        return {"normal": list(self.normal.coords), "offset": self.offset}

    @classmethod
    def from_json(cls, data: dict) -> "HalfSpace":
        return cls(SimplexDirection(tuple(data["normal"])), float(data["offset"]))


@dataclass(frozen=True)
class HDomain:
    """Finite intersection of half-spaces; possibly empty, never checked eagerly."""

    dimension: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if self.dimension < 1:
            raise ValueError("domain dimension must be >= 1")
        for hs in self.halfspaces:
            if hs.normal.dimension != self.dimension:
                raise ValueError("half-space normal dimension mismatch")

    def evaluate(self, point) -> float:
        """max_i <a_i, s> - c_i; negative inside, -inf for the whole space."""
        if not self.halfspaces:
            return -inf
        return max(hs.value(point) for hs in self.halfspaces)

    def contains(self, point, closed: bool = False, tol: float = 0.0) -> bool:
        v = self.evaluate(point)
        return v <= tol if closed else v < -tol

    def constraint_rows(self) -> list[tuple[tuple[float, ...], float]]:
        return [(hs.normal.coords, hs.offset) for hs in self.halfspaces]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "halfspaces": [hs.to_json() for hs in self.halfspaces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HDomain":
        return cls(
            int(data["dimension"]),
            tuple(HalfSpace.from_json(h) for h in data["halfspaces"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "HDomain":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class SampledFunction:
    """Finite table of direction/value pairs on the probability simplex.

    Values may be +inf (direction outside the effective domain) but never
    -inf; directions must be pairwise distinct.
    """

    directions: tuple[SimplexDirection, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", as_directions(self.directions))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.directions) != len(self.values):
            raise ValueError("directions and values must have equal length")
        for v in self.values:
            if v == -inf or math.isnan(v):
                raise ValueError("sampled values must not be -inf or NaN")

    @property
    def dimension(self) -> int:
        return self.directions[0].dimension

    def finite_samples(self):
        return [
            (d, v) for d, v in zip(self.directions, self.values) if math.isfinite(v)
        ]

    def to_json(self) -> dict:
        return {
            "directions": [list(d.coords) for d in self.directions],
            "values": [v if math.isfinite(v) else "inf" for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SampledFunction":
        values = [inf if v == "inf" else float(v) for v in data["values"]]
        return cls(tuple(tuple(d) for d in data["directions"]), tuple(values))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SampledFunction":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass
class LpResult:
    value: float
    witness: Optional[np.ndarray]
    status: str  # "optimal" | "unbounded" | "infeasible"


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int):
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    for i in range(T.shape[0]):
        if i == row:
            continue
        f = T[i, col]
        if f != 0.0:
            T[i] -= f * T[row]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _simplex_min(T, rhs, basis, cost, allowed):
    """Minimize cost over the current basic feasible system with Bland's rule.

    Returns (objective value, status); status is "optimal" or "unbounded".
    """
    m = rhs.size
    red = cost.astype(float).copy()
    for i in range(m):
        c = red[basis[i]]
        if c != 0.0:
            red -= c * T[i]
    for _ in range(_ITERATION_CAP):
        enter = -1
        for j in range(allowed):
            if red[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            value = float(sum(cost[basis[i]] * rhs[i] for i in range(m)))
            return value, "optimal"
        leave = -1
        best = inf
        for i in range(m):
            t = T[i, enter]
            if t > PIVOT_TOL:
                ratio = rhs[i] / t
                if ratio < best - 1e-12:
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return math.nan, "unbounded"
        _pivot(T, rhs, basis, leave, enter)
        c = red[enter]
        if c != 0.0:
            red -= c * T[leave]
    raise ArithmeticError("simplex iteration cap exceeded")


def _constraint_rows(constraints, dimension: int):
    if isinstance(constraints, HDomain):
        if constraints.dimension != dimension:
            raise ValueError(
                f"objective has dimension {dimension}, domain has {constraints.dimension}"
            )
        rows = constraints.constraint_rows()
    else:
        rows = [(tuple(float(a) for a in coeffs), float(rhs)) for coeffs, rhs in constraints]
    for coeffs, _ in rows:
        if len(coeffs) != dimension:
            raise ValueError("constraint row dimension mismatch")
    return rows


def lp_maximize(objective: Sequence[float], constraints) -> LpResult:
    """Supremum of <objective, s> over the closed region {<a_i, s> <= c_i}.

    The variables are free; internally s splits as u - v with u, v >= 0 and a
    slack per row.  Rows whose right-hand side is negative receive a phase-one
    artificial.  Constraints may be an HDomain or an iterable of raw
    (coefficients, rhs) pairs, which are not restricted to simplex normals.
    """
    obj = np.asarray(tuple(float(x) for x in objective), dtype=float)
    n = obj.size
    if n < 1:
        raise ValueError("objective must have at least one coordinate")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
    rows = _constraint_rows(constraints, n)
    m = len(rows)
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"{m} constraints exceed the supported cap {MAX_CONSTRAINTS}")
    if m == 0:
        if np.all(obj == 0.0):
            return LpResult(0.0, np.zeros(n), "optimal")
        return LpResult(inf, None, "unbounded")

    A = np.array([coeffs for coeffs, _ in rows], dtype=float)
    rhs = np.array([c for _, c in rows], dtype=float)
    ncols = 2 * n + m
    T = np.zeros((m, ncols))
    T[:, :n] = A
    T[:, n : 2 * n] = -A
    T[:, 2 * n :] = np.eye(m)
    flip = rhs < 0.0
    T[flip] *= -1.0
    rhs = np.where(flip, -rhs, rhs)

    basis = np.full(m, -1, dtype=int)
    art_rows = [i for i in range(m) if flip[i]]
    for i in range(m):
        if not flip[i]:
            basis[i] = 2 * n + i
    if art_rows:
        E = np.zeros((m, len(art_rows)))
        for j, i in enumerate(art_rows):
            E[i, j] = 1.0
            basis[i] = ncols + j
        T = np.hstack([T, E])
    total = T.shape[1]

    if art_rows:
        cost1 = np.zeros(total)
        cost1[ncols:] = 1.0
        z1, status = _simplex_min(T, rhs, basis, cost1, allowed=total)
        if status != "optimal" or z1 > FEASIBILITY_TOL:
            return LpResult(-inf, None, "infeasible")
        for i in range(m):
            if basis[i] >= ncols:
                piv = next(
                    (j for j in range(ncols) if abs(T[i, j]) > PIVOT_TOL), None
                )
                if piv is not None:
                    _pivot(T, rhs, basis, i, piv)
                # otherwise the row is redundant; the artificial stays basic at 0

    cost2 = np.zeros(total)
    cost2[:n] = -obj
    cost2[n : 2 * n] = obj
    _, status = _simplex_min(T, rhs, basis, cost2, allowed=ncols)
    if status == "unbounded":
        return LpResult(inf, None, "unbounded")
    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = rhs[i]
    witness = x[:n] - x[n : 2 * n]
    return LpResult(float(obj @ witness), witness, "optimal")


def support_value(domain: HDomain, alpha) -> float:
    """Support function sup{<alpha, s> : s in closure(domain)}.

    +inf when the region is unbounded in the direction alpha (a value, not an
    error); EmptyDomain when the region is infeasible.
    """
    alpha = as_direction(alpha)
    result = lp_maximize(alpha.coords, domain)
    if result.status == "infeasible":
        raise EmptyDomain("the half-space intersection is empty")
    return result.value


def convex_closure_value(f: SampledFunction, alpha) -> float:
    """Greatest closed convex minorant of the sampled function, at alpha.

    Equals sup{<alpha, s> : <beta_i, s> <= v_i for all finite samples}: the
    support function of the polyhedron carved by the samples.  The
    constraints are homogeneous linear functionals with no constant term, so
    for positively homogeneous data the envelope is again positively
    homogeneous.  +inf samples impose no constraint; with no finite samples
    the value is +inf for every nonzero direction.
    """
    alpha = as_direction(alpha)
    if alpha.dimension != f.dimension:
        raise ValueError("direction dimension does not match the sampled function")
    rows = [(d.coords, v) for d, v in f.finite_samples()]
    result = lp_maximize(alpha.coords, rows)
    if result.status == "infeasible":
        raise EmptyDomain("the sampled constraints are inconsistent")
    return result.value


def reduce_to_dense_subset(domain: HDomain, dense) -> HDomain:
    """Supporting half-spaces of the domain at each prescribed direction.

    The output region contains the input by construction; when the direction
    set is dense in the normalized effective domain of the support function
    the two closed regions coincide, and at a finite sample the gap shrinks
    with the sample spacing.  Directions with infinite support value impose
    no constraint and are dropped.
    """
    kept = []
    for alpha in dense:
        alpha = as_direction(alpha)
        value = support_value(domain, alpha)
        if math.isfinite(value):
            kept.append(HalfSpace(alpha, value))
    return HDomain(domain.dimension, tuple(kept))
