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

import math
from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

import numpy as np

from .jsonfile import JsonFile
from .multiindex import Directions, SimplexDirection, as_direction, as_int, as_real

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
# Phase one declares the region empty when the artificials left in its basis
# sum to more than FEASIBILITY_TOL, or when one of them, as the sum
# sum_k B^-1_ik rhs_k over the entries of B^-1 above PIVOT_TOL, exceeds
# FEASIBILITY_TOL times sum_k |B^-1_ik| rhs_k.  A gap is thus judged against
# the rows it is formed from, and an unrelated large row cannot hide it.
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
        object.__setattr__(self, "offset", as_real(self.offset, "half-space offset"))
        if not math.isfinite(self.offset):
            raise ValueError("half-space offset must be finite")

    def value(self, point) -> float:
        return math.fsum(a * x for a, x in zip(self.normal.coords, point)) - self.offset

    def to_json(self) -> dict:
        return {"normal": list(self.normal.coords), "offset": self.offset}


@dataclass(frozen=True)
class HDomain(JsonFile):
    """Finite intersection of half-spaces; possibly empty, never checked eagerly."""

    dimension: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if as_int(self.dimension, "dimension") < 1:
            raise ValueError("domain dimension must be >= 1")
        for hs in self.halfspaces:
            if hs.normal.dimension != self.dimension:
                raise ValueError("half-space normal dimension mismatch")

    def evaluate(self, point) -> float:
        """max_i <a_i, s> - c_i; negative inside, -inf for the whole space."""
        if not self.halfspaces:
            return -inf
        return max(hs.value(point) for hs in self.halfspaces)

    def contains(self, point, closed: bool = False) -> bool:
        v = self.evaluate(point)
        return v <= 0.0 if closed else v < 0.0

    def constraint_rows(self) -> list[tuple[tuple[float, ...], float]]:
        return [(hs.normal.coords, hs.offset) for hs in self.halfspaces]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "halfspaces": [hs.to_json() for hs in self.halfspaces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HDomain":
        halfspaces = tuple(HalfSpace(h["normal"], h["offset"]) for h in data["halfspaces"])
        return cls(data["dimension"], halfspaces)


@dataclass(frozen=True)
class SampledFunction(JsonFile):
    """Finite table of direction/value pairs on the probability simplex.

    Values may be +inf (outside the effective domain), never NaN; -inf, an
    empty region, raises EmptyDomain.  Directions must be pairwise distinct.
    """

    directions: Directions
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", Directions(self.directions))
        object.__setattr__(self, "values", tuple(as_real(v, "sampled value") for v in self.values))
        if len(self.directions) != len(self.values):
            raise ValueError("directions and values must have equal length")
        for d, v in zip(self.directions, self.values):
            if math.isnan(v):
                raise ValueError("sampled values must not be NaN")
            if v == -inf:
                raise EmptyDomain(f"the sample at {d.coords} is -inf: the region is empty")

    @property
    def dimension(self) -> int:
        return self.directions.dimension

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
        values = [inf if v == "inf" else v for v in data["values"]]
        return cls(data["directions"], tuple(values))


@dataclass
class LpResult:
    value: float
    witness: Optional[np.ndarray]
    status: str  # "optimal" | "unbounded" | "infeasible"
    phase1_pivots: int = 0  # driving basic artificials out included
    phase2_pivots: int = 0


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: list, row: int, col: int):
    """Pivot on (row, col) as one rank-1 update over the pivot row's nonzeros.

    Each entry gets the multiply and subtract of a per-row sweep, and rows
    with a zero in the pivot column stay untouched, as in that sweep.  The
    columns skipped could only flip the sign of a zero in T, which no
    decision reads; rhs and the witness stay exact.
    """
    piv = T[row, col]
    prow = T[row]
    prow /= piv
    r = rhs[row] / piv
    rhs[row] = r
    f = T[:, col].copy()
    f[row] = 0.0
    live = f != 0.0
    cols = prow.nonzero()[0]
    block = T.take(cols, axis=1)
    np.subtract(block, np.multiply.outer(f, block[row]), out=block, where=live[:, None])
    T[:, cols] = block
    np.subtract(rhs, f * r, out=rhs, where=live)
    basis[row] = col


def _simplex_min(T, rhs, basis, cost, allowed):
    """Minimize cost over the current basic feasible system with Bland's rule.

    Returns (status, pivots), status "optimal" or "unbounded".  The reduced
    costs live in the last row of T; basic columns are exact unit vectors, so
    pricing reads only the rows with a nonzero basic cost.
    """
    red = T[-1]
    red[:] = cost
    costs = cost.tolist()
    for i, b in enumerate(basis):
        if costs[b] != 0.0:
            red -= costs[b] * T[i]
    reduced = red[:allowed]
    for pivots in range(_ITERATION_CAP):
        enter = int((reduced < -PIVOT_TOL).argmax())
        if not reduced[enter] < -PIVOT_TOL:
            return "optimal", pivots
        col = T[:-1, enter]
        t, b = col.tolist(), rhs.tolist()
        leave = -1
        lo = hi = inf  # ratios within 1e-12 of the best tie; Bland breaks ties
        for i in (col > PIVOT_TOL).nonzero()[0].tolist():
            ratio = b[i] / t[i]
            if ratio < lo:
                lo = ratio - 1e-12
                hi = ratio + 1e-12
                leave = i
            elif ratio <= hi and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(T, rhs, basis, leave, enter)
    raise ArithmeticError("simplex iteration cap exceeded")


def _constraint_rows(constraints, dimension: int):
    if isinstance(constraints, HDomain):  # its constructor checked each normal's dimension
        if constraints.dimension != dimension:
            raise ValueError(
                f"objective has dimension {dimension}, domain has {constraints.dimension}"
            )
        return constraints.constraint_rows()
    rows = [(tuple(float(a) for a in coeffs), float(rhs)) for coeffs, rhs in constraints]
    if not all(math.isfinite(x) for coeffs, rhs in rows for x in (rhs, *coeffs)):
        raise ValueError("constraint coefficients and right-hand sides must be finite")
    for coeffs, _ in rows:
        if len(coeffs) != dimension:
            raise ValueError("constraint row dimension mismatch")
    return rows


@np.errstate(over="raise", invalid="raise")
def lp_maximize(objective: Sequence[float], constraints) -> LpResult:
    """Supremum of <objective, s> over the closed region {<a_i, s> <= c_i}.

    The variables are free; internally s splits as u - v with u, v >= 0 and a
    slack per row.  Rows whose right-hand side is negative receive a phase-one
    artificial.  Constraints may be an HDomain or an iterable of raw
    (coefficients, rhs) pairs, which are not restricted to simplex normals.
    A non-finite objective entry, coefficient or rhs raises ValueError, and an
    overflowing tableau raises FloatingPointError (an ArithmeticError).
    """
    coords = tuple(float(x) for x in objective)
    n = len(coords)
    if n < 1:
        raise ValueError("objective must have at least one coordinate")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
    if not all(map(math.isfinite, coords)):
        raise ValueError("objective entries must be finite")
    rows = _constraint_rows(constraints, n)
    m = len(rows)
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"{m} constraints exceed the supported cap {MAX_CONSTRAINTS}")
    obj = np.array(coords)
    if m == 0:
        if np.all(obj == 0.0):
            return LpResult(0.0, np.zeros(n), "optimal")
        return LpResult(inf, None, "unbounded")

    A = np.array([coeffs for coeffs, _ in rows], dtype=float)
    rhs = np.array([c for _, c in rows], dtype=float)
    flip = rhs < 0.0
    sign = np.where(flip, -1.0, 1.0)
    A *= sign[:, None]
    art = flip.nonzero()[0].tolist()
    ncols = 2 * n + m
    total = ncols + len(art)
    T = np.zeros((m + 1, total))  # constraint rows, then the reduced costs
    T[:m, :n] = A
    T[:m, n : 2 * n] = -A
    np.fill_diagonal(T[:m, 2 * n :], sign)
    rhs = np.append(np.where(flip, -rhs, rhs), 0.0)
    basis = list(range(2 * n, ncols))
    for j, i in enumerate(art):
        T[i, ncols + j] = 1.0
        basis[i] = ncols + j

    phase1 = 0
    if art:
        cost1 = np.zeros(total)
        cost1[ncols:] = 1.0
        start, rhs0 = basis.copy(), rhs[:m].copy()
        status, phase1 = _simplex_min(T, rhs, basis, cost1, allowed=total)
        left = [i for i, b in enumerate(basis) if b >= ncols]
        empty = status != "optimal"
        if left and not empty:
            inv = T[np.ix_(left, start)]  # the starting basis columns now hold B^-1
            inv[np.abs(inv) <= PIVOT_TOL] = 0.0
            gap = inv @ rhs0 > FEASIBILITY_TOL * (np.abs(inv) @ rhs0)
            empty = rhs[left].sum() > FEASIBILITY_TOL or bool(gap.any())
        if empty:
            return LpResult(-inf, None, "infeasible", phase1)
        for i, b in enumerate(basis):
            if b >= ncols:
                candidates = (np.abs(T[i, :ncols]) > PIVOT_TOL).nonzero()[0]
                if candidates.size:
                    _pivot(T, rhs, basis, i, int(candidates[0]))
                    phase1 += 1
                # otherwise the row is redundant; the artificial stays basic at 0

    cost2 = np.zeros(total)
    cost2[:n] = -obj
    cost2[n : 2 * n] = obj
    status, phase2 = _simplex_min(T, rhs, basis, cost2, allowed=ncols)
    if status == "unbounded":
        return LpResult(inf, None, "unbounded", phase1, phase2)
    x = np.zeros(total)
    x[basis] = rhs[:m]
    witness = x[:n] - x[n : 2 * n]
    return LpResult(float(obj @ witness), witness, "optimal", phase1, phase2)


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
