"""Half-space geometry, a dense linear-programming core and exact 2-D envelopes.

An H-domain is a finite intersection of open half-spaces with normals on the
probability simplex.  All quantitative questions about such regions reduce to
maximizing a linear functional over the closed region.  No H-domain is
empty, since it holds t (1, ..., 1) for every t below its least offset, so a
small dense-tableau simplex starts from a feasible basis there and needs no
phase one; Bland's entering rule guards against cycling, and ratios within
1e-12 of their size tie.

With simplex normals, LP duality makes the support function the lower convex
envelope of the points (a_i, c_i), +inf outside conv{a_i} (V. Chvatal,
Linear Programming, 1983).  At N = 2 that is a lower hull over the first
normal coordinate, built once per domain by Andrew's monotone chain with
exactly decided turns, so two-variable support values never reach the
simplex.  On top of the support function sit the convex closure of a sampled
positively homogeneous function (computed as the support function of the
polyhedron carved by the samples, so only homogeneous linear minorants
participate), and the reduction of a region to the supporting half-spaces of
a prescribed direction subset.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
MAX_DIMENSION = 16
MAX_CONSTRAINTS = 10_000
_ITERATION_CAP = 100_000
_TURN_ERR = 4 * 2.0**-53  # >= (3 + 16 eps) eps, Shewchuk's bound for the turn determinant


class EmptyDomain(ValueError):
    """A sample of -inf: the region it bounds is empty."""


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
    """Finite intersection of half-spaces; never empty, as it holds t (1, ..., 1) for small t."""

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

    @cached_property
    def _lower_hull(self) -> tuple[list[float], list[float]]:
        """At N = 2, the lower hull of the points (a_i1, c_i): its abscissas and offsets.

        Andrew's monotone chain (IPL 9(5), 1979) over the rows sorted by their
        first normal coordinate; a repeated normal keeps its least offset.
        """
        hull = []
        for point in sorted((hs.normal.coords[0], hs.offset) for hs in self.halfspaces):
            if hull and hull[-1][0] == point[0]:
                continue
            while len(hull) >= 2 and not _turns_left(hull[-2], hull[-1], point):
                hull.pop()
            hull.append(point)
        return [x for x, _ in hull], [c for _, c in hull]

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

    @cached_property
    def domain(self) -> HDomain:
        """The H-domain {<beta_i, s> < v_i} that the finite samples carve."""
        return HDomain(self.dimension, tuple(HalfSpace(d, v) for d, v in self.finite_samples()))

    def to_json(self) -> dict:
        return {
            "directions": [list(d.coords) for d in self.directions],
            "values": [v if math.isfinite(v) else "inf" for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SampledFunction":
        values = [inf if v == "inf" else v for v in data["values"]]
        return cls(data["directions"], tuple(values))


def _turns_left(o, a, b) -> bool:
    """Whether o -> a -> b turns strictly counter-clockwise, decided exactly.

    The float determinant decides where it is finite and clear of its rounding
    bound (J. R. Shewchuk, Discrete Comput. Geom. 18, 1997), with the smallest
    normal float as slack for underflowed products; Fractions decide the rest.
    """
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    det = left - right
    if math.isfinite(det) and abs(det) > _TURN_ERR * (abs(left) + abs(right)) + sys.float_info.min:
        return det > 0.0
    (ox, oy), (ax, ay), (bx, by) = ((Fraction(x), Fraction(y)) for x, y in (o, a, b))
    return (ax - ox) * (by - oy) > (ay - oy) * (bx - ox)


@dataclass
class LpResult:
    value: float
    witness: Optional[np.ndarray]
    status: str  # "optimal" | "unbounded"
    pivots: int = 0


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


def _simplex_min(T, rhs, basis):
    """Minimize from a feasible slack basis with Bland's rule.

    Returns (status, pivots), status "optimal" or "unbounded".  The reduced
    costs live in the last row of T, which starts as the cost itself since
    every slack costs 0.
    """
    reduced = T[-1]
    for pivots in range(_ITERATION_CAP):
        enter = int((reduced < -PIVOT_TOL).argmax())
        if not reduced[enter] < -PIVOT_TOL:
            return "optimal", pivots
        col = T[:-1, enter]
        t, b = col.tolist(), rhs.tolist()
        leave = -1
        lo = hi = inf  # ratios within 1e-12 |best| of the best tie; Bland breaks ties
        for i in (col > PIVOT_TOL).nonzero()[0].tolist():
            ratio = b[i] / t[i]
            if ratio < lo:
                window = 1e-12 * abs(ratio)
                lo = ratio - window
                hi = ratio + window
                leave = i
            elif ratio <= hi and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(T, rhs, basis, leave, enter)
    raise ArithmeticError("simplex iteration cap exceeded")


@np.errstate(over="raise", invalid="raise")
def lp_maximize(objective: Sequence[float], constraints: HDomain) -> LpResult:
    """Supremum of <objective, s> over the closure of an H-domain {<a_i, s> < c_i}.

    Every normal a_i lies on the simplex, so the region holds t0 (1, ..., 1)
    for t0 = min(0, min_i c_i).  The variables are free; internally
    s - t0 (1, ..., 1) splits as u - v with u, v >= 0 and a slack per row,
    whose right-hand sides c_i - t0 sum_j a_ij are >= 0, so the slack basis
    is feasible from the start.  Anything but an HDomain raises TypeError, a
    non-finite objective entry ValueError, and an overflowing tableau
    FloatingPointError (an ArithmeticError).
    """
    if not isinstance(constraints, HDomain):
        raise TypeError(f"constraints must be an HDomain, got {type(constraints).__name__}")
    coords = tuple(float(x) for x in objective)
    n = len(coords)
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
    if not all(map(math.isfinite, coords)):
        raise ValueError("objective entries must be finite")
    if n != constraints.dimension:
        raise ValueError(f"objective has dimension {n}, domain has {constraints.dimension}")
    rows = constraints.constraint_rows()
    m = len(rows)
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"{m} constraints exceed the supported cap {MAX_CONSTRAINTS}")
    obj = np.array(coords)
    if m == 0:
        if np.all(obj == 0.0):
            return LpResult(0.0, np.zeros(n), "optimal")
        return LpResult(inf, None, "unbounded")

    A = np.array([coeffs for coeffs, _ in rows])
    c = np.array([offset for _, offset in rows])
    t0 = min(0.0, float(c.min()))
    T = np.zeros((m + 1, 2 * n + m))  # constraint rows, then the reduced costs
    T[:m, :n] = A
    T[:m, n : 2 * n] = -A
    np.fill_diagonal(T[:m, 2 * n :], 1.0)
    T[m, :n] = -obj
    T[m, n : 2 * n] = obj
    rhs = np.append(np.maximum(c - t0 * A.sum(axis=1), 0.0), 0.0)  # >= 0 against rounding
    basis = list(range(2 * n, 2 * n + m))
    status, pivots = _simplex_min(T, rhs, basis)
    if status == "unbounded":
        return LpResult(inf, None, "unbounded", pivots)
    x = np.zeros(2 * n + m)
    x[basis] = rhs[:m]
    witness = x[:n] - x[n : 2 * n] + t0
    return LpResult(float(obj @ witness), witness, "optimal", pivots)


def support_value(domain: HDomain, alpha) -> float:
    """Support function sup{<alpha, s> : s in closure(domain)}.

    +inf when the region is unbounded in the direction alpha (a value, not an
    error).  At N = 2 the value is read off the domain's lower hull of
    (a_i1, c_i): +inf where alpha_1 lies outside the normals' range, else the
    offsets of the hull segment over alpha_1 interpolated as
    (1 - t) c_j + t c_k, which cannot overflow.  Each normal counts as
    (a_i1, 1 - a_i1).  Every other dimension, and every argument error, goes
    to lp_maximize.  A zero value is +0.0 on both paths.
    """
    coords = as_direction(alpha).coords
    if not (isinstance(domain, HDomain) and domain.dimension == len(coords) == 2):
        return lp_maximize(coords, domain).value
    xs, offsets = domain._lower_hull
    x = coords[0]
    if not (xs and xs[0] <= x <= xs[-1]):
        return inf
    k = bisect_left(xs, x)
    if xs[k] == x:
        return offsets[k] + 0.0
    cj, ck = offsets[k - 1], offsets[k]
    t = (x - xs[k - 1]) / (xs[k] - xs[k - 1])
    # a convex combination of cj and ck; the clamp only undoes rounding past them
    return min(max((1.0 - t) * cj + t * ck, min(cj, ck)), max(cj, ck)) + 0.0


def convex_closure_value(f: SampledFunction, alpha) -> float:
    """Greatest closed convex minorant of the sampled function, at alpha.

    Equals sup{<alpha, s> : <beta_i, s> <= v_i for all finite samples}: the
    support function of the polyhedron carved by the samples, f.domain.  The
    constraints are homogeneous linear functionals with no constant term, so
    for positively homogeneous data the envelope is again positively
    homogeneous.  +inf samples impose no constraint; with no finite samples
    the value is +inf for every nonzero direction.
    """
    return support_value(f.domain, alpha)


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
