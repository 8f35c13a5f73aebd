"""Shared fixtures and independent oracles for the test suite.

The LP oracle enumerates basic solutions directly and never touches the
simplex code, and the per-row simplex that the array kernel replaced is kept
as its bit-for-bit reference; series-side expected values come from closed
forms or raw enumeration of the coefficient rules.
"""

import math
import random
from itertools import combinations
from math import inf
from typing import Sequence

import numpy as np
import pytest

from reinhardt import (
    ExplicitTable,
    FullGeometric,
    HalfSpace,
    HDomain,
    RayGeometric,
    SeriesSpec,
    SumRule,
    SupportWeighted,
    enumerate_degree,
    project,
    uniform_directions_2d,
)
from reinhardt.convex import (
    _ITERATION_CAP,
    FEASIBILITY_TOL,
    MAX_CONSTRAINTS,
    MAX_DIMENSION,
    PIVOT_TOL,
    LpResult,
    _constraint_rows,
)
from reinhardt.hadamard import tail_window

LN2 = math.log(2.0)


@pytest.fixture(scope="session")
def full_geom():
    return SeriesSpec(2, FullGeometric(), "full geometric")


@pytest.fixture(scope="session")
def ray_diag():
    return SeriesSpec(2, RayGeometric((1, 1), 2.0), "diagonal ray, ratio 2")


@pytest.fixture(scope="session")
def f_zero():
    return SeriesSpec(
        2, SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)]), "geometric + diagonal spike"
    )


@pytest.fixture(scope="session")
def third_quadrant():
    return HDomain(
        2,
        (HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)),
    )


@pytest.fixture(scope="session")
def wedge_domain():
    return HDomain(
        2,
        (
            HalfSpace((1.0, 0.0), 0.0),
            HalfSpace((0.0, 1.0), 0.0),
            HalfSpace((0.5, 0.5), -LN2 / 2),
        ),
    )


@pytest.fixture(scope="session")
def triangle_domain():
    # third normal deliberately off the 11-direction grid
    return HDomain(
        2,
        (
            HalfSpace((1.0, 0.0), 0.5),
            HalfSpace((0.0, 1.0), 0.5),
            HalfSpace((0.37, 0.63), -0.4),
        ),
    )


def grid2(lo, hi, count):
    axis = [lo + i * (hi - lo) / (count - 1) for i in range(count)]
    return [(x, y) for x in axis for y in axis]


def coeff_table(series, max_degree):
    """Occurring coefficients up to the truncation, straight off the rule."""
    out = {}
    for k in range(1, max_degree + 1):
        for j in series.supported_indices(k):
            c = series.coefficient(j)
            if c != 0:
                out[j] = c
    return out


def brute_force_coefficients(series, degrees):
    """Every lattice index of the degrees with its coefficient, off the rule.

    Scans the whole lattice shell instead of the rule's supported indices, so
    it checks SeriesSpec.terms without sharing its enumeration.
    """
    return {
        j: series.rule.coefficient(j)
        for k in degrees
        for j in enumerate_degree(series.dimension, k)
    }


def brute_force_indicator(series, point, max_degree):
    """Tail-window maximum of <J/|J|, s> + log|c_J|/|J|, one term at a time.

    The per-term loop that the array kernel replaced: each inner product is
    summed left to right from 0.0, and the strict comparison skips NaN terms.
    """
    point = tuple(float(x) for x in point)
    best = -math.inf
    for j, _, v in series.terms(tail_window(max_degree)):
        acc = 0.0
        for a, x in zip(project(j).coords, point):
            acc = acc + a * x
        t = acc + v
        if t > best:
            best = t
    return best


# The per-term linear scans that the coefficient table replaced, kept
# verbatim (as functions of the series) as their bit-for-bit references.


def _power(point, index) -> float:
    try:
        p = 1.0
        for base, e in zip(point, index.entries):
            if e:
                p *= base**e
        return p
    except OverflowError:
        return math.inf


def reference_block_sums(series, point, max_degree):
    """B_k = sum of |c_J| r^J over |J| = k, for k = 0..max_degree."""
    r = series._check_point(point, radius=True)
    blocks = [[abs(series.constant_term())]] + [[] for _ in range(max_degree)]
    for j, c, _ in series.terms(range(1, max_degree + 1)):
        mag = abs(c)
        if mag:
            blocks[j.degree].append(mag * _power(r, j))
    return [math.fsum(b) for b in blocks]


def reference_partial_sum_abs(series, point, max_degree):
    r = series._check_point(point, radius=True)
    parts = [abs(series.constant_term())]
    for j, c, _ in series.terms(range(1, max_degree + 1)):
        mag = abs(c)
        if mag == 0.0:
            continue
        t = mag * _power(r, j)
        if math.isinf(t):
            return math.inf
        parts.append(t)
    return math.fsum(parts)


def reference_slice_coefficients(series, point, max_degree):
    r = series._check_point(point, positive=True)
    out = [series.constant_term()] + [0.0j] * max_degree
    for j, c, _ in series.terms(range(1, max_degree + 1)):
        out[j.degree] += c * _power(r, j)
    return out


def same_float(a: float, b: float) -> bool:
    """Bit-level equality up to NaN payloads: == plus the sign bit, NaN equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def linear_scan_corpus(dimension: int, max_degree: int):
    """Series of every rule kind for the linear-scan references at one dimension.

    Covers supported zeros (exact cancellation in a sum, a zero ratio, an
    explicit zero, an underflowing weight), complex and signed-zero
    coefficients, and overflowed coefficients (+inf).  The full geometric
    member is left out where its shell would make the references slow.
    """
    n = dimension
    diagonal = (1,) * n
    rng = random.Random(7 * n + max_degree)
    table = {}
    for _ in range(40):
        j = tuple(rng.randrange(0, max_degree // n + 1) for _ in range(n))
        if sum(j):
            table[j] = complex(rng.choice([0.0, -0.0, 1.5, -2.0, 1e300]), rng.choice([0.0, -0.0, 0.25]))
    table[(max_degree,) + (0,) * (n - 1)] = 0.0
    axes = [tuple(1.0 if i == r else 0.0 for i in range(n)) for r in range(n)]
    rules = [
        ExplicitTable(table),
        RayGeometric(diagonal, 0.0),
        RayGeometric((2,) + (1,) * (n - 1), 0.3 - 1.2j),
        RayGeometric(diagonal, 1e10),
        SupportWeighted(axes, [-30.0] + [0.5] * (n - 1), per_row=max_degree, base=1),
        SupportWeighted([(1.0 / n,) * n], [800.0], per_row=max_degree, base=1),
        SumRule([ExplicitTable(table), RayGeometric(diagonal, -1.0), RayGeometric(diagonal, 1.0)]),
    ]
    if math.comb(max_degree + n, n) < 60_000:
        rules.append(SumRule([FullGeometric(), RayGeometric(diagonal, -1.0)]))
    return [SeriesSpec(n, rule, rule.kind) for rule in rules]


def linear_scan_radii(dimension: int):
    """Radii at 0, -0.0, subnormal, 1 and large values, overflowing beside a zero too."""
    n = dimension
    rest = (0.5,) * (n - 1)
    return [
        (0.0,) * n,
        (-0.0,) + rest,
        (5e-324,) * n,
        (1e-310,) + (1.0,) * (n - 1),
        (1.0,) * n,
        (0.9,) + (1.1,) * (n - 1),
        (1e10,) + (0.0,) * (n - 1),
        (1e200,) * max(n - 1, 1) + (0.0,) * min(n - 1, 1),
        (1e200,) + (1e-300,) * (n - 1),
    ]


# The per-row simplex that the whole-tableau kernel in reinhardt.convex
# replaced, kept verbatim (renamed only) as the bit-for-bit reference.


def _reference_pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int):
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


def _reference_simplex_min(T, rhs, basis, cost, allowed):
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
        _reference_pivot(T, rhs, basis, leave, enter)
        c = red[enter]
        if c != 0.0:
            red -= c * T[leave]
    raise ArithmeticError("simplex iteration cap exceeded")


def reference_lp_maximize(objective: Sequence[float], constraints) -> LpResult:
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
        z1, status = _reference_simplex_min(T, rhs, basis, cost1, allowed=total)
        if status != "optimal" or z1 > FEASIBILITY_TOL:
            return LpResult(-inf, None, "infeasible")
        for i in range(m):
            if basis[i] >= ncols:
                piv = next(
                    (j for j in range(ncols) if abs(T[i, j]) > PIVOT_TOL), None
                )
                if piv is not None:
                    _reference_pivot(T, rhs, basis, i, piv)
                # otherwise the row is redundant; the artificial stays basic at 0

    cost2 = np.zeros(total)
    cost2[:n] = -obj
    cost2[n : 2 * n] = obj
    _, status = _reference_simplex_min(T, rhs, basis, cost2, allowed=ncols)
    if status == "unbounded":
        return LpResult(inf, None, "unbounded")
    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = rhs[i]
    witness = x[:n] - x[n : 2 * n]
    return LpResult(float(obj @ witness), witness, "optimal")


def vertex_support_oracle(rows, objective):
    """max of objective over {a_i . s <= c_i} by basic-solution enumeration.

    Assumes the maximum is attained at a vertex (true when the region is
    pointed toward the objective, e.g. axis caps present and objective >= 0).
    Returns -inf if no feasible basic solution exists.
    """
    n = len(objective)
    best = -math.inf
    for subset in combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in subset], dtype=float)
        b = np.array([rows[i][1] for i in subset], dtype=float)
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        v = np.linalg.solve(A, b)
        if all(np.dot(rows[i][0], v) <= rows[i][1] + 1e-9 for i in range(len(rows))):
            best = max(best, float(np.dot(objective, v)))
    return best


def hrep_boundary_points(domain, interior, targets):
    """Exact boundary crossings of rays from an interior point, off the H-rep."""
    out = []
    for target in targets:
        direction = [t - s for t, s in zip(target, interior)]
        best_t = math.inf
        for hs in domain.halfspaces:
            slope = sum(a * d for a, d in zip(hs.normal.coords, direction))
            if slope > 1e-12:
                t = (hs.offset - sum(a * s for a, s in zip(hs.normal.coords, interior))) / slope
                if 0 < t < best_t:
                    best_t = t
        assert math.isfinite(best_t), "ray never leaves the region"
        out.append(tuple(s + best_t * d for s, d in zip(interior, direction)))
    return out


def band_distance(domain, point):
    """l1 distance from the point to the nearest constraint hyperplane."""
    return min(
        abs(hs.value(point)) / max(hs.normal.coords) for hs in domain.halfspaces
    )


@pytest.fixture(scope="session")
def directions_25():
    return uniform_directions_2d(25)


@pytest.fixture(scope="session")
def constructed_wedge_series(wedge_domain, directions_25):
    from reinhardt import series_for_domain

    return series_for_domain(wedge_domain, directions_25, per_row=8)
