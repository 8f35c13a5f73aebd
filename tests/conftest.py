"""Shared fixtures and independent oracles for the test suite.

The LP oracle enumerates basic solutions directly and never touches the
simplex code; series-side expected values come from closed forms or raw
enumeration of the coefficient rules.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from reinhardt import (
    FullGeometric,
    HalfSpace,
    HDomain,
    RayGeometric,
    SeriesSpec,
    SumRule,
    enumerate_degree,
    project,
    uniform_directions_2d,
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
