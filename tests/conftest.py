"""Shared fixtures and independent oracles for the test suite.

The LP oracle enumerates basic solutions directly and never touches the
simplex code, and the per-row simplex that the array kernel replaced is kept
as its bit-for-bit reference, as are the per-term fsum routing, direction
functional, elementary half-space and extremal sequence; series-side expected
values come from closed forms or raw enumeration of the coefficient rules.  The per-degree
terms loops that the array scans replaced are kept as the scans' reference, and
the two cross-checks' per-point counters as the verdict tally's.
"""

import cmath
import functools
import math
import random
import sys
import weakref
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import Sequence

import numpy as np
import pytest

from reinhardt import (
    EmptyWindow,
    ExplicitTable,
    FullGeometric,
    HalfSpace,
    HDomain,
    MultiIndex,
    RayGeometric,
    SeriesSpec,
    SimplexDirection,
    SumRule,
    SupportWeighted,
    enumerate_degree,
    project,
    uniform_directions_2d,
)
from reinhardt.construct import BASE_DEGREE, band_radius
from reinhardt.convex import (
    _ITERATION_CAP,
    MAX_CONSTRAINTS,
    MAX_DIMENSION,
    PIVOT_TOL,
    LpResult,
)
from reinhardt.hadamard import ELEMENTARY_DIAMETER, NotElementary, tail_window
from reinhardt.multiindex import as_direction

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


def scan_terms(series, degrees: range) -> list:
    """The rule's scan of the degrees as (J, c_J, log|c_J|/|J|) triples, for tests keyed on J."""
    entries, coefficients, logs = (a.tolist() for a in series.rule.scan(series.dimension, degrees))
    return list(zip(map(MultiIndex, map(tuple, entries)), coefficients, logs))


def brute_force_coefficients(series, degrees):
    """Every lattice index of the degrees with its coefficient, off the rule.

    Scans the whole lattice shell instead of the rule's supported indices, so
    it checks the scan without sharing its enumeration.
    """
    return {
        j: series.rule.coefficient(j)
        for k in degrees
        for j in enumerate_degree(series.dimension, k)
    }


_TRIPLES = weakref.WeakKeyDictionary()


def reference_triples(series, degrees):
    """scan_terms(series, degrees), once per series and degrees for the per-point references."""
    memo = _TRIPLES.setdefault(series, {})
    if degrees not in memo:
        memo[degrees] = tuple(scan_terms(series, degrees))
    return memo[degrees]


def brute_force_indicator(series, point, max_degree):
    """Tail-window maximum of <J/|J|, s> + log|c_J|/|J|, one term at a time.

    The per-term loop that the array kernel replaced: each inner product is
    summed left to right from 0.0, and the strict comparison skips NaN terms.
    """
    point = tuple(float(x) for x in point)
    best = -math.inf
    for j, _, v in reference_triples(series, tail_window(max_degree)):
        acc = 0.0
        for a, x in zip(project(j).coords, point):
            acc = acc + a * x
        t = acc + v
        if t > best:
            best = t
    return best


# The per-term fsum loops that the l1 distance arrays replaced, kept verbatim
# (renamed only) as their bit-for-bit references.


def reference_route_index(index, directions) -> int:
    """Row receiving this index: nearest direction in l1, ties to the smallest row."""
    pj = project(index)
    best_row = 0
    best_dist = pj.l1_distance(directions[0])
    for n in range(1, len(directions)):
        d = pj.l1_distance(directions[n])
        if d < best_dist:
            best_dist = d
            best_row = n
    return best_row


def reference_direction_functional(series, center, radius, max_degree) -> float:
    """Negative of the largest normalized log magnitude inside the window.

    +inf when no coefficient survives in the window: the direction is not
    realized at this truncation, matching an infinite support-function value
    outside the effective domain.
    """
    if center.dimension != series.dimension:
        raise ValueError("window center dimension does not match the series")
    best = -inf
    for j, _, v in reference_triples(series, tail_window(max_degree)):
        if project(j).l1_distance(center) <= radius and v > best:
            best = v
    return inf if best == -inf else -best


def reference_elementary_halfspace(series, max_degree) -> HalfSpace:
    """Half-space estimate for a series whose tail support hugs one direction.

    Checks that the projections of the supported tail indices have l1
    diameter at most ELEMENTARY_DIAMETER, then returns the half-space
    {s : <normal, s> - offset < 0} with normal the degree-weighted mean of
    the projections (higher degrees project closer to the limit direction)
    and -offset the window maximum of the normalized log magnitudes.
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    collected: list[tuple[SimplexDirection, float]] = []
    entry_sums = [0] * series.dimension
    degree_sum = 0
    for j, _, v in scan_terms(series, tail_window(max_degree)):
        if v == -inf:
            continue
        pj = project(j)
        for prev, _ in collected:
            if prev.l1_distance(pj) > ELEMENTARY_DIAMETER:
                raise NotElementary(
                    f"tail projections spread {prev.coords} .. {pj.coords}; "
                    f"diameter exceeds {ELEMENTARY_DIAMETER}"
                )
        collected.append((pj, v))
        for i, e in enumerate(j.entries):
            entry_sums[i] += e
        degree_sum += j.degree
    if not collected:
        raise NotElementary("no supported index in the tail degree window")
    normal = SimplexDirection(tuple(s / degree_sum for s in entry_sums))
    level = max(v for _, v in collected)
    return HalfSpace(normal, -level)


def reference_extremal_sequence(series, alpha, max_degree: int) -> list[MultiIndex]:
    """Per band b = 8, 16, 32, ... <= K, the best supported index near alpha.

    The per-term loop over each band's triples, reading them through
    reference_triples: largest log, then smallest fsum distance, then
    smallest index, among the indices within band_radius.
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    alpha = as_direction(alpha)
    if alpha.dimension != series.dimension:
        raise ValueError("direction dimension does not match the series")
    out: list[MultiIndex] = []
    band = BASE_DEGREE
    while band <= max_degree:
        radius = band_radius(series.dimension, band)
        best = None  # (-value, distance, index)
        for j, _, v in reference_triples(series, range(band, band + 1)):
            dist = project(j).l1_distance(alpha)
            if v == -math.inf or dist > radius:
                continue
            key = (-v, dist, j)
            if best is None or key < best:
                best = key
        if best is not None:
            out.append(best[2])
        band *= 2
    if not out:
        raise EmptyWindow(f"no supported index near {alpha.coords} in any degree band")
    return out


# The per-degree terms loops of the five rules, with the recursive lattice
# enumeration and the SumRule dict merge, that the array scans replaced, kept
# verbatim (as functions of the rule) as their bit-for-bit references.


@functools.lru_cache(maxsize=1)
def reference_enumerate_degree(dimension: int, degree: int):
    """All multi-indices of exact degree, in lexicographic order.

    Only the last degree is kept, so the dense rules checked at one degree
    share one enumeration and a large dimension holds one degree at a time.
    """
    out = []

    def emit(prefix, remaining):
        if len(prefix) == dimension - 1:
            out.append(MultiIndex(prefix + (remaining,)))
            return
        for v in range(remaining + 1):
            emit(prefix + (v,), remaining - v)

    emit((), degree)
    return tuple(out)


def _reference_log_abs_over(c, degree):
    mag = or_inf(abs, c)
    if mag == 0.0:
        return -inf
    if cmath.isinf(c):
        return inf
    if math.isinf(mag):  # finite parts whose |c| overflows: |c| = 2 |c/2|
        return (math.log(abs(c / 2)) + LN2) / degree
    return math.log(mag) / degree


def _reference_phase(c):
    """c / |c| for one member: +-1 for a real c, else c with its parts scaled into [1/2, 1)."""
    if c.imag == 0.0:
        return math.copysign(1.0, c.real)
    e = math.frexp(max(abs(c.real), abs(c.imag)))[1]
    c = complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
    return c / abs(c)


def _reference_summed_log(index, c, degree, members):
    """log|c|/|J| of a sum of two or more nonzero members, given as (c_i, log_i) pairs.

    Where c and a member with a finite log lie below the smallest normal
    float, the log-sum-exp with phases instead, over the exact sum of the
    members at or above that float (where it is nonzero) and the members below it.
    """
    if cmath.isnan(c):
        raise ValueError(
            f"sum members hold opposite infinities at index {index.entries}; "
            "the coefficient there is undefined"
        )
    tiny = sys.float_info.min
    if or_inf(abs, c) < tiny and any(
        math.isfinite(v) and or_inf(abs, ci) < tiny for ci, v in members
    ):
        normal, small = 0.0j, []
        for ci, v in members:
            if or_inf(abs, ci) >= tiny:
                normal += ci
            else:
                small.append((ci, v))
        if normal != 0.0:
            small = [(normal, _reference_log_abs_over(normal, degree))] + small
        top = max(v for _, v in small)
        total = 0.0j
        for ci, v in small:
            total += math.exp(degree * (v - top)) * _reference_phase(ci)
        return top + math.log(abs(total)) / degree if total else -inf
    return _reference_log_abs_over(c, degree)


def reference_terms(rule, dimension: int, degree: int):
    """(J, c_J, log|c_J|/|J|) for the supported J of a degree >= 1, lexicographic.

    An explicit table is read back from its JSON form, as its dict was.
    """
    if isinstance(rule, FullGeometric):
        return ((j, 1.0 + 0.0j, 0.0) for j in reference_enumerate_degree(dimension, degree))
    if isinstance(rule, RayGeometric):
        q, r = divmod(degree, rule.direction.degree)
        if r or q < 1:
            return ()
        mag = abs(rule.ratio)
        v = math.log(mag) / rule.direction.degree if mag else -inf
        return ((MultiIndex(tuple(q * e for e in rule.direction.entries)), rule._value(q), v),)
    if isinstance(rule, ExplicitTable):
        data = rule.to_json()
        items = {MultiIndex(tuple(j)): complex(*c) for j, c in zip(data["indices"], data["values"])}
        by_degree = {}
        for j, c in sorted(items.items(), key=lambda item: item[0].entries):
            if j.degree:
                by_degree.setdefault(j.degree, []).append((j, c, _reference_log_abs_over(c, j.degree)))
        return tuple(by_degree.get(degree, ()))
    if isinstance(rule, SupportWeighted):
        slot = rule.slot_of_degree(degree)
        if slot is None:
            return ()
        h = rule.values[slot[0] - 1]
        v = -h if rule.scale == 1.0 else -h + math.log(abs(rule.scale)) / degree
        return ((rule.index_at(*slot), rule._value(degree, h), v),)
    merged = {}
    for m in rule.members:
        for j, c, v in reference_terms(m, dimension, degree):
            entry = merged.setdefault(j, [0.0j, -inf, 0, []])
            entry[0] += c
            entry[3].append((c, v))
            if v != -inf:
                entry[1] = v
                entry[2] += 1
    return [
        (j, c, v if n < 2 else _reference_summed_log(j, c, degree, members))
        for j, (c, v, n, members) in sorted(merged.items(), key=lambda item: item[0].entries)
    ]


def lattice_directions(dimension: int, degree: int):
    """Projections of every degree-`degree` index: the lattice directions of that degree."""
    return [project(j) for j in enumerate_degree(dimension, degree)]


# The per-term linear scans that the coefficient table replaced, kept
# verbatim (as functions of the series) as their bit-for-bit references.
# A value past the float range reads +inf: an overflowed |c_J| beside any
# r^J, an r^J whose overflow met a zero factor, and a block whose exact sum
# overflows.


def _power(point, index) -> float:
    try:
        p = 1.0
        for base, e in zip(point, index.entries):
            if e:
                p *= base**e
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(p) else p


def or_inf(f, value) -> float:
    """f(value) for abs or fsum, and +inf where f raises OverflowError."""
    try:
        return f(value)
    except OverflowError:
        return math.inf


def reference_block_sums(series, point, max_degree):
    """B_k = sum of |c_J| r^J over |J| = k, for k = 0..max_degree."""
    r = series._check_point(point, radius=True)
    blocks = [[or_inf(abs, series.constant_term())]] + [[] for _ in range(max_degree)]
    for j, c, _ in reference_triples(series, range(1, max_degree + 1)):
        mag = or_inf(abs, c)
        if mag:
            blocks[j.degree].append(inf if mag == inf else mag * _power(r, j))
    return [or_inf(math.fsum, b) for b in blocks]


def reference_partial_sum_abs(series, point, max_degree):
    """sum of |c_J| r^J over 0 <= |J| <= max_degree, each term once, rounded once; +inf on overflow."""
    r = series._check_point(point, radius=True)
    parts = [or_inf(abs, series.constant_term())]
    for j, c, _ in reference_triples(series, range(1, max_degree + 1)):
        mag = or_inf(abs, c)
        if mag:
            parts.append(inf if mag == inf else mag * _power(r, j))
    return or_inf(math.fsum, parts)


def reference_slice_coefficients(series, point, max_degree):
    r = series._check_point(point, positive=True)
    out = [series.constant_term()] + [0.0j] * max_degree
    for j, c, _ in reference_triples(series, range(1, max_degree + 1)):
        out[j.degree] += c * _power(r, j)
    return out


# The per-point counters that agreement_grid and sum_domain_check each kept
# before oracle.tally, kept verbatim (over tally's rows) as its reference.


def reference_tally(rows):
    points = 0
    decisive = 0
    agree = 0
    mismatches = []
    for s, left, right, same in rows:
        points += 1
        if same is None:
            continue
        decisive += 1
        if same:
            agree += 1
        else:
            mismatches.append((s, left, right))
    agreement = agree / decisive if decisive else 1.0
    return points, decisive, agreement, tuple(mismatches)


def _index(degree, dimension, lead=0):
    """A degree-`degree` index with its bulk on coordinate `lead`."""
    entries = [1] * dimension
    entries[lead % dimension] = degree - (dimension - 1)
    return tuple(entries)


def differential_rules(n):
    """Every rule kind at dimension n, with the edge values the array kernels must keep."""
    diag, axis = (1.0 / n,) * n, (1.0,) + (0.0,) * (n - 1)
    ray = tuple(range(1, n + 1))
    table = {
        _index(d, n, d): c
        for d, c in [(3, 1.5), (5, 3.0), (6, 0.0), (9, -2.0j), (40, 0.0), (100, 7.0)]
    }
    sw_dirs, sw_values = ((diag, axis), (0.3, -0.2)) if n > 1 else ((axis,), (0.3,))
    weighted = SupportWeighted(sw_dirs, sw_values, per_row=80, base=4)
    # e^(-40 |J|) is below the smallest normal float from degree 18 on
    sw40, sw40_negated = (SupportWeighted([diag], [40.0], per_row=130, base=1, scale=scale)
                          for scale in (1.0, -1.0))
    big = complex(1.7e308, 1.7e308)
    return {
        "full_geometric": FullGeometric(),
        "ray_geometric": RayGeometric(ray, 1.5 - 0.5j),
        "ray_geometric_zero_ratio": RayGeometric(ray, 0.0),
        "explicit_table_with_zeros": ExplicitTable(table),
        "explicit_table_with_inf": ExplicitTable({**table, _index(6, n, 1): inf}),
        "explicit_table_empty_window": ExplicitTable({_index(3, n): 2.0, (0,) * n: 1.0}),
        "support_weighted": weighted,
        "support_weighted_h0": SupportWeighted([diag], [0.0], per_row=130, base=1),
        "support_weighted_scaled": SupportWeighted(sw_dirs, sw_values, per_row=80, base=4,
                                                   scale=-0.375),
        "sum_dense": SumRule([FullGeometric(), RayGeometric((1,) * n, 2.0), ExplicitTable(table)]),
        # members that underflowed: their merged log keeps -40 in closed form
        "sum_underflow": SumRule([sw40, sw40, sw40_negated]),
        # beside sw40, normal members that cancel exactly (degrees 20, 40) or
        # leave a nonzero sum below the smallest normal float (degree 30)
        "sum_cancel_underflow": SumRule([
            ExplicitTable({sw40.index_at(1, 20): big, sw40.index_at(1, 30): 3e-308,
                           sw40.index_at(1, 40): -big.conjugate()}),
            ExplicitTable({sw40.index_at(1, 20): -big, sw40.index_at(1, 30): -2.9e-308,
                           sw40.index_at(1, 40): big.conjugate()}),
            sw40,
        ]),
        # opposite infinities meet at one index, where the sum is undefined
        "sum_nan_log": SumRule(
            [weighted, ExplicitTable({_index(6, n): inf}), ExplicitTable({_index(6, n): -inf})]
        ),
    }


def scan_refuses(series, max_degree) -> bool:
    """Whether the terms scan of degrees 1..max_degree meets an undefined coefficient.

    Every query at truncation K reads that one scan, so wherever it raises
    every estimator, decomposer and probe at K must raise too.
    """
    try:
        for _ in scan_terms(series, range(1, max_degree + 1)):
            pass
    except ValueError:
        return True
    return False


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
# replaced, kept as the bit-for-bit reference; it takes the kernel's shifted
# start, with no phase one, and its tie window of 1e-12 |best|.


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
                if leave < 0 or ratio < best - 1e-12 * abs(best):
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-12 * abs(best) and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return math.nan, "unbounded"
        _reference_pivot(T, rhs, basis, leave, enter)
        c = red[enter]
        if c != 0.0:
            red -= c * T[leave]
    raise ArithmeticError("simplex iteration cap exceeded")


def reference_lp_maximize(objective: Sequence[float], constraints: HDomain) -> LpResult:
    """Supremum of <objective, s> over the closure of an H-domain {<a_i, s> < c_i}.

    The variables are free; internally s - t0 (1, ..., 1), t0 = min(0, min_i c_i),
    splits as u - v with u, v >= 0 and a slack per row, and the slack basis
    is feasible from the start.
    """
    obj = np.asarray(tuple(float(x) for x in objective), dtype=float)
    n = obj.size
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
    if n != constraints.dimension:
        raise ValueError(f"objective has dimension {n}, domain has {constraints.dimension}")
    rows = constraints.constraint_rows()
    m = len(rows)
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"{m} constraints exceed the supported cap {MAX_CONSTRAINTS}")
    if m == 0:
        if np.all(obj == 0.0):
            return LpResult(0.0, np.zeros(n), "optimal")
        return LpResult(inf, None, "unbounded")

    A = np.array([coeffs for coeffs, _ in rows], dtype=float)
    c = np.array([c for _, c in rows], dtype=float)
    t0 = min(0.0, float(c.min()))
    rhs = np.maximum(c - t0 * A.sum(axis=1), 0.0)
    ncols = 2 * n + m
    T = np.zeros((m, ncols))
    T[:, :n] = A
    T[:, n : 2 * n] = -A
    T[:, 2 * n :] = np.eye(m)
    basis = np.arange(2 * n, ncols)

    cost = np.zeros(ncols)
    cost[:n] = -obj
    cost[n : 2 * n] = obj
    _, status = _reference_simplex_min(T, rhs, basis, cost, allowed=ncols)
    if status == "unbounded":
        return LpResult(inf, None, "unbounded")
    x = np.zeros(ncols)
    for i in range(m):
        x[basis[i]] = rhs[i]
    witness = x[:n] - x[n : 2 * n] + t0
    return LpResult(float(obj @ witness), witness, "optimal")


def hdomain(rows) -> HDomain:
    """The H-domain of (normal, offset) rows, whose normals lie on the simplex."""
    return HDomain(len(rows[0][0]), tuple(HalfSpace(a, c) for a, c in rows))


# H-domains with every offset negative, down to -1e9, in the shapes that
# raw rows once made infeasible; each holds t (1, ..., 1) for t below its
# least offset.
NEGATIVE_DOMAINS = (
    hdomain([((1.0, 0.0), -1e9), ((0.0, 1.0), -1.0)]),
    hdomain([((0.0, 1.0), -2.0), ((0.5, 0.5), -3.0)]),
    hdomain([((0.5, 0.5), -0.5), ((1.0, 0.0), -1e-12), ((0.25, 0.75), -7.5)]),
    hdomain([((1.0, 0.0, 0.0), -1.0), ((0.0, 1.0, 0.0), -2.0), ((0.25, 0.25, 0.5), -1e9)]),
    hdomain([((0.5, 0.5), -1.0), ((0.5, 0.5), -1e9), ((0.0, 1.0), -1e6)]),
)


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


def _solve_exact(A, b):
    """x with A x = b for a square Fraction system, or None when A is singular."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


_VERTICES = weakref.WeakKeyDictionary()


def _exact_vertices(domain) -> list:
    """The vertices of the closed H-domain in Fractions, once per domain."""
    if domain not in _VERTICES:
        rows = [([Fraction(a) for a in hs.normal.coords], Fraction(hs.offset))
                for hs in domain.halfspaces]
        vertices = []
        for subset in combinations(rows, domain.dimension):
            v = _solve_exact([a for a, _ in subset], [c for _, c in subset])
            if v is not None and all(sum(x * y for x, y in zip(a, v)) <= c for a, c in rows):
                vertices.append(v)
        _VERTICES[domain] = vertices
    return _VERTICES[domain]


def exact_support(domain, alpha) -> Fraction:
    """max <alpha, s> over the closed H-domain, by vertex enumeration in Fractions.

    The floats of the normals, offsets and alpha are taken as the rationals
    they are.  Assumes the maximum is attained at a vertex, as when the
    region is pointed toward alpha.
    """
    alpha = [Fraction(a) for a in as_direction(alpha).coords]
    return max((sum(x * y for x, y in zip(alpha, v)) for v in _exact_vertices(domain)),
               default=None)


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
