"""Decompositions of a series into elementary and wedge summands.

decompose_elementary routes every lattice index of degree up to the working
truncation to the nearest prescribed direction, turning a series into
monomial-wise disjoint sub-series: the coefficients are moved, never
transformed, so the partition is exact to the bit.  Each row receives a
half-space estimate from the tail window of its own coefficients; rows with
an empty tail window keep an infinite level and an empty half-space marker
rather than being dropped, so the partition stays exhaustive.

decompose_simple combines each routed row with the matching row of the
realizing series for the prescribed region, then telescopes: with
f_0/0 := 0, part n is (g_n + f_n/n) - f_(n-1)/(n-1), where the inner sum
combines like terms.  Partial sums collapse to sum(g_n) + f_M/M exactly, and
part n >= 2 converges precisely on the wedge cut by the supporting
half-spaces at directions n and n-1.

sum_domain_check compares membership for a sum of support-disjoint series
against the conjunction of per-part memberships, which agree for finite
families; when the tail window sees no coefficient at all the verdicts are
vacuous and the report flags that only the containment direction of the
finite-family statement is being exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import inf
from typing import Optional

from .construct import series_for_domain
from .convex import HalfSpace, HDomain, SampledFunction, reduce_to_dense_subset
from .hadamard import DirectionWindow, Membership, classify, direction_functional, tail_window
from .multiindex import MultiIndex, SimplexDirection, as_directions, project
from .series import ExplicitTable, SeriesSpec, SumRule

__all__ = [
    "ElementaryDecomposition",
    "ElementaryPart",
    "NeedTwoDirections",
    "SimpleDecomposition",
    "SimplePart",
    "SumDomainReport",
    "SupportsOverlap",
    "decompose_elementary",
    "decompose_simple",
    "estimate_domain",
    "sum_domain_check",
]

class NeedTwoDirections(ValueError):
    """Wedge decompositions need at least two distinct directions."""


class SupportsOverlap(ValueError):
    """Two parts share an occurring monomial."""

    def __init__(self, index: MultiIndex):
        super().__init__(f"parts share the monomial at {index.entries}")
        self.index = index


def route_index(index: MultiIndex, directions) -> int:
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


@dataclass(frozen=True)
class ElementaryPart:
    """One routed sub-series with its half-space estimate.

    level is the tail-window maximum of log|c_J|/|J| over the row (the
    boundary level of the estimated half-space, +inf when the window is
    empty); halfspace is {<direction, s> + level < 0}, or None for the empty
    estimate.
    """

    series: SeriesSpec
    direction: SimplexDirection
    level: float
    halfspace: Optional[HalfSpace]


@dataclass(frozen=True)
class ElementaryDecomposition:
    parts: tuple[ElementaryPart, ...]
    constant_part: complex
    assignment: dict[MultiIndex, int] = field(repr=False)
    truncation: int


def decompose_elementary(
    series: SeriesSpec,
    directions,
    max_degree: int,
    absorb_constant: bool = False,
) -> ElementaryDecomposition:
    """Partition the series along prescribed directions, exactly.

    Every index with 1 <= |J| <= max_degree goes to the row of the nearest
    direction (ties to the smallest row); occurring coefficients are copied
    into the row tables unchanged.  The constant term is reported separately
    unless absorb_constant moves it into row 0.
    """
    dirs = as_directions(directions)
    if dirs[0].dimension != series.dimension:
        raise ValueError("direction dimension does not match the series")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    tables: list[dict[MultiIndex, complex]] = [{} for _ in dirs]
    levels = [-inf] * len(dirs)
    assignment: dict[MultiIndex, int] = {}
    window_start = tail_window(max_degree).start
    for j, c, v in series.terms(range(1, max_degree + 1)):
        row = route_index(j, dirs)
        assignment[j] = row
        if c != 0:
            tables[row][j] = c
            if j.degree >= window_start and v > levels[row]:
                levels[row] = v
    constant = series.constant_term()
    if absorb_constant and constant != 0:
        tables[0][series.zero_index] = constant
        constant = 0.0j

    parts = []
    for n, (alpha, level) in enumerate(zip(dirs, levels)):
        if level == -inf:
            level = inf
            halfspace = None
        else:
            halfspace = HalfSpace(alpha, -level)
        part_series = SeriesSpec(
            series.dimension, ExplicitTable(tables[n]), label=f"routed part {n}"
        )
        parts.append(ElementaryPart(part_series, alpha, level, halfspace))
    return ElementaryDecomposition(tuple(parts), constant, assignment, max_degree)


@dataclass(frozen=True)
class SimplePart:
    """One wedge summand; the first part has a single bounding half-space."""

    series: SeriesSpec
    direction: SimplexDirection
    wedge: Optional[tuple[HalfSpace, HalfSpace]]


@dataclass(frozen=True)
class SimpleDecomposition:
    parts: tuple[SimplePart, ...]
    g_rows: tuple[SeriesSpec, ...]
    f_rows: tuple[SeriesSpec, ...]
    halfspaces: tuple[HalfSpace, ...]
    truncation: int


def _scaled(c: complex, t: float) -> complex:
    """c * t, except that an overflowed inf + 0j scales to inf + 0j, not inf + nanj."""
    return c * t if abs(c) < inf else complex(c.real * t, c.imag * t)


def decompose_simple(
    series: SeriesSpec,
    domain: HDomain,
    directions,
    max_degree: int,
) -> SimpleDecomposition:
    """Wedge decomposition at the working truncation.

    g_n are the routed rows of the series, f_n the rows of the realizing
    series for the region.  Part tables are explicit at the truncation: the
    rule language stays closed and the telescoping identity
    sum(sigma_n) = sum(g_n) + f_M/M holds coefficient for coefficient.
    """
    dirs = as_directions(directions)
    if len(dirs) < 2:
        raise NeedTwoDirections("wedges need at least two distinct directions")
    eld = decompose_elementary(series, dirs, max_degree)
    f_spec = series_for_domain(domain, dirs, per_row=max_degree)
    f_rule = f_spec.rule
    m = len(dirs)
    halfspaces = tuple(
        HalfSpace(dirs[n], f_rule.values[n]) for n in range(m)
    )
    f_rows = tuple(
        SeriesSpec(series.dimension, f_rule.row(n + 1), label=f"realizing row {n}")
        for n in range(m)
    )
    f_tables = [{j: c for j, c, _ in f.terms(range(1, max_degree + 1))} for f in f_rows]
    g_rows = tuple(p.series for p in eld.parts)

    parts = []
    for n in range(m):
        combined = dict(eld.parts[n].series.rule.table)
        scale = 1.0 / (n + 1)
        for j, c in f_tables[n].items():
            combined[j] = combined.get(j, 0.0j) + _scaled(c, scale)
        if n == 0:
            rule = ExplicitTable(combined)
            wedge = None
        else:
            prev_scale = 1.0 / n
            negated = {j: _scaled(-c, prev_scale) for j, c in f_tables[n - 1].items()}
            rule = SumRule([ExplicitTable(combined), ExplicitTable(negated)])
            wedge = (halfspaces[n], halfspaces[n - 1])
        part_series = SeriesSpec(series.dimension, rule, label=f"wedge part {n}")
        parts.append(SimplePart(part_series, dirs[n], wedge))
    return SimpleDecomposition(tuple(parts), g_rows, f_rows, halfspaces, max_degree)


@dataclass(frozen=True)
class SumDomainReport:
    points: int
    decisive: int
    agreement: float
    disagreements: tuple
    containment_only: bool


def sum_domain_check(
    parts,
    max_degree: int,
    grid_points,
    epsilon: float = 0.05,
) -> SumDomainReport:
    """Compare the sum's membership against the conjunction of part memberships.

    Parts must be monomial-wise disjoint up to the truncation (violation
    raises SupportsOverlap with a witness).  At each log-point the sum is
    classified and compared with: outside if any part is outside, inside if
    all parts are inside, otherwise unknown.  Agreement is reported over the
    points where both sides are decisive; for a finite family the two tests
    estimate the same region.  containment_only flags a sum with an empty
    tail window, where every verdict is vacuously inside.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one part")
    dim = parts[0].dimension
    seen: set[MultiIndex] = set()
    for p in parts:
        if p.dimension != dim:
            raise ValueError("parts have mixed dimensions")
        for j, c, _ in p.terms(range(1, max_degree + 1)):
            if c == 0:
                continue
            if j in seen:
                raise SupportsOverlap(j)
            seen.add(j)
    total = SeriesSpec(dim, SumRule([p.rule for p in parts]), label="sum of parts")

    tail_occupied = any(c != 0 for _, c, _ in total.terms(tail_window(max_degree)))

    points = 0
    decisive = 0
    agree = 0
    disagreements = []
    for s in grid_points:
        points += 1
        v_sum = classify(total, s, max_degree, epsilon)
        verdicts = [classify(p, s, max_degree, epsilon) for p in parts]
        if any(v.membership is Membership.OUTSIDE for v in verdicts):
            v_and = Membership.OUTSIDE
        elif all(v.membership is Membership.INSIDE for v in verdicts):
            v_and = Membership.INSIDE
        else:
            v_and = Membership.UNKNOWN
        if v_sum.membership is Membership.UNKNOWN or v_and is Membership.UNKNOWN:
            continue
        decisive += 1
        if v_sum.membership is v_and:
            agree += 1
        else:
            disagreements.append((tuple(s), v_sum.membership.value, v_and.value))
    agreement = agree / decisive if decisive else 1.0
    return SumDomainReport(
        points, decisive, agreement, tuple(disagreements), not tail_occupied
    )


def estimate_domain(
    series: SeriesSpec,
    directions,
    max_degree: int = 64,
    delta: Optional[float] = None,
) -> HDomain:
    """H-representation estimate of the log convergence region of a series.

    Chains the direction functional over the given directions (window radius
    delta, default max(0.02, 2N/K): tight enough to separate neighboring
    sample directions, wide enough that the top degrees always hold a lattice
    direction), carves the region of the samples, and reduces it back to
    supporting half-spaces on the same directions.
    """
    dirs = as_directions(directions)
    if delta is None:
        delta = max(0.02, 2.0 * series.dimension / max_degree)
    lo = tail_window(max_degree).start
    values = tuple(
        direction_functional(series, DirectionWindow(alpha, delta, (lo, max_degree)))
        for alpha in dirs
    )
    samples = SampledFunction(dirs, values)
    carved = HDomain(
        series.dimension,
        tuple(
            HalfSpace(d, v) for d, v in zip(samples.directions, samples.values)
            if math.isfinite(v)
        ),
    )
    return reduce_to_dense_subset(carved, dirs)
