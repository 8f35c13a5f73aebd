"""Decompositions of a series into elementary and wedge summands.

decompose_elementary routes every lattice index of degree up to the working
truncation to the nearest prescribed direction, turning a series into
monomial-wise disjoint sub-series: each part is a selection of rows of the
series' coefficient table, coefficients moved, never transformed, so the
partition is exact to the bit, and logs kept in the scan's closed forms (a
saved part reloads as an ExplicitTable that recomputes log|c|/|J|).  A row's
half-space estimate at its direction comes from its own tail window; the
row's log image itself is a cone over the directions routed to it.  A row
with an empty or overflowed tail window keeps an infinite level and an empty
half-space marker, so the partition stays exhaustive.  Its exactness report
counts the routed coefficients against the occurring ones of the scan.  A
row occurs where its log is above -inf, as every estimator reads it, so a
coefficient that underflowed to 0.0 keeps its row and its closed-form log; a
saved part writes it as 0.0, and the reloaded part reads it as a supported
zero.

decompose_simple pairs each routed row with the matching row of the
realizing series for the prescribed region, then telescopes: with
f_0/0 := 0, part n is g_n + f_n/n - f_(n-1)/(n-1), kept as the symbolic sum
of those three rules (the realizing rows carry their factor as a scale, logs
in closed form), never expanded into a table.  Partial sums collapse to
sum(g_n) + f_M/M exactly, and part n >= 2 is reported with the wedge cut by
the supporting half-spaces at directions n and n-1.  Its exactness
report is the worst relative gap in that identity, weighed row by row over
the parts' members; it reads no coefficient.

sum_domain_check compares membership for a sum of support-disjoint series
against the conjunction of per-part memberships, which agree for finite
families; when the tail window sees no coefficient at all the verdicts are
vacuous and the report flags that only the containment direction of the
finite-family statement is being exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Optional

import numpy as np

from .construct import band_radius, series_for_domain
from .convex import HalfSpace, HDomain, SampledFunction, reduce_to_dense_subset
from .hadamard import (
    DEFAULT_EPSILON, DEFAULT_MAX_DEGREE, Membership, classify, direction_functional,
)
from .multiindex import Directions, MultiIndex, SimplexDirection, l1_nearest
from .oracle import tally
from .series import ExplicitTable, SeriesSpec, SumRule, SupportWeighted

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


@dataclass(frozen=True)
class ElementaryPart:
    """One routed sub-series with its half-space estimate.

    level is the tail-window maximum of log|c_J|/|J| over the row (the
    boundary level of the estimated half-space, +inf for an empty or
    overflowed window); halfspace is {<direction, s> + level < 0}, or None
    for the empty estimate.
    """

    series: SeriesSpec
    direction: SimplexDirection
    level: float
    halfspace: Optional[HalfSpace]


@dataclass(frozen=True)
class ElementaryDecomposition:
    parts: tuple[ElementaryPart, ...]
    constant_part: complex
    occurring: int
    entries: np.ndarray = field(repr=False, compare=False)  # the scanned indices' entries
    routes: np.ndarray = field(repr=False, compare=False)  # and the row each one went to

    @property
    def assignment(self) -> dict[MultiIndex, int]:
        """Row of every scanned index, built when read."""
        return dict(zip(map(MultiIndex, map(tuple, self.entries.tolist())), self.routes.tolist()))

    def exactness(self) -> dict:
        """Routed coefficients against the occurring ones; ok when they are equal."""
        routed = sum(len(p.series.rule.coefficients) for p in self.parts)
        return {"routed": routed, "occurring": self.occurring, "ok": routed == self.occurring}


def decompose_elementary(
    series: SeriesSpec, directions, max_degree: int
) -> ElementaryDecomposition:
    """Partition the series along prescribed directions, exactly.

    Every index with 1 <= |J| <= max_degree goes to the row of the nearest
    direction (ties to the smallest row); each part holds the occurring rows
    (log above -inf) of the series' coefficient table routed to it,
    coefficients and logs unchanged.  The constant term is reported separately.
    """
    dirs = Directions(directions)
    if dirs.dimension != series.dimension:
        raise ValueError("direction dimension does not match the series")
    table = series.coefficient_table(max_degree)
    routes = l1_nearest(table.projections, dirs.columns)
    occurring = np.flatnonzero(table.logs != -inf)

    parts = []
    for n, alpha in enumerate(dirs):
        rows = occurring[routes[occurring] == n]
        tail = table.logs[rows[rows >= table.tail_start]]
        # the first maximum, as a running strict > keeps it (0.0 and -0.0 tie)
        level = tail[tail.argmax()].item() if len(tail) else inf
        halfspace = None if level == inf else HalfSpace(alpha, -level)
        part_series = SeriesSpec(
            series.dimension, ExplicitTable.from_rows(table, rows), label=f"routed part {n}"
        )
        parts.append(ElementaryPart(part_series, alpha, level, halfspace))
    return ElementaryDecomposition(
        tuple(parts), series.constant_term(), len(occurring), table.entries, routes
    )


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

    def exactness(self) -> dict:
        """Worst relative gap in sum(parts) == sum(g rows) + f_M/M, row by row.

        Reads no coefficient: each member of a part is a routed row with
        weight 1 or a realizing row with weight its scale, so the identity
        holds exactly where every row's weights over the parts add up to its
        weight on the right.
        """
        left = [m for part in self.parts for m in part.series.rule.members]
        right = [g.rule for g in self.g_rows] + [self.f_rows[-1].rule.row(1, 1 / len(self.parts))]
        weights: dict = {}
        for side, rules in enumerate((left, right)):
            for rule in rules:
                # a scaled copy of a realizing row is known by its first degree
                key = rule.base if isinstance(rule, SupportWeighted) else rule
                weights.setdefault(key, [0.0, 0.0])[side] += getattr(rule, "scale", 1.0)
        worst = max(
            (abs(a - b) / max(abs(a), abs(b)) for a, b in weights.values() if a or b), default=0.0
        )
        return {"worst_rel_err": worst, "ok": worst <= 1e-12}


def decompose_simple(
    series: SeriesSpec,
    domain: HDomain,
    directions,
    max_degree: int,
) -> SimpleDecomposition:
    """Wedge decomposition at the working truncation.

    g_n are the routed rows of the series, f_n the rows of the realizing
    series for the region.  Part n is the symbolic sum of g_n, f_n scaled by
    1/(n+1) and, from the second part on, f_(n-1) scaled by -1/n (0-based),
    so no coefficient is combined or rounded until a scan asks for it.
    """
    dirs = Directions(directions)
    if len(dirs) < 2:
        raise NeedTwoDirections("wedges need at least two distinct directions")
    eld = decompose_elementary(series, dirs, max_degree)
    f_rule = series_for_domain(domain, dirs, per_row=max_degree).rule
    halfspaces = tuple(HalfSpace(alpha, h) for alpha, h in zip(dirs, f_rule.values))
    f_rows = tuple(
        SeriesSpec(series.dimension, f_rule.row(n + 1), label=f"realizing row {n}")
        for n in range(len(dirs))
    )
    g_rows = tuple(p.series for p in eld.parts)

    parts = []
    for n, g in enumerate(g_rows):
        members = [g.rule, f_rule.row(n + 1, 1.0 / (n + 1))]
        if n:
            members.append(f_rule.row(n, -1.0 / n))
        wedge = (halfspaces[n], halfspaces[n - 1]) if n else None
        part_series = SeriesSpec(series.dimension, SumRule(members), label=f"wedge part {n}")
        parts.append(SimplePart(part_series, dirs[n], wedge))
    return SimpleDecomposition(tuple(parts), g_rows, f_rows, halfspaces)


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
    epsilon: float = DEFAULT_EPSILON,
) -> SumDomainReport:
    """Compare the sum's membership against the conjunction of part memberships.

    Parts must be monomial-wise disjoint up to the truncation, a row with a
    log above -inf occurring (violation raises SupportsOverlap with a
    witness).  At each log-point the sum is classified and compared with:
    outside if any part is outside, inside if all parts are inside,
    otherwise unknown.  oracle.tally, the cross-checks' one count, reports
    agreement over the points where both sides are decisive; for a finite
    family the two tests estimate the same region.  containment_only flags
    a sum with an empty tail window, where every verdict is vacuously inside.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one part")
    dim = parts[0].dimension
    seen: set[tuple[int, ...]] = set()
    for p in parts:
        if p.dimension != dim:
            raise ValueError("parts have mixed dimensions")
        table = p.coefficient_table(max_degree)
        for j in map(tuple, table.entries[table.logs != -inf].tolist()):
            if j in seen:
                raise SupportsOverlap(MultiIndex(j))
            seen.add(j)
    total = SeriesSpec(dim, SumRule([p.rule for p in parts]), label="sum of parts")
    table = total.coefficient_table(max_degree)
    tail_occupied = (table.logs[table.tail_start:] != -inf).any()

    rows = []
    for s in grid_points:
        v_sum = classify(total, s, max_degree, epsilon).membership
        verdicts = [classify(p, s, max_degree, epsilon).membership for p in parts]
        if Membership.OUTSIDE in verdicts:
            v_and = Membership.OUTSIDE
        elif all(v is Membership.INSIDE for v in verdicts):
            v_and = Membership.INSIDE
        else:
            v_and = Membership.UNKNOWN
        same = None if Membership.UNKNOWN in (v_sum, v_and) else v_sum is v_and
        rows.append((tuple(s), v_sum.value, v_and.value, same))
    return SumDomainReport(*tally(rows), not tail_occupied)


def estimate_domain(
    series: SeriesSpec,
    directions,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> HDomain:
    """H-representation estimate of the log convergence region of a series.

    Chains the direction functional over the given directions (window radius
    band_radius(N, K) = max(0.02, 2N/K): tight enough to separate neighboring
    sample directions, wide enough that the top degrees always hold a lattice
    direction), carves the region of the samples, and reduces it back to
    supporting half-spaces on the same directions.
    """
    dirs = Directions(directions)
    delta = band_radius(series.dimension, max_degree)
    values = tuple(direction_functional(series, alpha, delta, max_degree) for alpha in dirs)
    return reduce_to_dense_subset(SampledFunction(dirs, values).domain, dirs)
