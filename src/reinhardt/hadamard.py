"""Truncated root-test estimators for the logarithmic convergence geometry.

For a series sum c_J z^J the logarithmic image of its domain of absolute
convergence is carved out by the upper limit of the affine terms
<J/|J|, s> + log|c_J|/|J|.  At a finite truncation K the limit superior is
replaced by a maximum over the tail degree window [ceil(K/2), K]: the window
discards low-degree transients, is unbiased for eventually monotone term
sequences, and costs one pass over the supported indices.  No extrapolation
is attempted; verdicts inside a margin band around zero stay undecided.

The same window drives the direction functional (the negative of the largest
normalized log magnitude near a prescribed direction), the recovery of the
half-space of an elementary series, and a one-variable radius estimate for
ray slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

from .convex import HalfSpace
from .multiindex import L1_SLACK_PER_COORD, SimplexDirection, as_direction, l1_distances, project
from .series import SeriesSpec

__all__ = [
    "DirectionWindow",
    "Membership",
    "MembershipVerdict",
    "NotElementary",
    "classify",
    "direction_functional",
    "elementary_halfspace",
    "hadamard_indicator",
    "slice_radius",
    "tail_window",
]

DEFAULT_MAX_DEGREE = 64
DEFAULT_EPSILON = 0.05
ELEMENTARY_DIAMETER = 0.2


class NotElementary(ValueError):
    """The tail support does not concentrate around a single direction."""


class Membership(str, Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipVerdict:
    """Three-way classification of a log-point with the estimate behind it."""

    membership: Membership
    value: float
    margin: float


@dataclass(frozen=True)
class DirectionWindow:
    """Direction neighborhood and degree range feeding the direction functional.

    Stands in for the family of all index sequences whose projections converge
    to the center: any such sequence eventually enters every window, so the
    window maximum dominates every sequence limit at the truncation scale.
    """

    center: SimplexDirection
    radius: float
    degree_range: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "center", as_direction(self.center))
        object.__setattr__(self, "degree_range", tuple(self.degree_range))
        lo, hi = self.degree_range
        if not 0.0 < self.radius <= 2.0:
            raise ValueError("window radius must lie in (0, 2]")
        if not 1 <= lo <= hi:
            raise ValueError("degree range must satisfy 1 <= lo <= hi")

    @classmethod
    def default(cls, center, max_degree: int = DEFAULT_MAX_DEGREE):
        """Tail-window default: radius max(0.02, 2N/sqrt(K)), degrees [ceil(K/2), K]."""
        center = as_direction(center)
        radius = max(0.02, 2.0 * center.dimension / math.sqrt(max_degree))
        return cls(center, radius, (tail_window(max_degree).start, max_degree))


def tail_window(max_degree: int) -> range:
    """Degrees ceil(K/2) .. K inclusive."""
    return range((max_degree + 1) // 2, max_degree + 1)


def hadamard_indicator(series: SeriesSpec, point, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Tail-window maximum of <J/|J|, s> + log|c_J|/|J| over supported J.

    Negative values witness absolute convergence of the series at
    exp(point), positive values divergence.  -inf means the rule has no
    surviving coefficient in the window (a polynomial at this truncation).

    Evaluated on log_table of the window, a view of the series' memoized
    coefficient table at max_degree: the inner products accumulate column
    by column, left to right from 0.0, exactly as a per-term loop would, and
    the maximum skips NaN terms as that loop's comparison did.
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    point = series._check_point(point)
    projections, logs = series.log_table(tail_window(max_degree))
    acc = 0.0 + projections[0] * point[0]
    for row, x in zip(projections[1:], point[1:]):
        acc = acc + row * x
    return float(np.fmax.reduce(acc + logs, initial=-inf))


def classify(
    series: SeriesSpec,
    point,
    max_degree: int = DEFAULT_MAX_DEGREE,
    epsilon: float = DEFAULT_EPSILON,
) -> MembershipVerdict:
    """Three-way membership of a log-point in the estimated convergence region."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    value = hadamard_indicator(series, point, max_degree)
    if value < -epsilon:
        membership = Membership.INSIDE
    elif value > epsilon:
        membership = Membership.OUTSIDE
    else:
        membership = Membership.UNKNOWN
    return MembershipVerdict(membership, value, epsilon)


def direction_functional(series: SeriesSpec, window: DirectionWindow) -> float:
    """Negative of the largest normalized log magnitude inside the window.

    +inf when no coefficient survives in the window: the direction is not
    realized at this truncation, matching an infinite support-function value
    outside the effective domain.  Read off the series' log_table.
    """
    if window.center.dimension != series.dimension:
        raise ValueError("window center dimension does not match the series")
    lo, hi = window.degree_range
    projections, logs = series.log_table(range(lo, hi + 1))
    dist = l1_distances(projections, (window.center,))[0]
    inside = dist <= window.radius
    # Beside the radius the array sum may round unlike fsum, which decides there.
    for k in np.flatnonzero(abs(dist - window.radius) <= L1_SLACK_PER_COORD * series.dimension):
        column = SimplexDirection(tuple(projections[:, k]))
        inside[k] = column.l1_distance(window.center) <= window.radius
    best = float(np.fmax.reduce(logs[inside], initial=-inf))
    return inf if best == -inf else -best


def elementary_halfspace(series: SeriesSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> HalfSpace:
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
    for j, _, v in series.terms(tail_window(max_degree)):
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


def slice_radius(series: SeriesSpec, point, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Root-test radius estimate of the one-variable slice along a positive ray.

    Combines like powers along the ray through the point, then inverts the
    tail-window maximum of |a_k|^(1/k).  +inf when every windowed slice
    coefficient vanishes.
    """
    coeffs = series.slice_coefficients(point, max_degree)
    best = 0.0
    for k in tail_window(max_degree):
        mag = abs(coeffs[k])
        if mag > 0.0:
            root = mag ** (1.0 / k)
            if root > best:
                best = root
    if best == 0.0:
        return inf
    return 1.0 / best
