"""Truncated root-test estimators for the logarithmic convergence geometry.

For a series sum c_J z^J the logarithmic image of its domain of absolute
convergence is carved out by the upper limit of the affine terms
<J/|J|, s> + log|c_J|/|J|.  At a finite truncation K the limit superior is
replaced by a maximum over the tail degree window [ceil(K/2), K]: the window
discards low-degree transients and is unbiased for eventually monotone term
sequences.  No extrapolation is attempted; verdicts inside a margin band
around zero stay undecided.

The window is series.tail_window(K): the series' coefficient table from row
tail_start on.  It also drives the direction functional (the negative of the
largest normalized log magnitude near a prescribed direction), the recovery
of the half-space of an elementary series, and a one-variable radius
estimate for ray slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

from .convex import HalfSpace
from .multiindex import SimplexDirection, as_direction, l1_within
from .series import SeriesSpec, tail_window as _tail_window

__all__ = [
    "Membership",
    "MembershipVerdict",
    "NotElementary",
    "classify",
    "direction_functional",
    "elementary_halfspace",
    "hadamard_indicator",
    "slice_radius",
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


def hadamard_indicator(series: SeriesSpec, point, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Tail-window maximum of <J/|J|, s> + log|c_J|/|J| over supported J.

    Negative values witness absolute convergence of the series at
    exp(point), positive values divergence.  -inf means the rule has no
    surviving coefficient in the window (a polynomial at this truncation).

    Evaluated on the tail rows of the series' memoized coefficient table at
    max_degree: the inner products accumulate column by column, left to
    right from 0.0, exactly as a per-term loop would, and the maximum skips
    NaN terms as that loop's comparison did.
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    point = series._check_point(point)
    table = series.coefficient_table(max_degree)
    projections, logs = table.projections[:, table.tail_start:], table.logs[table.tail_start:]
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


def direction_functional(
    series: SeriesSpec, center, radius: float, max_degree: int = DEFAULT_MAX_DEGREE
) -> float:
    """Negative of the largest normalized log magnitude near a direction.

    The window holds the tail rows of the series' coefficient table at
    max_degree whose projections lie within l1 distance radius, in (0, 2],
    of the center.  It stands in for every index sequence whose projections
    converge to the center: each eventually enters the window, so the window
    maximum dominates every sequence limit at the truncation scale.

    +inf when no coefficient survives in the window: the direction is not
    realized at this truncation, matching an infinite support-function value
    outside the effective domain.
    """
    center = as_direction(center)
    if center.dimension != series.dimension:
        raise ValueError("window center dimension does not match the series")
    if not 0.0 < radius <= 2.0:
        raise ValueError("window radius must lie in (0, 2]")
    table = series.coefficient_table(max_degree)
    inside = l1_within(table.projections[:, table.tail_start:], np.array(center.coords), radius)
    window = table.logs[table.tail_start:][inside]
    # the first maximum, as the decomposer's level: fmax's sign of a 0.0, -0.0 tie varies
    best = window[window.argmax()].item() if len(window) else -inf
    return inf if best == -inf else -best


def elementary_halfspace(series: SeriesSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> HalfSpace:
    """Half-space estimate for a series whose tail support hugs one direction.

    Checks, stopping at the first row too far from an earlier one, that the
    supported tail rows of the coefficient table project within l1 diameter
    ELEMENTARY_DIAMETER, then returns the half-space {s : <normal, s> -
    offset < 0}.  The normal is the degree-weighted mean of the projections
    (higher degrees project closer to the limit direction), from the exact
    entry sums; -offset is the window maximum of the normalized log magnitudes
    (an overflowed one, +inf, leaves no half-space: NotElementary names it).
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    table = series.coefficient_table(max_degree)
    rows = table.tail_start + np.flatnonzero(table.logs[table.tail_start:] != -inf)
    if not len(rows):
        raise NotElementary("no supported index in the tail degree window")
    columns = table.projections[:, rows]
    for i in range(1, len(rows)):
        far = ~l1_within(columns[:, :i], columns[:, i], ELEMENTARY_DIAMETER)
        if far.any():
            raise NotElementary(
                f"tail projections spread {tuple(columns[:, far.argmax()].tolist())} .. "
                f"{tuple(columns[:, i].tolist())}; diameter exceeds {ELEMENTARY_DIAMETER}"
            )
    top = rows[table.logs[rows].argmax()]
    level = table.logs[top].item()
    if level == inf:  # decompose_elementary gives such a row the empty estimate
        j = tuple(table.entries[top].tolist())
        raise NotElementary(f"the tail coefficient at {j} overflowed: no half-space")
    entry_sums = table.entries[rows].sum(axis=0).tolist()
    degree_sum = sum(entry_sums)
    normal = SimplexDirection(tuple(s / degree_sum for s in entry_sums))
    return HalfSpace(normal, -level)


def slice_radius(series: SeriesSpec, point, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Root-test radius estimate of the one-variable slice along a positive ray.

    Combines like powers along the ray through the point, then inverts the
    tail-window maximum of |a_k|^(1/k), with |a_k| the np.hypot of its parts
    as the table takes |c_J|: past the float range it reads +inf, radius 0.0.
    +inf when every windowed slice coefficient vanishes.
    """
    coeffs = series.slice_coefficients(point, max_degree)
    window = _tail_window(max_degree)
    a = np.array(coeffs[window.start:])
    with np.errstate(over="ignore"):
        mags = np.hypot(a.real, a.imag).tolist()
    best = max((m ** (1.0 / k) for k, m in zip(window, mags) if m > 0.0), default=0.0)
    return inf if best == 0.0 else 1.0 / best
