"""Constructive side: index families, extremal sequences, and realizing series.

Three builders live here.  build_family returns the rows of a doubly-indexed
family of distinct lattice points whose row-n projections converge to a
prescribed direction; degree interleaving (one global degree per slot) makes
distinctness automatic and preserves the 2N/degree convergence rate.
extremal_sequence picks, per doubling degree band, the supported index near a
direction with the largest normalized log magnitude, realizing the direction
functional with a concrete sequence.  series_for_domain assembles the
support-weighted series whose domain of convergence reproduces a prescribed
half-space intersection: row n carries coefficients exp(-|J| h(alpha_n)), so
each row alone is an elementary series for the supporting half-space at
alpha_n.
"""

from __future__ import annotations

import math

import numpy as np

from .convex import HDomain, support_value
from .multiindex import Directions, MultiIndex, as_direction, l1_nearest, l1_within
from .series import SeriesSpec, SupportWeighted

__all__ = [
    "EmptyWindow",
    "InfiniteSupport",
    "band_radius",
    "build_family",
    "extremal_sequence",
    "series_for_domain",
]

BASE_DEGREE = 8  # keeps the starting projection error 2N/8 moderate


class EmptyWindow(ValueError):
    """No degree band holds a supported index near the direction."""


class InfiniteSupport(ValueError):
    """A prescribed direction has infinite support value on the domain."""


def build_family(directions, per_row: int) -> tuple[tuple[MultiIndex, ...], ...]:
    """Rows of distinct lattice points: row n, slot k at degree 8 + (n-1) + M(k-1).

    Row n projects toward direction n.  Every slot owns a unique degree, so
    all indices are distinct without any discard step; the slot index is the
    nearest lattice direction of that degree, hence |J/|J| - alpha_n|_l1 <
    2N/|J| along each row.  The slots are those of the support-weighted rule
    over the same directions.
    """
    dirs = Directions(directions)
    slots = SupportWeighted(dirs, (0.0,) * len(dirs), per_row)
    return tuple(
        tuple(slots.index_at(n, k) for k in range(1, per_row + 1))
        for n in range(1, slots.rows + 1)
    )


def band_radius(dimension: int, band: float) -> float:
    """Window radius per degree band: the nearest-index rounding bound 2N/b,
    floored at 0.02 so high bands keep a usable neighborhood."""
    if not band > 0.0:
        raise ValueError("band must be > 0")
    return max(0.02, 2.0 * dimension / band)


def extremal_sequence(series: SeriesSpec, alpha, max_degree: int) -> list[MultiIndex]:
    """Per band b = 8, 16, 32, ... <= K, the best supported index near alpha.

    "Best" maximizes log|c_J|/|J| over supported indices of degree b within
    l1 distance band_radius of alpha; ties prefer the projection closest to
    alpha and then the lexicographically smallest index, so an all-equal
    coefficient rule pins the sequence to the ray through alpha.  Bands with
    no candidate are skipped; if every band is empty the direction is not
    realized and EmptyWindow is raised.  The normalized log magnitudes of the
    returned indices approach the negative of the direction functional at the
    truncation scale.
    """
    if max_degree < 8:
        raise ValueError("max_degree must be >= 8")
    alpha = as_direction(alpha)
    if alpha.dimension != series.dimension:
        raise ValueError("direction dimension does not match the series")
    center = np.array(alpha.coords)
    out: list[MultiIndex] = []
    band = BASE_DEGREE
    while band <= max_degree:
        entries, _, logs = series.rule.scan(series.dimension, range(band, band + 1))
        projections = (entries / band).T
        near = l1_within(projections, center, band_radius(series.dimension, band))
        near = np.flatnonzero(near & (logs != -math.inf))
        if len(near):
            best = near[logs[near] == logs[near].max()]
            pick = best[l1_nearest(center[:, None], projections[:, best])[0]]
            out.append(MultiIndex(tuple(entries[pick].tolist())))
        band *= 2
    if not out:
        raise EmptyWindow(f"no supported index near {alpha.coords} in any degree band")
    return out


def series_for_domain(domain: HDomain, directions, per_row: int) -> SeriesSpec:
    """Support-weighted series whose convergence domain realizes the H-domain.

    Uses the family of build_family over the prescribed directions with
    coefficients exp(-|J| h(alpha_n)) on row n, h the support function of the
    region.  Each row alone is elementary with half-space
    {<alpha_n, s> - h(alpha_n) < 0}; the whole sum reproduces the region when
    the directions sample its support geometry densely enough.

    Raises InfiniteSupport when a prescribed direction lies outside the
    effective domain of h.
    """
    dirs = Directions(directions)
    if dirs.dimension != domain.dimension:
        raise ValueError("direction dimension does not match the domain")
    values = []
    for alpha in dirs:
        h = support_value(domain, alpha)
        if math.isinf(h):
            raise InfiniteSupport(
                f"direction {alpha.coords} has infinite support value; "
                "prescribe directions from the effective domain only"
            )
        values.append(h)
    rule = SupportWeighted(dirs, values, per_row=per_row)
    return SeriesSpec(
        domain.dimension,
        rule,
        label=f"realizing series: {len(dirs)} directions, {per_row} per row",
    )
