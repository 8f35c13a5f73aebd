"""Multi-index arithmetic on the exponent lattice of N-variable power series.

A multi-index is a point of the non-negative integer lattice; its degree is
the l1 sum of the entries.  Nonzero indices project radially onto the
probability simplex (the non-negative face of the l1 unit sphere), and the
projections of degree-k indices form the rational grid with denominator k.
This module provides the projection, degree-ordered enumeration of the
lattice, the degree-k index whose projection best approximates a prescribed
simplex direction, and the field checks every constructor runs (as_int, as_real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from numbers import Real

import numpy as np

__all__ = [
    "Directions",
    "MultiIndex",
    "SimplexDirection",
    "ZeroIndexNotProjectable",
    "as_direction",
    "as_int",
    "as_real",
    "compositions",
    "enumerate_degree",
    "l1_nearest",
    "l1_within",
    "nearest_entries",
    "nearest_index_of_degree",
    "project",
    "uniform_directions_2d",
]

_INT64_MAX = 2**63 - 1
_SIMPLEX_SUM_TOL = 1e-12
_DISTINCT_TOL = 1e-10
_DISTINCT_BLOCK = 2**16
# real number types, no bool among them, that as_real takes without the slower Real ABC check
_PLAIN_REALS = frozenset((float, int, np.float64))
# l1 distance is SimplexDirection.l1_distance's fsum; an array sum differs by up to N eps
# at N >= 3, so l1_nearest and l1_within run fsum on decisions within N times this slack.
_L1_SLACK_PER_COORD = 4 * float(np.finfo(np.float64).eps)


class ZeroIndexNotProjectable(ValueError):
    """Raised when the zero multi-index is radially projected."""


def as_int(value, name: str) -> int:
    """value if it is an int and not a bool, so the float or bool int() would cast is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def as_real(value, name: str) -> float:
    """float(value) for a real number that is not a bool (numpy scalars included); no strings."""
    if type(value) not in _PLAIN_REALS and (isinstance(value, bool) or not isinstance(value, Real)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Lattice exponent J with cached l1 degree |J|.

    Ordering is lexicographic on the entries, which is the tie-breaking
    order used throughout the library.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("multi-index needs at least one entry")
        for e in self.entries:
            if as_int(e, "multi-index entry") < 0:
                raise ValueError(f"multi-index entries must be non-negative, got {e}")
            if e > _INT64_MAX:
                raise OverflowError("multi-index entry exceeds the 64-bit range")
        if sum(self.entries) > _INT64_MAX:
            raise OverflowError("multi-index degree exceeds the 64-bit range")

    @cached_property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __repr__(self):
        return f"MultiIndex({self.entries!r})"


@dataclass(frozen=True)
class SimplexDirection:
    """Point of the probability simplex: non-negative coordinates summing to 1."""

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(as_real(c, "coordinate") for c in self.coords))
        if not self.coords:
            raise ValueError("direction needs at least one coordinate")
        for c in self.coords:
            if not math.isfinite(c) or c < 0.0:
                raise ValueError(f"simplex coordinates must be finite and >= 0, got {c}")
        if abs(math.fsum(self.coords) - 1.0) > _SIMPLEX_SUM_TOL:
            raise ValueError(f"simplex coordinates must sum to 1, got {self.coords}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def l1_distance(self, other: "SimplexDirection") -> float:
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch between simplex directions")
        return math.fsum(abs(a - b) for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return f"SimplexDirection({self.coords!r})"


def _l1_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """D x M array sums of |column - center| for N x M columns and N x D centers."""
    out = np.abs(columns[0] - centers[0][:, None])  # 0.0 + x == x for the first coordinate
    step = np.empty_like(out)
    for coord, center in zip(columns[1:], centers[1:]):
        out += np.abs(np.subtract(coord, center[:, None], out=step), out=step)
    return out


def _l1_fsum(column: np.ndarray, center: np.ndarray) -> float:
    return math.fsum(abs(a - b) for a, b in zip(column.tolist(), center.tolist()))


def l1_nearest(columns: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per column (N x M), its nearest direction column (N x D) in l1, ties to the first."""
    dist = _l1_distances(columns, directions)
    close = dist - dist.min(axis=0) <= _L1_SLACK_PER_COORD * len(columns)
    nearest = close.argmax(axis=0)  # the argmin where only one direction is close
    # a direction outside the slack is never the nearest: fsum decides among the close ones
    for k in np.flatnonzero(close.sum(axis=0) > 1):
        tied = np.flatnonzero(close[:, k])
        exact = [_l1_fsum(columns[:, k], directions[:, d]) for d in tied.tolist()]
        nearest[k] = tied[exact.index(min(exact))]
    return nearest


def l1_within(columns: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the columns (N x M) within l1 distance radius of the center (N array)."""
    dist = _l1_distances(columns, center[:, None])[0]
    inside = dist <= radius
    for k in np.flatnonzero(abs(dist - radius) <= _L1_SLACK_PER_COORD * len(columns)):
        inside[k] = _l1_fsum(columns[:, k], center) <= radius
    return inside


def as_direction(value) -> SimplexDirection:
    return value if isinstance(value, SimplexDirection) else SimplexDirection(tuple(value))


class Directions(tuple):
    """Non-empty direction set of one dimension, pairwise l1 distance > 1e-10.

    Checked once, when built; a Directions given again is returned as it is.
    The pairwise test is quadratic on purpose: comparing neighbours after a
    sort would miss close pairs that are not adjacent in the sort order.  It
    runs on blocks of rows of the distance matrix, at most _DISTINCT_BLOCK
    entries each, and l1_within decides every pair the array sums put near
    1e-10.
    """

    def __new__(cls, values):
        if isinstance(values, Directions):
            return values
        dirs = super().__new__(cls, map(as_direction, values))
        if not dirs:
            raise ValueError("need at least one direction")
        if len({d.dimension for d in dirs}) > 1:
            raise ValueError("directions have mixed dimensions")
        if len(dirs) == 1:  # no pair to compare
            return dirs
        columns, count = dirs.columns, len(dirs)
        near = _DISTINCT_TOL + 2 * _L1_SLACK_PER_COORD * len(columns)
        rows = max(1, _DISTINCT_BLOCK // count)
        for lo in range(0, count, rows):
            hi = min(lo + rows, count)
            # directions lo..hi-1 against every earlier one
            close = _l1_distances(columns[:, :hi], columns[:, lo:hi]) <= near
            close[:, lo:] = np.tril(close[:, lo:], -1)
            for i, j in zip(*np.nonzero(close)):
                if l1_within(columns[:, j : j + 1], columns[:, lo + i], _DISTINCT_TOL)[0]:
                    raise ValueError("directions must be pairwise distinct")
        return dirs

    @property
    def dimension(self) -> int:
        return self[0].dimension

    @cached_property
    def columns(self) -> np.ndarray:
        """The N x D coordinate array, one column per direction."""
        return np.array([d.coords for d in self]).T


def project(index: MultiIndex) -> SimplexDirection:
    """Radial projection J / |J| onto the probability simplex.

    The result coordinates are the exact rationals entry/degree rounded once
    to double precision, so project(m*J) == project(J) holds exactly.
    """
    d = index.degree
    if d == 0:
        raise ZeroIndexNotProjectable("the zero multi-index has no radial projection")
    return SimplexDirection(tuple(e / d for e in index.entries))


def compositions(dimension: int, degrees) -> np.ndarray:
    """Entries (M x dimension, int64) of every index of the degrees, lexicographic within each.

    Stars and bars: bar positions in lexicographic order delimit entries in lexicographic order.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    blocks = [np.empty((0, dimension), np.int64)]
    for k in degrees:
        if k < 0:
            raise ValueError("degree must be >= 0")
        cells = k + dimension - 1
        bars = np.fromiter(chain.from_iterable(combinations(range(cells), dimension - 1)), np.int64)
        bars = bars.reshape(math.comb(cells, dimension - 1), dimension - 1)
        blocks.append(np.diff(bars, axis=1, prepend=-1, append=cells) - 1)
    return np.concatenate(blocks)


def enumerate_degree(dimension: int, degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of exact degree, in lexicographic order."""
    return tuple(MultiIndex(tuple(j)) for j in compositions(dimension, (degree,)).tolist())


def nearest_index_of_degree(alpha: SimplexDirection, degree: int) -> MultiIndex:
    """nearest_entries as a MultiIndex."""
    return MultiIndex(nearest_entries(alpha, degree))


def nearest_entries(alpha: SimplexDirection, degree: int) -> tuple[int, ...]:
    """Entries of the degree-k index J minimizing the l1 distance |J/k - alpha|.

    Largest-remainder apportionment of k units: floor the targets k*alpha_i
    and hand the leftover units to the largest fractional parts.  Any
    leftover assignment among tied fractional parts is a distance tie; units
    then go to the latest coordinates, which yields the lexicographically
    smallest minimizer.  The result satisfies |J/k - alpha|_l1 < N/k.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = alpha.dimension
    targets = [degree * c for c in alpha.coords]
    floors = [math.floor(t) for t in targets]
    fracs = [t - f for t, f in zip(targets, floors)]
    leftover = degree - sum(floors)
    leftover = max(0, min(leftover, n))
    if leftover:
        order = sorted(range(n), key=lambda i: (-fracs[i], -i))
        for i in order[:leftover]:
            floors[i] += 1
    return tuple(floors)


def uniform_directions_2d(count: int) -> Directions:
    """count equally spaced directions on the 2-dimensional simplex edge."""
    if count < 2:
        raise ValueError("need at least two directions")
    step = count - 1
    return Directions(SimplexDirection((i / step, 1.0 - i / step)) for i in range(count))
