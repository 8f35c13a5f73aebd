"""Power series described by a closed language of coefficient rules.

A series is a dimension plus a rule assigning every multi-index a complex
coefficient.  The rule language is deliberately closed (five kinds: explicit
tables, the full geometric series, geometric series along a lattice ray,
support-weighted index families, and index-wise sums) so that series
specifications serialize to JSON and command-line runs reproduce exactly.

Coefficient magnitudes enter the geometry only through log|c_J| / |J|, so
every rule's one scan, terms, reports that quantity next to c_J, in closed
form wherever one exists: exp(-|J| h) underflows to zero near |J| ~ 700/h,
while -h is exact at every degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from math import fsum, inf, log
from typing import NamedTuple

import numpy as np

from .jsonfile import JsonFile
from .multiindex import (
    MultiIndex,
    as_directions,
    enumerate_degree,
    nearest_index_of_degree,
)

__all__ = [
    "CoefficientRule",
    "CoefficientTable",
    "DimensionMismatch",
    "ExplicitTable",
    "FullGeometric",
    "RayGeometric",
    "SeriesSpec",
    "SumRule",
    "SupportWeighted",
]

class DimensionMismatch(ValueError):
    """Index or component dimension does not match the series dimension."""


def _as_multiindex(value) -> MultiIndex:
    return value if isinstance(value, MultiIndex) else MultiIndex(tuple(value))


def _complex_to_json(c: complex) -> list[float]:
    return [c.real, c.imag]


def _no_nan(c) -> complex:
    """c as a complex; NaN parts are rejected, +-inf (overflow) is kept."""
    c = complex(c)
    if cmath.isnan(c):
        raise ValueError(f"coefficient {c} has a NaN component")
    return c


def _complex_from_json(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    re, im = value
    return complex(re, im)


def _log_abs_over(c: complex, degree: int) -> float:
    """log|c| / degree for a rule without a closed form; -inf for zero."""
    mag = abs(c)
    if mag == 0.0:
        return -inf
    if math.isinf(mag):
        return inf
    return log(mag) / degree


class CoefficientRule:
    """Total assignment of a complex coefficient to every multi-index.

    terms is the one scan; coefficient stays an independent per-index
    reference with its own membership test.
    """

    kind = "abstract"

    def check_dimension(self, dimension: int) -> None:
        raise NotImplementedError

    def coefficient(self, index: MultiIndex) -> complex:
        raise NotImplementedError

    def terms(self, dimension: int, degree: int):
        """(J, c_J, log|c_J|/|J|) for the supported J of a degree >= 1.

        Indices come in lexicographic order; supported zeros carry -inf.
        """
        raise NotImplementedError

    def supported_indices(self, dimension: int, degree: int):
        """Indices of the given degree where the coefficient may be nonzero."""
        return tuple(j for j, _, _ in self.terms(dimension, degree))

    def log_abs_normalized(self, index: MultiIndex) -> float:
        """log|c_J| / |J|; -inf for a vanishing coefficient."""
        for j, _, v in self.terms(index.dimension, index.degree):
            if j == index:
                return v
        return -inf

    def to_json(self) -> dict:
        raise NotImplementedError


class FullGeometric(CoefficientRule):
    """c_J = 1 for every J: the standard N-variable geometric series."""

    kind = "full_geometric"

    def check_dimension(self, dimension: int) -> None:
        pass

    def coefficient(self, index: MultiIndex) -> complex:
        return 1.0 + 0.0j

    def terms(self, dimension: int, degree: int):
        return ((j, 1.0 + 0.0j, 0.0) for j in enumerate_degree(dimension, degree))

    def to_json(self) -> dict:
        return {"kind": self.kind}


class RayGeometric(CoefficientRule):
    """c_{k J0} = ratio**k for k >= 1 along a fixed nonzero ray, zero elsewhere."""

    kind = "ray_geometric"

    def __init__(self, direction, ratio):
        direction = _as_multiindex(direction)
        if direction.degree == 0:
            raise ValueError("ray direction must be a nonzero multi-index")
        self.direction = direction
        self.ratio = _no_nan(ratio)

    def check_dimension(self, dimension: int) -> None:
        if self.direction.dimension != dimension:
            raise DimensionMismatch(
                f"ray direction has dimension {self.direction.dimension}, series has {dimension}"
            )

    def _multiple(self, index: MultiIndex):
        """k >= 1 with index == k * direction, else None."""
        k = None
        for e, b in zip(index.entries, self.direction.entries):
            if b == 0:
                if e != 0:
                    return None
            else:
                q, r = divmod(e, b)
                if r:
                    return None
                if k is None:
                    k = q
                elif q != k:
                    return None
        return k if k is not None and k >= 1 else None

    def _value(self, k: int) -> complex:
        try:
            return self.ratio**k
        except OverflowError:
            return complex(inf, 0.0)

    def coefficient(self, index: MultiIndex) -> complex:
        k = self._multiple(index)
        return 0.0j if k is None else self._value(k)

    def terms(self, dimension: int, degree: int):
        q, r = divmod(degree, self.direction.degree)
        if r or q < 1:
            return ()
        mag = abs(self.ratio)
        # log|ratio**q| / (q |J0|) collapses to a degree-free constant
        v = log(mag) / self.direction.degree if mag else -inf
        return ((self.direction.scaled(q), self._value(q), v),)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "direction": list(self.direction.entries),
            "ratio": _complex_to_json(self.ratio),
        }


class ExplicitTable(CoefficientRule):
    """Finite table of coefficients; everything absent is zero."""

    kind = "explicit_table"

    def __init__(self, table):
        items: dict[MultiIndex, complex] = {}
        dim = None
        for j, c in dict(table).items():
            j = _as_multiindex(j)
            if dim is None:
                dim = j.dimension
            elif j.dimension != dim:
                raise DimensionMismatch("table indices have mixed dimensions")
            items[j] = _no_nan(c)
        self.table = items
        self._dimension = dim
        by_degree: dict[int, list] = {}
        for j, c in sorted(items.items()):
            if j.degree:
                by_degree.setdefault(j.degree, []).append((j, c, _log_abs_over(c, j.degree)))
        self._by_degree = {k: tuple(v) for k, v in by_degree.items()}

    def check_dimension(self, dimension: int) -> None:
        if self._dimension is not None and self._dimension != dimension:
            raise DimensionMismatch(
                f"table indices have dimension {self._dimension}, series has {dimension}"
            )

    def coefficient(self, index: MultiIndex) -> complex:
        return self.table.get(index, 0.0j)

    def terms(self, dimension: int, degree: int):
        return self._by_degree.get(degree, ())

    def to_json(self) -> dict:
        items = sorted(self.table.items())
        return {
            "kind": self.kind,
            "indices": [list(j.entries) for j, _ in items],
            "values": [_complex_to_json(c) for _, c in items],
        }


class SupportWeighted(CoefficientRule):
    """Coefficients exp(-|J| h_n) on a doubly-indexed family of lattice points.

    Row n tracks the direction alpha_n with weight h_n.  Slot (n, k) lives at
    degree base + (n-1) stride + (k-1) M stride, so every slot owns a unique
    degree and the family members are distinct by construction; the slot index
    is the nearest degree-d lattice direction to alpha_n.  Normalized log
    magnitudes are reported as -h_n exactly, never through exp.
    """

    kind = "support_weighted"

    def __init__(self, directions, values, per_row: int, base: int = 8, stride: int = 1):
        directions = as_directions(directions)
        values = tuple(float(v) for v in values)
        if len(directions) != len(values):
            raise ValueError("directions and values must have equal length")
        for v in values:
            if not math.isfinite(v):
                raise ValueError("support weights must be finite")
        if per_row < 1 or base < 1 or stride < 1:
            raise ValueError("per_row, base and stride must be >= 1")
        self.directions = directions
        self.values = values
        self.per_row = per_row
        self.base = base
        self.stride = stride
        self._index_cache: dict[int, MultiIndex] = {}

    @property
    def rows(self) -> int:
        return len(self.directions)

    def degree_of(self, row: int, slot: int) -> int:
        """Degree of slot (row, slot), both 1-based."""
        m = self.rows
        return self.base + (row - 1) * self.stride + (slot - 1) * m * self.stride

    def slot_of_degree(self, degree: int):
        """(row, slot) owning this degree, 1-based, or None."""
        t = degree - self.base
        if t < 0 or t % self.stride:
            return None
        u = t // self.stride
        m = self.rows
        row, slot = u % m + 1, u // m + 1
        if slot > self.per_row:
            return None
        return row, slot

    def index_at(self, row: int, slot: int) -> MultiIndex:
        d = self.degree_of(row, slot)
        cached = self._index_cache.get(d)
        if cached is None:
            cached = nearest_index_of_degree(self.directions[row - 1], d)
            self._index_cache[d] = cached
        return cached

    def family_indices(self):
        """All (row, slot, index) triples in (slot, row) order."""
        for slot in range(1, self.per_row + 1):
            for row in range(1, self.rows + 1):
                yield row, slot, self.index_at(row, slot)

    def row(self, row: int) -> "SupportWeighted":
        """Single row as its own rule; degrees are preserved exactly."""
        if not 1 <= row <= self.rows:
            raise ValueError(f"row must be in 1..{self.rows}")
        return SupportWeighted(
            (self.directions[row - 1],),
            (self.values[row - 1],),
            per_row=self.per_row,
            base=self.base + (row - 1) * self.stride,
            stride=self.rows * self.stride,
        )

    def check_dimension(self, dimension: int) -> None:
        if self.directions[0].dimension != dimension:
            raise DimensionMismatch(
                f"support directions have dimension {self.directions[0].dimension}, "
                f"series has {dimension}"
            )

    @staticmethod
    def _value(degree: int, h: float) -> complex:
        try:
            return complex(math.exp(-degree * h))
        except OverflowError:
            return complex(inf, 0.0)

    def coefficient(self, index: MultiIndex) -> complex:
        slot = self.slot_of_degree(index.degree)
        if slot is None or self.index_at(*slot) != index:
            return 0.0j
        return self._value(index.degree, self.values[slot[0] - 1])

    def terms(self, dimension: int, degree: int):
        slot = self.slot_of_degree(degree)
        if slot is None:
            return ()
        h = self.values[slot[0] - 1]
        return ((self.index_at(*slot), self._value(degree, h), -h),)

    def to_json(self) -> dict:
        dirs = [list(d.coords) for d in self.directions]
        return {
            "kind": self.kind,
            "support": {"directions": dirs, "values": list(self.values)},
            "family": {
                "base": self.base,
                "stride": self.stride,
                "per_row": self.per_row,
                "directions": dirs,
            },
        }


class SumRule(CoefficientRule):
    """Index-wise sum of member rules; like terms combine by addition."""

    kind = "sum"

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("sum rule needs at least one member")
        for m in members:
            if not isinstance(m, CoefficientRule):
                raise TypeError(f"sum members must be coefficient rules, got {m!r}")
        self.members = members

    def check_dimension(self, dimension: int) -> None:
        for m in self.members:
            m.check_dimension(dimension)

    def coefficient(self, index: MultiIndex) -> complex:
        return sum((m.coefficient(index) for m in self.members), 0.0j)

    def terms(self, dimension: int, degree: int):
        """Member blocks merged by index, coefficients summed as coefficient does.

        An index where exactly one member has a log above -inf keeps that
        member's log; log|sum|/|J| is used only where two or more are nonzero.
        Members holding +inf and -inf at one index raise ValueError.
        """
        merged: dict[MultiIndex, list] = {}
        for m in self.members:
            for j, c, v in m.terms(dimension, degree):
                entry = merged.setdefault(j, [0.0j, -inf, 0])
                entry[0] += c
                if v != -inf:
                    entry[1] = v
                    entry[2] += 1
        # a list, not tuple(generator): growing tuples by resizing fills the
        # interpreter's per-size tuple free lists and raises peak memory
        return [
            (j, c, v if n < 2 else _summed_log(j, c, degree))
            for j, (c, v, n) in sorted(merged.items(), key=lambda item: item[0].entries)
        ]

    def to_json(self) -> dict:
        return {"kind": self.kind, "members": [m.to_json() for m in self.members]}


def _summed_log(index: MultiIndex, c: complex, degree: int) -> float:
    """log|c|/|J| of a sum; members holding +inf and -inf at J leave it undefined."""
    if cmath.isnan(c):
        raise ValueError(
            f"sum members hold opposite infinities at index {index.entries}; "
            "the coefficient there is undefined"
        )
    return _log_abs_over(c, degree)


def _rule_from_json(data: dict) -> CoefficientRule:
    kind = data.get("kind")
    if kind == FullGeometric.kind:
        return FullGeometric()
    if kind == RayGeometric.kind:
        return RayGeometric(data["direction"], _complex_from_json(data["ratio"]))
    if kind == ExplicitTable.kind:
        indices = data["indices"]
        values = data["values"]
        if len(indices) != len(values):
            raise ValueError("explicit table indices and values differ in length")
        return ExplicitTable(
            {tuple(j): _complex_from_json(c) for j, c in zip(indices, values)}
        )
    if kind == SupportWeighted.kind:
        support = data["support"]
        family = data["family"]
        fam_dirs = family.get("directions")
        if fam_dirs is not None and fam_dirs != support["directions"]:
            raise ValueError("support and family directions disagree")
        return SupportWeighted(
            support["directions"],
            support["values"],
            per_row=family["per_row"],
            base=family.get("base", 8),
            stride=family.get("stride", 1),
        )
    if kind == SumRule.kind:
        return SumRule([_rule_from_json(m) for m in data["members"]])
    raise ValueError(f"unknown coefficient rule kind: {kind!r}")


def _powers(x: float, max_degree: int) -> list[float]:
    """x**k for k = 0..max_degree; inf where ** overflowed (it never returns inf)."""
    out = []
    for k in range(max_degree + 1):
        try:
            out.append(x**k)
        except OverflowError:
            out.append(inf)
    return out


class CoefficientTable(NamedTuple):
    """The terms scan of degrees 1..K as read-only arrays for the linear scans.

    entries is M x N, coefficients the M c_J (supported zeros included) and
    magnitudes their abs(c_J); the rows of degree k are offsets[k]:offsets[k + 1].
    """

    entries: np.ndarray
    coefficients: np.ndarray
    magnitudes: np.ndarray
    offsets: tuple[int, ...]

    def monomials(self, r) -> np.ndarray:
        """r^J per row, bit for bit the per-term product of Python powers.

        np.power does not round like libm pow, so the powers come from **.
        Factors multiply in coordinate order (x**0 == 1.0 leaves a product
        unchanged), and a row with an overflowed power is +inf.
        """
        out = np.ones(len(self.entries))
        over = np.zeros(len(self.entries), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for x, column in zip(r, self.entries.T):
                factors = np.array(_powers(x, len(self.offsets) - 2))[column]
                out *= factors
                over |= np.isinf(factors)
        out[over] = inf
        return out

    def absolute_terms(self, r) -> tuple[np.ndarray, list[int]]:
        """abs(c_J) r^J on the rows with c_J != 0, and where each degree starts among them."""
        keep = self.magnitudes != 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.magnitudes[keep] * self.monomials(r)[keep]
        return terms, np.concatenate(([0], np.cumsum(keep)))[list(self.offsets)].tolist()


@dataclass(frozen=True, eq=False)
class SeriesSpec(JsonFile):
    """Dimension, coefficient rule, and a free-text label."""

    dimension: int
    rule: CoefficientRule
    label: str = ""
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("series dimension must be >= 1")
        self.rule.check_dimension(self.dimension)

    def _check_index(self, index: MultiIndex) -> MultiIndex:
        index = _as_multiindex(index)
        if index.dimension != self.dimension:
            raise DimensionMismatch(
                f"index has dimension {index.dimension}, series has {self.dimension}"
            )
        return index

    def _check_point(self, point, radius=False, positive=False) -> tuple[float, ...]:
        """Point of the series dimension with finite coordinates.

        Log-points may have any real coordinates; radius points need
        coordinates >= 0 and positive points coordinates > 0.
        """
        point = tuple(float(x) for x in point)
        if len(point) != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {len(point)}, series has {self.dimension}"
            )
        for x in point:
            if not math.isfinite(x):
                raise ValueError("point coordinates must be finite")
            if positive and not x > 0.0:
                raise ValueError("point coordinates must be > 0")
            if radius and x < 0.0:
                raise ValueError("point coordinates must be >= 0")
        return point

    @property
    def zero_index(self) -> MultiIndex:
        return MultiIndex((0,) * self.dimension)

    def constant_term(self) -> complex:
        return self.rule.coefficient(self.zero_index)

    def coefficient(self, index) -> complex:
        return self.rule.coefficient(self._check_index(index))

    def log_abs_coeff_normalized(self, index) -> float:
        index = self._check_index(index)
        if index.degree < 1:
            raise ValueError("normalized log magnitude needs degree >= 1")
        return self.rule.log_abs_normalized(index)

    def supported_indices(self, degree: int):
        return self.rule.supported_indices(self.dimension, degree)

    def terms(self, degrees: range):
        """(J, c_J, log|c_J|/|J|) for every supported J with |J| in degrees.

        Supported zeros are included with log -inf.  Degrees (all >= 1) come
        in the order given and indices in lexicographic order within a
        degree.  This is the only truncation scan: every estimator,
        decomposer and the probe read the coefficients through it.
        """
        for k in degrees:
            yield from self.rule.terms(self.dimension, k)

    def log_table(self, degrees: range):
        """The terms scan as read-only arrays (projections, logs), built once.

        projections is N x M with column J / |J|, rounded exactly as project
        rounds it; logs holds the M matching log|c_J|/|J|.  Memoized per
        degree range for the lifetime of this series.
        """
        table = self._tables.get(degrees)
        if table is None:
            rows = [(j.entries, v) for j, _, v in self.terms(degrees)]
            entries = np.array([e for e, _ in rows], dtype=np.int64).reshape(-1, self.dimension)
            projections = (entries / entries.sum(axis=1, keepdims=True)).T.copy()
            logs = np.array([v for _, v in rows], dtype=np.float64)
            projections.flags.writeable = logs.flags.writeable = False
            table = self._tables[degrees] = (projections, logs)
        return table

    def coefficient_table(self, max_degree: int) -> CoefficientTable:
        """The terms scan of degrees 1..max_degree as a CoefficientTable, built once.

        Raw entries and linear coefficients only, never logs or projections,
        so the probe stays independent of the root-test path.  Memoized per
        max_degree for the lifetime of this series.
        """
        key = ("coefficients", max_degree)
        if key not in self._tables:
            rows = list(self.terms(range(1, max_degree + 1)))
            degrees = [j.degree for j, _, _ in rows]
            table = CoefficientTable(
                np.array([j.entries for j, _, _ in rows], np.int64).reshape(-1, self.dimension),
                np.array([c for _, c, _ in rows], np.complex128),
                np.array([abs(c) for _, c, _ in rows], np.float64),
                tuple(np.searchsorted(degrees, range(max_degree + 2)).tolist()),
            )
            for array in table[:3]:
                array.flags.writeable = False
            self._tables[key] = table
        return self._tables[key]

    def partial_sum_abs(self, point, max_degree: int) -> float:
        """sum of |c_J| r^J over 0 <= |J| <= max_degree; +inf on overflow.

        Accumulated with exact summation, so the value depends only on the
        multiset of terms, not on enumeration order.
        """
        r = self._check_point(point, radius=True)
        terms, _ = self.coefficient_table(max_degree).absolute_terms(r)
        if np.isinf(terms).any():
            return inf
        return fsum([abs(self.constant_term())] + terms.tolist())

    def slice_coefficients(self, point, max_degree: int) -> list[complex]:
        """a_k = sum of c_J r^J over |J| = k, for k = 0..max_degree.

        These are the coefficients of the one-variable series obtained by
        restricting to the ray through r and combining like powers.  Each
        c_J r^J is a Python complex times a float, added in scan order, since
        numpy's complex times real can flip the sign of a zero part.
        """
        r = self._check_point(point, positive=True)
        table = self.coefficient_table(max_degree)
        out = [self.constant_term()] + [0.0j] * max_degree
        c, p = table.coefficients.tolist(), table.monomials(r).tolist()
        for k in range(1, max_degree + 1):
            for i in range(table.offsets[k], table.offsets[k + 1]):
                out[k] += c[i] * p[i]
        return out

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "label": self.label,
            "rule": self.rule.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeriesSpec":
        return cls(
            dimension=int(data["dimension"]),
            rule=_rule_from_json(data["rule"]),
            label=str(data.get("label", "")),
        )
