"""Power series described by a closed language of coefficient rules.

A series is a dimension plus a rule assigning every multi-index a complex
coefficient.  The rule language is deliberately closed (five kinds: explicit
tables, the full geometric series, geometric series along a lattice ray,
support-weighted index families, and index-wise sums) so that series
specifications serialize to JSON and command-line runs reproduce exactly.

Coefficient magnitudes enter the geometry only through log|c_J| / |J|, so
every rule's one scan reports that quantity next to c_J, in closed
form wherever one exists: exp(-|J| h) underflows to zero near |J| ~ 700/h,
while -h is exact at every degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from math import inf, log
from numbers import Complex
from typing import NamedTuple

import numpy as np

from .jsonfile import JsonFile
from .multiindex import (
    Directions,
    MultiIndex,
    as_int,
    as_real,
    compositions,
    nearest_entries,
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
    "tail_window",
]

class DimensionMismatch(ValueError):
    """Index or component dimension does not match the series dimension."""


def _as_multiindex(value) -> MultiIndex:
    return value if isinstance(value, MultiIndex) else MultiIndex(tuple(value))


def _complex_to_json(c: complex) -> list[float]:
    return [c.real, c.imag]


def _no_nan(c) -> complex:
    """c as a complex, for a number that is not a bool; NaN parts are rejected, +-inf is kept."""
    if isinstance(c, bool) or not isinstance(c, Complex):
        raise TypeError(f"coefficient must be a number, got {c!r}")
    c = complex(c)
    if cmath.isnan(c):
        raise ValueError(f"coefficient {c} has a NaN component")
    return c


def _complex_from_json(value, name: str) -> complex:
    re, im = value if isinstance(value, list) else (value, 0.0)
    return complex(as_real(re, name), as_real(im, name))


def _or_inf(f, value) -> float:
    """f(value), or +inf where f raises OverflowError: the package's one float-range fallback."""
    try:
        return f(value)
    except OverflowError:
        return inf


def _log_abs_over(c: complex, degree: int) -> float:
    """log|c| / degree for a rule without a closed form; -inf for zero."""
    try:
        mag = abs(c)
    except OverflowError:  # both parts are finite: |c| = 2 |c/2|, and halving is exact
        return (log(abs(complex(c.real / 2, c.imag / 2))) + log(2.0)) / degree
    return log(mag) / degree if mag else -inf


_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float


def _unit_phase(c: complex) -> complex:
    """c / |c|: exactly +-1 for a real c, a signed zero included.

    Otherwise both parts are first scaled by one power of two, so that the
    larger is in [1/2, 1): no subnormal |c| divides, and no |c| overflows.
    """
    if c.imag == 0.0:
        return math.copysign(1.0, c.real)
    e = math.frexp(max(abs(c.real), abs(c.imag)))[1]
    c = complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
    return c / float(np.hypot(c.real, c.imag))


def _merged_log(coefficients: list, logs: list, small: list, degree: int) -> float:
    """log|sum of c_i| / degree from the members' closed-form logs, -inf where the sum is 0.

    Members not small (|c_i| at or above the smallest normal float) are exact
    and add onto 0j in member order to T, so members that cancel leave no
    mass.  Over T (where T != 0, log|T| / degree) and the small members, the
    log is m + log|S| / degree, with m the largest log and S the sum of
    e^(degree (log_i - m)) u_i, u_i the unit phase of c_i: a log-sum-exp with
    phases (P. Blanchard, D. J. Higham and N. J. Higham, IMA J. Numer. Anal.
    41(4), 2021), so coefficients that underflowed still count; -inf logs add
    nothing.  A complex c_i that underflowed to 0j counts as the real zero it holds.
    """
    total, terms = 0.0j, []
    for c, v, tiny in zip(coefficients, logs, small):
        if tiny:
            terms.append((c, v))
        else:
            total += c
    if total:
        terms.insert(0, (total, _log_abs_over(total, degree)))
    m, s = max(v for _, v in terms), 0.0j
    for c, v in terms:  # onto 0j: T, then the small members in member order
        s += math.exp(degree * (v - m)) * _unit_phase(c)
    mag = float(np.hypot(s.real, s.imag))
    return m + log(mag) / degree if mag else -inf


class CoefficientRule:
    """Total assignment of a complex coefficient to every multi-index.

    scan is the one scan; coefficient stays an independent per-index
    reference with its own membership test.  dimension is the one series
    dimension the rule fits, or None where it fits any.
    """

    kind = "abstract"
    dimension: int | None

    def coefficient(self, index: MultiIndex) -> complex:
        raise NotImplementedError

    def scan(self, dimension: int, degrees: range):
        """int64 entries (M x N), complex128 c_J and float64 log|c_J|/|J| of the supported J.

        J has its degree in degrees, a range of consecutive degrees >= 1; rows
        come by degree, then lexicographically, and supported zeros log -inf.
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class FullGeometric(CoefficientRule):
    """c_J = 1 for every J: the standard N-variable geometric series."""

    kind = "full_geometric"
    dimension = None

    def coefficient(self, index: MultiIndex) -> complex:
        return 1.0 + 0.0j

    def scan(self, dimension: int, degrees: range):
        entries = compositions(dimension, degrees)
        return entries, np.ones(len(entries), np.complex128), np.zeros(len(entries))

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

    @property
    def dimension(self) -> int:
        return self.direction.dimension

    def _multiple(self, index: MultiIndex):
        """k >= 1 with index == k * direction, else None."""
        k, r = divmod(index.degree, self.direction.degree)
        on_ray = k >= 1 and not r and index.entries == tuple(k * b for b in self.direction.entries)
        return k if on_ray else None

    def _value(self, k: int) -> complex:
        """ratio**k; an overflow reads +inf, also where repeated squaring left a NaN."""
        value = complex(_or_inf(self.ratio.__pow__, k))
        return complex(inf, 0.0) if cmath.isnan(value) else value

    def coefficient(self, index: MultiIndex) -> complex:
        k = self._multiple(index)
        return 0.0j if k is None else self._value(k)

    def scan(self, dimension: int, degrees: range):
        qs = [k // self.direction.degree for k in degrees if k % self.direction.degree == 0]
        # log|ratio**q| / (q |J0|) collapses to a degree-free constant
        v = _log_abs_over(self.ratio, self.direction.degree)
        entries = np.multiply.outer(np.array(qs, np.int64), self.direction.entries)
        return entries, np.array([self._value(q) for q in qs], np.complex128), np.full(len(qs), v)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "direction": list(self.direction.entries),
            "ratio": _complex_to_json(self.ratio),
        }


class ExplicitTable(CoefficientRule):
    """Finite table of coefficients; everything absent is zero.

    Stored as the scan arrays of every degree; a constant term is the first
    row, with log -inf, and no scan reaches it.
    """

    kind = "explicit_table"

    def __init__(self, table):
        items = {_as_multiindex(j): _no_nan(c) for j, c in dict(table).items()}
        if len({j.dimension for j in items}) > 1:
            raise DimensionMismatch("table indices have mixed dimensions")
        rows = sorted(items, key=lambda j: (j.degree, j.entries))
        self.entries = np.array([j.entries for j in rows] or np.empty((0, 0)), np.int64)
        self.coefficients = np.array([items[j] for j in rows], np.complex128)
        logs = [_log_abs_over(items[j], j.degree) if j.degree else -inf for j in rows]
        self.logs = np.array(logs, np.float64)

    @classmethod
    def from_rows(cls, table: "CoefficientTable", rows: np.ndarray) -> "ExplicitTable":
        """The sorted rows of a checked table, its logs kept; nothing is recomputed."""
        self = cls.__new__(cls)
        self.entries, self.logs = table.entries[rows], table.logs[rows]
        self.coefficients = table.coefficients[rows]
        return self

    @property
    def dimension(self) -> int | None:
        return self.entries.shape[1] if len(self.entries) else None

    def coefficient(self, index: MultiIndex) -> complex:
        k = np.flatnonzero((self.entries == index.entries).all(axis=1)) if len(self.entries) else ()
        return self.coefficients[k[0]].item() if len(k) else 0.0j

    def scan(self, dimension: int, degrees: range):
        rows = slice(*np.searchsorted(self.entries.sum(axis=1), (degrees.start, degrees.stop)))
        return self.entries[rows].reshape(-1, dimension), self.coefficients[rows], self.logs[rows]

    def to_json(self) -> dict:
        items = sorted(zip(self.entries.tolist(), self.coefficients.tolist()))  # no two J tie
        return {
            "kind": self.kind,
            "indices": [j for j, _ in items],
            "values": [_complex_to_json(c) for _, c in items],
        }


class SupportWeighted(CoefficientRule):
    """Coefficients exp(-|J| h_n) * scale on a doubly-indexed family of lattice points.

    Row n tracks the direction alpha_n with weight h_n.  Slot (n, k) lives at
    degree base + (n-1) stride + (k-1) M stride, so every slot owns a unique
    degree and the family members are distinct by construction; the slot index
    is the nearest degree-d lattice direction to alpha_n.  Normalized log
    magnitudes are reported as -h_n + log|scale|/|J| exactly, never through
    exp; at scale 1 that is -h_n itself.
    """

    kind = "support_weighted"

    def __init__(self, directions, values, per_row: int, base: int = 8, stride: int = 1,
                 scale: float = 1.0):
        directions = Directions(directions)
        values = tuple(as_real(v, "support weight") for v in values)
        scale = as_real(scale, "scale")
        if len(directions) != len(values):
            raise ValueError("directions and values must have equal length")
        for v in values:
            if not math.isfinite(v):
                raise ValueError("support weights must be finite")
        if not math.isfinite(scale) or scale == 0.0:
            raise ValueError("scale must be finite and nonzero")
        if as_int(per_row, "per_row") < 1:
            raise ValueError("per_row must be >= 1")
        if as_int(base, "base") < 1 or as_int(stride, "stride") < 1:
            raise ValueError("base and stride must be >= 1")
        self.directions = directions
        self.values = values
        self.per_row = per_row
        self.base = base
        self.stride = stride
        self.scale = scale

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
        return nearest_index_of_degree(self.directions[row - 1], self.degree_of(row, slot))

    def family_indices(self):
        """All (row, slot, index) triples in (slot, row) order."""
        for slot in range(1, self.per_row + 1):
            for row in range(1, self.rows + 1):
                yield row, slot, self.index_at(row, slot)

    def row(self, row: int, scale: float = 1.0) -> "SupportWeighted":
        """Single row as its own rule, its scale times scale; degrees are preserved exactly."""
        if not 1 <= row <= self.rows:
            raise ValueError(f"row must be in 1..{self.rows}")
        return SupportWeighted(
            (self.directions[row - 1],),
            (self.values[row - 1],),
            per_row=self.per_row,
            base=self.base + (row - 1) * self.stride,
            stride=self.rows * self.stride,
            scale=self.scale * scale,
        )

    @property
    def dimension(self) -> int:
        return self.directions.dimension

    def _value(self, degree: int, h: float) -> complex:
        """exp(-|J| h) * scale; if the exp overflows, exp(-|J| h + log|scale|) signed, or +-inf."""
        try:
            return complex(math.exp(-degree * h) * self.scale)
        except OverflowError:
            return complex(math.copysign(_or_inf(math.exp, -degree * h + log(abs(self.scale))),
                                         self.scale))

    def coefficient(self, index: MultiIndex) -> complex:
        slot = self.slot_of_degree(index.degree)
        if slot is None or self.index_at(*slot) != index:
            return 0.0j
        return self._value(index.degree, self.values[slot[0] - 1])

    def scan(self, dimension: int, degrees: range):
        entries, coefficients, logs = [], [], []
        for d in degrees:
            slot = self.slot_of_degree(d)
            if slot:
                h = self.values[slot[0] - 1]
                entries.append(nearest_entries(self.directions[slot[0] - 1], d))
                coefficients.append(self._value(d, h))
                # -h + 0.0 would turn -h = -0.0 into 0.0, so scale 1 keeps -h itself
                logs.append(-h if self.scale == 1.0 else -h + log(abs(self.scale)) / d)
        entries = np.array(entries, np.int64).reshape(len(entries), dimension)
        return entries, np.array(coefficients, np.complex128), np.array(logs)

    def to_json(self) -> dict:
        dirs = [list(d.coords) for d in self.directions]
        data = {
            "kind": self.kind,
            "support": {"directions": dirs, "values": list(self.values)},
            "family": {
                "base": self.base,
                "stride": self.stride,
                "per_row": self.per_row,
                "directions": dirs,
            },
        }
        if self.scale != 1.0:  # scale 1 writes the unscaled format unchanged
            data["scale"] = self.scale
        return data


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
        dims = {m.dimension for m in members} - {None}
        if len(dims) > 1:
            raise DimensionMismatch(f"sum members have dimensions {sorted(dims)}")
        self.members = members
        self.dimension = dims.pop() if dims else None

    def coefficient(self, index: MultiIndex) -> complex:
        return sum((m.coefficient(index) for m in self.members), 0.0j)

    def scan(self, dimension: int, degrees: range):
        """Member scans merged by index, coefficients summed as coefficient does.

        One index's rows are added onto 0j in member order.  An index where
        exactly one member has a log above -inf keeps that member's log;
        log|sum|/|J| is used only where two or more are nonzero, and where
        that sum and a member with a finite log lie below the smallest normal
        float, _merged_log keeps it in closed form.  Members holding +inf and
        -inf at one index raise ValueError.
        """
        entries, coefficients, logs = (np.concatenate(a) for a in zip(
            *(m.scan(dimension, degrees) for m in self.members)))
        # a stable sort keeps each index's rows in member order
        order = np.lexsort((*entries.T[::-1], entries.sum(axis=1)))
        entries, coefficients, logs = entries[order], coefficients[order], logs[order]
        first = np.ones(len(entries), bool)
        first[1:] = (entries[1:] != entries[:-1]).any(axis=1)
        starts, group = np.flatnonzero(first), np.cumsum(first) - 1
        summed = np.zeros(len(starts), np.complex128)
        with np.errstate(invalid="ignore"):  # opposite infinities: NaN, refused below
            np.add.at(summed, group, coefficients)
        nonzero = np.bincount(group, logs != -inf, len(starts))
        with np.errstate(over="ignore"):
            small = np.hypot(coefficients.real, coefficients.imag) < _TINY
            underflowed = (np.hypot(summed.real, summed.imag) < _TINY) & (
                np.bincount(group, small & np.isfinite(logs), len(starts)) > 0)
        # with one log above -inf, that log is its index's maximum
        merged = np.maximum.reduceat(logs, starts) if len(starts) else logs
        ends = np.append(starts[1:], len(entries))
        for k in np.flatnonzero(nonzero > 1).tolist():
            c, j = summed[k].item(), tuple(entries[starts[k]].tolist())
            if cmath.isnan(c):
                raise ValueError(
                    f"sum members hold opposite infinities at index {j}; "
                    "the coefficient there is undefined"
                )
            rows = slice(starts[k], ends[k])
            merged[k] = (_merged_log(coefficients[rows].tolist(), logs[rows].tolist(),
                                     small[rows].tolist(), sum(j))
                         if underflowed[k] else _log_abs_over(c, sum(j)))
        return entries[starts], summed, merged

    def to_json(self) -> dict:
        return {"kind": self.kind, "members": [m.to_json() for m in self.members]}


def _rule_from_json(data: dict) -> CoefficientRule:
    kind = data.get("kind")
    if kind == FullGeometric.kind:
        return FullGeometric()
    if kind == RayGeometric.kind:
        return RayGeometric(data["direction"], _complex_from_json(data["ratio"], "ratio"))
    if kind == ExplicitTable.kind:
        indices = data["indices"]
        values = data["values"]
        if len(indices) != len(values):
            raise ValueError("explicit table indices and values differ in length")
        return ExplicitTable(
            {tuple(j): _complex_from_json(c, "coefficient") for j, c in zip(indices, values)}
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
            scale=data.get("scale", 1.0),
        )
    if kind == SumRule.kind:
        return SumRule([_rule_from_json(m) for m in data["members"]])
    raise ValueError(f"unknown coefficient rule kind: {kind!r}")


def _powers(x: float, max_degree: int) -> list[float]:
    """x**k for k = 0..max_degree; inf where ** overflowed (it never returns inf)."""
    try:
        return [x**k for k in range(max_degree + 1)]
    except OverflowError:  # per power only here: a helper call per power doubles every table's cost
        return [_or_inf(x.__pow__, k) for k in range(max_degree + 1)]


def tail_window(max_degree: int) -> range:
    """Degrees ceil(K/2) .. K inclusive: the window every root-test estimate reads."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return range((max_degree + 1) // 2, max_degree + 1)


class CoefficientTable(NamedTuple):
    """The rule's scan of degrees 1..K as read-only arrays, one per series and K.

    The M x N int64 entries of the M scanned indices, the N x M projections
    J / |J| (rounded as project rounds them), the c_J (supported zeros
    included), |c_J| and log|c_J|/|J|; the rows of degree k are
    offsets[k]:offsets[k + 1], and the tail window's rows are tail_start:.
    The probe reads no logs or projections.
    """

    entries: np.ndarray
    projections: np.ndarray
    coefficients: np.ndarray
    magnitudes: np.ndarray
    logs: np.ndarray
    offsets: tuple[int, ...]
    tail_start: int

    def monomials(self, r) -> np.ndarray:
        """r^J per row, bit for bit the per-term product of Python powers.

        np.power does not round like libm pow, so the powers come from **.
        Factors multiply in coordinate order (x**0 == 1.0 leaves a product
        unchanged).  A product past the float range reads +inf, also where
        the overflow met a zero factor and left a NaN.
        """
        out = np.ones(len(self.entries))
        with np.errstate(over="ignore", invalid="ignore"):
            for x, column in zip(r, self.entries.T):
                out *= np.array(_powers(x, len(self.offsets) - 2))[column]
        out[np.isnan(out)] = inf
        return out

    def absolute_terms(self, r) -> tuple[np.ndarray, list[int]]:
        """|c_J| r^J where c_J != 0 (+inf past the float range), and where each degree starts."""
        keep = self.magnitudes != 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.magnitudes[keep] * self.monomials(r)[keep]
        terms[np.isnan(terms)] = inf  # an infinite |c_J| beside a zero r^J
        return terms, np.concatenate(([0], np.cumsum(keep)))[list(self.offsets)].tolist()


@dataclass(frozen=True, eq=False)
class SeriesSpec(JsonFile):
    """Dimension, coefficient rule, and a free-text label."""

    dimension: int
    rule: CoefficientRule
    label: str = ""
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if as_int(self.dimension, "dimension") < 1:
            raise ValueError("series dimension must be >= 1")
        if self.rule.dimension not in (None, self.dimension):
            raise DimensionMismatch(
                f"{self.rule.kind} rule has dimension {self.rule.dimension}, "
                f"series has {self.dimension}"
            )

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
        point = tuple(as_real(x, "point coordinate") for x in point)
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
        """log|c_J| / |J| from J's row, if any, in its degree's scan; -inf for none or c_J = 0."""
        index = self._check_index(index)
        if index.degree < 1:
            raise ValueError("normalized log magnitude needs degree >= 1")
        entries, _, logs = self.rule.scan(self.dimension, range(index.degree, index.degree + 1))
        return max(logs[(entries == index.entries).all(axis=1)].tolist(), default=-inf)

    def supported_indices(self, degree: int):
        """Indices of the given degree where the coefficient may be nonzero."""
        entries, _, _ = self.rule.scan(self.dimension, range(degree, degree + 1))
        return tuple(map(MultiIndex, map(tuple, entries.tolist())))

    def coefficient_table(self, max_degree: int) -> CoefficientTable:
        """The rule's scan of degrees 1..max_degree as a CoefficientTable.

        Memoized per max_degree for the lifetime of this series, so the
        estimators, the decomposer and the probe share one scan.  Offsets
        come from the int64 row sums.
        """
        table = self._tables.get(max_degree)
        if table is None:
            entries, coefficients, logs = self.rule.scan(self.dimension, range(1, max_degree + 1))
            sums = entries.sum(axis=1)
            with np.errstate(over="ignore"):  # Python abs bit for bit, +inf where abs raises
                magnitudes = np.hypot(coefficients.real, coefficients.imag)
            offsets = tuple(np.searchsorted(sums, range(max_degree + 2)).tolist())
            table = CoefficientTable(
                entries,
                (entries / sums[:, None]).T.copy(),
                coefficients,
                magnitudes,
                logs,
                offsets,
                # below degree 1 the table is empty, and so is its tail window
                offsets[tail_window(max_degree).start] if max_degree >= 1 else 0,
            )
            for array in table[:5]:
                array.flags.writeable = False
            self._tables[max_degree] = table
        return table

    def slice_coefficients(self, point, max_degree: int) -> list[complex]:
        """a_k = sum of c_J r^J over |J| = k, for k = 0..max_degree.

        These are the coefficients of the one-variable series obtained by
        restricting to the ray through r and combining like powers.  Each
        c_J r^J, with c_J = a + bi and p = r^J, has the parts (a p - b 0.0,
        a 0.0 + b p) of Python's complex times float, and adds onto 0j in scan order.
        """
        r = self._check_point(point, positive=True)
        if max_degree < 1:
            return [self.constant_term()]
        table = self.coefficient_table(max_degree)
        c, p = table.coefficients, table.monomials(r)
        terms, out = np.empty_like(c), np.zeros(max_degree + 1, np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf within a degree is NaN
            terms.real = c.real * p - c.imag * 0.0
            terms.imag = c.real * 0.0 + c.imag * p
            np.add.at(out, np.repeat(np.arange(max_degree + 1), np.diff(table.offsets)), terms)
        return [self.constant_term()] + out[1:].tolist()

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "label": self.label,
            "rule": self.rule.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeriesSpec":
        return cls(
            dimension=data["dimension"],
            rule=_rule_from_json(data["rule"]),
            label=str(data.get("label", "")),
        )
