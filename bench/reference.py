"""Independent reference values for checking benchmark outputs.

Nothing here calls into ``reinhardt``: every expected value is derived from
the plain numbers that describe a generated input (ray direction and ratio,
family directions and weights, half-space rows).  Truncated indicators use the
closed forms of the rules, block sums are taken in log space with numpy, and
support values come from vertex enumeration (small dimensions) or scipy's
HiGHS solver (the polytope workload).

Comparisons next to a decision threshold are ambiguous: a value within
``THRESHOLD_TOL`` of a membership or probe threshold accepts either verdict.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

VALUE_TOL = 1e-9
THRESHOLD_TOL = 1e-9
LP_REL_TOL = 1e-6
FEASIBILITY_TOL = 1e-6


def tail_degrees(max_degree: int) -> range:
    return range((max_degree + 1) // 2, max_degree + 1)


def acceptable(value: float, low: float, high: float, below, between, above) -> set:
    """Verdicts acceptable for value against thresholds low < high."""
    out = set()
    if value < low + THRESHOLD_TOL:
        out.add(below)
    if value > high - THRESHOLD_TOL:
        out.add(above)
    if low - THRESHOLD_TOL <= value <= high + THRESHOLD_TOL:
        out.add(between)
    return out


def memberships(value: float, epsilon: float) -> set:
    """Membership strings a classify verdict may carry for an indicator value."""
    return acceptable(value, -epsilon, epsilon, "inside", "unknown", "outside")


def _logsumexp(values: np.ndarray) -> float:
    if values.size == 0:
        return -math.inf
    top = float(values.max())
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.exp(values - top).sum()))


def _lattice(dimension: int, degree: int) -> np.ndarray:
    """All non-negative integer rows of the given dimension summing to degree."""
    if dimension == 1:
        return np.array([[degree]])
    rows = []
    for first in range(degree + 1):
        rest = _lattice(dimension - 1, degree - first)
        rows.append(np.hstack([np.full((rest.shape[0], 1), first), rest]))
    return np.vstack(rows)


class GeometricRay:
    """Full geometric series plus a geometric series along the ray J0.

    Coefficients are 1 off the ray and 1 + ratio**q at J = q*J0: the like
    terms combine, and the log magnitude keeps the sum.
    """

    def __init__(self, ray, ratio: float):
        self.ray = np.asarray(ray, dtype=float)
        self.ray_degree = int(sum(ray))
        self.ratio = float(ratio)
        self._lattices: dict[int, np.ndarray] = {}

    @property
    def dimension(self) -> int:
        return self.ray.size

    def _ray_log(self, degree: int):
        q, r = divmod(degree, self.ray_degree)
        if r or q < 1:
            return None
        return math.log(abs(1.0 + self.ratio**q))

    def psi_hat(self, s, max_degree: int) -> float:
        """Closed-form tail-window indicator."""
        s = np.asarray(s, dtype=float)
        best = float(s.max())
        mean = float(self.ray @ s) / self.ray_degree
        for m in tail_degrees(max_degree):
            lg = self._ray_log(m)
            if lg is not None:
                best = max(best, mean + lg / m)
        return best

    def psi(self, s) -> float:
        """Untruncated region function: negative exactly on the log domain."""
        s = np.asarray(s, dtype=float)
        mean = float(self.ray @ s) / self.ray_degree
        return max(float(s.max()), mean + math.log(abs(self.ratio)) / self.ray_degree)

    def log_blocks(self, s, max_degree: int) -> np.ndarray:
        """log B_k for k = 0..K, B_k = sum over |J| = k of |c_J| exp(<J, s>)."""
        s = np.asarray(s, dtype=float)
        out = np.empty(max_degree + 1)
        out[0] = 0.0  # constant term 1
        for k in range(1, max_degree + 1):
            lat = self._lattices.get(k)
            if lat is None:
                lat = self._lattices[k] = _lattice(self.dimension, k)
            terms = lat @ s
            lg = self._ray_log(k)
            if lg is not None:
                q = k // self.ray_degree
                on_ray = np.all(lat == q * self.ray.astype(int), axis=1)
                terms = terms + np.where(on_ray, lg, 0.0)
            out[k] = _logsumexp(terms)
        return out

    def occurring(self, max_degree: int) -> int:
        return sum(math.comb(k + self.dimension - 1, self.dimension - 1)
                   for k in range(1, max_degree + 1))


def nearest_index(alpha, degree: int) -> list[int]:
    """Degree-k lattice point nearest to alpha in l1 (largest remainders)."""
    n = len(alpha)
    targets = [degree * c for c in alpha]
    floors = [math.floor(t) for t in targets]
    fracs = [t - f for t, f in zip(targets, floors)]
    leftover = max(0, min(degree - sum(floors), n))
    for i in sorted(range(n), key=lambda i: (-fracs[i], -i))[:leftover]:
        floors[i] += 1
    return floors


class Family:
    """Support-weighted family: slot (n, k) at degree base + (n-1 + (k-1)M) stride
    carries exp(-|J| h_n) at the lattice point nearest to alpha_n."""

    def __init__(self, directions, values, per_row: int, base: int = 8, stride: int = 1):
        self.directions = [tuple(float(x) for x in d) for d in directions]
        self.values = [float(v) for v in values]
        self.per_row = per_row
        self.base = base
        self.stride = stride
        self._members: dict[int, tuple] = {}

    @property
    def dimension(self) -> int:
        return len(self.directions[0])

    def member(self, degree: int):
        """(index array, h) of the family member at this degree, or None."""
        if degree not in self._members:
            t = degree - self.base
            found = None
            if t >= 0 and t % self.stride == 0:
                u = t // self.stride
                m = len(self.directions)
                row, slot = u % m, u // m + 1
                if slot <= self.per_row:
                    j = np.array(nearest_index(self.directions[row], degree), dtype=float)
                    found = (j, self.values[row])
            self._members[degree] = found
        return self._members[degree]

    def psi_hat(self, s, max_degree: int) -> float:
        s = np.asarray(s, dtype=float)
        best = -math.inf
        for k in tail_degrees(max_degree):
            mem = self.member(k)
            if mem is not None:
                best = max(best, float(mem[0] @ s) / k - mem[1])
        return best

    def psi(self, s) -> float:
        """Region realized in the limit: max_n <alpha_n, s> - h_n."""
        s = np.asarray(s, dtype=float)
        return max(float(np.dot(d, s)) - h for d, h in zip(self.directions, self.values))

    def log_blocks(self, s, max_degree: int) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.full(max_degree + 1, -math.inf)
        for k in range(1, max_degree + 1):
            mem = self.member(k)
            if mem is not None:
                out[k] = float(mem[0] @ s) - k * mem[1]
        return out

    def occurring(self, max_degree: int) -> int:
        return sum(1 for k in range(1, max_degree + 1) if self.member(k) is not None)


def probe_outcomes(log_blocks: np.ndarray, max_degree: int, margin: float) -> set:
    """Probe outcomes consistent with the dyadic block-ratio fit."""
    if _logsumexp(log_blocks) > 709.0:
        return {"diverges"}
    if int(np.isfinite(log_blocks[1:]).sum()) < 8:
        return {"inconclusive"}
    half = max_degree // 2
    low = _logsumexp(log_blocks[1: half + 1])
    high = _logsumexp(log_blocks[half + 1:])
    if low == -math.inf:
        return {"inconclusive"}
    if high == -math.inf:
        return {"converges"}
    ratio = math.exp((high - low) / (max_degree - half))
    return acceptable(ratio, 1.0 - margin, 1.0 + margin, "converges", "inconclusive", "diverges")


def support_by_vertices(rows, alpha) -> float:
    """max <alpha, s> over {<a_i, s> <= c_i} by basic-solution enumeration.

    Valid for pointed regions bounded in the direction alpha, which axis caps
    guarantee for every simplex direction.
    """
    n = len(alpha)
    best = -math.inf
    A_all = np.array([r[0] for r in rows], dtype=float)
    c_all = np.array([r[1] for r in rows], dtype=float)
    for subset in combinations(range(len(rows)), n):
        A = A_all[list(subset)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        v = np.linalg.solve(A, c_all[list(subset)])
        if np.all(A_all @ v <= c_all + 1e-9):
            best = max(best, float(np.dot(alpha, v)))
    return best


def lp_reference(alpha, A: np.ndarray, c: np.ndarray):
    """(status, value) of sup <alpha, s> over A s <= c from scipy's HiGHS.

    Returns None when scipy is not installed; callers then fall back to the
    witness checks, which need no solver.
    """
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    if A.shape[0] == 0:
        return ("optimal", 0.0) if not np.any(alpha) else ("unbounded", math.inf)
    res = linprog(-np.asarray(alpha, dtype=float), A_ub=A, b_ub=c,
                  bounds=(None, None), method="highs")
    if res.status == 0:
        return "optimal", float(-res.fun)
    if res.status == 3:
        return "unbounded", math.inf
    if res.status == 2:
        return "infeasible", -math.inf
    raise RuntimeError(f"reference LP failed: {res.message}")


def lp_values_match(value: float, ref_value: float) -> bool:
    if math.isinf(ref_value) or math.isinf(value):
        return value == ref_value
    return abs(value - ref_value) <= LP_REL_TOL * (1.0 + abs(ref_value))


def witness_ok(alpha, A: np.ndarray, c: np.ndarray, witness, value: float) -> bool:
    """Witness satisfies every row and attains the reported value."""
    w = np.asarray(witness, dtype=float)
    if A.shape[0] and np.any(A @ w > c + FEASIBILITY_TOL * (1.0 + np.abs(c))):
        return False
    return abs(float(np.dot(alpha, w)) - value) <= LP_REL_TOL * (1.0 + abs(value))
