"""Independent brute-force ground truth for absolute convergence at a point.

The probe never looks at the logarithmic machinery: it sums degree blocks
B_k = sum of |c_J| r^J over |J| = k and fits a geometric ratio between the
two dyadic halves of the block range.  The root test and this block-ratio
fit estimate the same limit from opposite directions, which keeps the oracle
aligned in meaning while fully independent in implementation.  Verdicts
inside the margin band are Inconclusive by design; the oracle never guesses
near a polyradius boundary.  The blocks read only the coefficient table's
nonzero rows, which the table records once, and only a block of two or more
terms is summed with fsum.

tally is the one count behind both cross-checks, agreement_grid here and
decompose.sum_domain_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import fsum, inf

import numpy as np

from .hadamard import DEFAULT_EPSILON, DEFAULT_MAX_DEGREE, Membership, classify
from .series import SeriesSpec, _or_inf

__all__ = [
    "GridAgreementReport",
    "ProbeOutcome",
    "ProbeVerdict",
    "agreement_grid",
    "block_sums",
    "check_probe_settings",
    "probe",
    "tally",
]

DEFAULT_MARGIN = 0.1
_MIN_BLOCKS = 8


class ProbeOutcome(str, Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome with the fitted block ratio and the absolute partial sum."""

    outcome: ProbeOutcome
    tail_ratio: float
    partial: float


def block_sums(series: SeriesSpec, point, max_degree: int) -> list[float]:
    """B_k = sum of |c_J| r^J over |J| = k, for k = 0..max_degree, off the coefficient table.

    Only the table's nonzero rows are read.  A block of two or more terms is
    summed exactly; one term t reads 0.0 + t, as fsum([t]) does, and no
    term 0.0.  A term or a block past the float range reads +inf.
    """
    r = series._check_point(point, radius=True)
    table = series.coefficient_table(max_degree)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = table.magnitudes[table.nonzero] * table.monomials(r, table.nonzero)
    terms[np.isnan(terms)] = inf  # an infinite |c_J| beside a zero r^J
    values, starts = terms.tolist(), table.nonzero_offsets
    blocks = [_or_inf(abs, series.constant_term())]
    for a, b in zip(starts[1:-1], starts[2:]):  # one degree's nonzero terms are values[a:b]
        if b - a > 1:
            blocks.append(_or_inf(fsum, values[a:b]))
        else:  # 0.0 + t is fsum([t]), which reads t = -0.0 as 0.0
            blocks.append(0.0 + values[a] if b > a else 0.0)
    return blocks


def check_probe_settings(max_degree: int, margin: float) -> None:
    """ValueError for a truncation below 32 or a margin outside (0, 0.5); probe's own check."""
    if max_degree < 32:
        raise ValueError("max_degree must be >= 32")
    if not 0.0 < margin < 0.5:
        raise ValueError("margin must lie in (0, 0.5)")


def probe(
    series: SeriesSpec,
    point,
    max_degree: int = DEFAULT_MAX_DEGREE,
    margin: float = DEFAULT_MARGIN,
) -> ProbeVerdict:
    """Classify absolute convergence at a non-negative point by block growth.

    Fits the per-degree growth between the dyadic halves of the block range:
    rho = (S2 / S1)^(2/K) with S1 the sum of blocks of degree 1..K/2 and S2
    the sum of blocks K/2+1..K.  Shifting degrees by K/2 maps one window onto
    the other, so for geometric blocks B_k = c rho^k the fit returns rho
    exactly; summing whole windows (rather than comparing two individual
    blocks) keeps the fit meaningful when the support visits several decay
    rates in turn.  Diverges when rho > 1 + margin or the partial sum
    overflowed; Converges when rho < 1 - margin or the top window is empty;
    otherwise Inconclusive, as is any run with fewer than eight nonzero
    blocks or an empty bottom window.
    """
    check_probe_settings(max_degree, margin)
    blocks = block_sums(series, point, max_degree)
    partial = _or_inf(fsum, blocks)
    if partial == inf:
        return ProbeVerdict(ProbeOutcome.DIVERGES, inf, inf)
    if sum(1 for b in blocks[1:] if b > 0.0) < _MIN_BLOCKS:
        return ProbeVerdict(ProbeOutcome.INCONCLUSIVE, math.nan, partial)
    half = max_degree // 2
    low = fsum(blocks[1 : half + 1])
    high = fsum(blocks[half + 1 :])
    if low == 0.0:
        return ProbeVerdict(ProbeOutcome.INCONCLUSIVE, math.nan, partial)
    if high == 0.0:
        return ProbeVerdict(ProbeOutcome.CONVERGES, 0.0, partial)
    ratio = (high / low) ** (1.0 / (max_degree - half))
    if ratio > 1.0 + margin:
        outcome = ProbeOutcome.DIVERGES
    elif ratio < 1.0 - margin:
        outcome = ProbeOutcome.CONVERGES
    else:
        outcome = ProbeOutcome.INCONCLUSIVE
    return ProbeVerdict(outcome, ratio, partial)


@dataclass(frozen=True)
class GridAgreementReport:
    points: int
    decisive: int
    agreement: float
    mismatches: tuple


def tally(rows: list) -> tuple:
    """(points, decisive, agreement, disagreements) over rows (point, left, right, same).

    A row is decisive where same is not None (both sides decided); the
    agreement is the share of decisive rows with same true, or vacuously 1
    with none, and each decisive row with same false is kept as (point, left, right).
    """
    decided = [row for row in rows if row[3] is not None]
    disagreements = tuple(row[:3] for row in decided if not row[3])
    agreement = (len(decided) - len(disagreements)) / len(decided) if decided else 1.0
    return len(rows), len(decided), agreement, disagreements


def agreement_grid(
    series: SeriesSpec,
    log_points,
    max_degree: int = DEFAULT_MAX_DEGREE,
    epsilon: float = DEFAULT_EPSILON,
    margin: float = DEFAULT_MARGIN,
) -> GridAgreementReport:
    """Fraction of grid points where the estimator and the probe agree.

    Each log-point s is classified by the tail-window estimator and probed
    at exp(s) coordinate-wise, or read inconclusive where exp(s) is past the
    float range; tally counts the points decisive on both sides.
    """
    rows = []
    for s in log_points:
        point = tuple(float(x) for x in s)
        membership = classify(series, s, max_degree, epsilon).membership
        try:
            r = tuple(map(math.exp, point))
        except OverflowError:
            outcome = ProbeOutcome.INCONCLUSIVE
        else:
            outcome = probe(series, r, max_degree, margin).outcome
        decided = membership is not Membership.UNKNOWN and outcome is not ProbeOutcome.INCONCLUSIVE
        # where both sides decide, they agree when inside meets converges
        same = (membership is Membership.INSIDE) == (outcome is ProbeOutcome.CONVERGES)
        rows.append((point, membership.value, outcome.value, same if decided else None))
    return GridAgreementReport(*tally(rows))
