"""Independent brute-force ground truth for absolute convergence at a point.

The probe never looks at the logarithmic machinery: it sums degree blocks
B_k = sum of |c_J| r^J over |J| = k and fits a geometric ratio between the
two dyadic halves of the block range.  The root test and this block-ratio
fit estimate the same limit from opposite directions, which keeps the oracle
aligned in meaning while fully independent in implementation.  Verdicts
inside the margin band are Inconclusive by design; the oracle never guesses
near a polyradius boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import fsum, inf

from .hadamard import Membership, classify
from .series import SeriesSpec

__all__ = [
    "GridAgreementReport",
    "ProbeOutcome",
    "ProbeVerdict",
    "agreement_grid",
    "block_sums",
    "probe",
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

    An overflowing r^J makes its term +inf; each block is summed exactly.
    """
    r = series._check_point(point, radius=True)
    terms, starts = series.coefficient_table(max_degree).absolute_terms(r)
    terms = terms.tolist()
    blocks = [[abs(series.constant_term())]]
    blocks += [terms[starts[k] : starts[k + 1]] for k in range(1, max_degree + 1)]
    return [fsum(b) for b in blocks]


def probe(
    series: SeriesSpec,
    point,
    max_degree: int = 64,
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
    if max_degree < 32:
        raise ValueError("max_degree must be >= 32")
    if not 0.0 < margin < 0.5:
        raise ValueError("margin must lie in (0, 0.5)")
    blocks = block_sums(series, point, max_degree)
    partial = fsum(blocks) if all(math.isfinite(b) for b in blocks) else inf
    if math.isinf(partial):
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


def agreement_grid(
    series: SeriesSpec,
    log_points,
    max_degree: int = 64,
    epsilon: float = 0.05,
    margin: float = DEFAULT_MARGIN,
) -> GridAgreementReport:
    """Fraction of grid points where the estimator and the probe agree.

    Each log-point s is classified by the tail-window estimator and probed
    at exp(s) coordinate-wise; only points decisive on both sides count.
    With no decisive points the agreement is vacuously 1.
    """
    points = 0
    decisive = 0
    agree = 0
    mismatches = []
    for s in log_points:
        points += 1
        verdict = classify(series, s, max_degree, epsilon)
        r = tuple(math.exp(float(x)) for x in s)
        probed = probe(series, r, max_degree, margin)
        if verdict.membership is Membership.UNKNOWN:
            continue
        if probed.outcome is ProbeOutcome.INCONCLUSIVE:
            continue
        decisive += 1
        # both sides are decisive here: they agree when inside meets converges
        if (verdict.membership is Membership.INSIDE) == (probed.outcome is ProbeOutcome.CONVERGES):
            agree += 1
        else:
            mismatches.append(
                (tuple(float(x) for x in s), verdict.membership.value, probed.outcome.value)
            )
    agreement = agree / decisive if decisive else 1.0
    return GridAgreementReport(points, decisive, agreement, tuple(mismatches))
