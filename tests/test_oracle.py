import math

import pytest

from reinhardt import (
    ExplicitTable,
    ProbeOutcome,
    RayGeometric,
    SeriesSpec,
    agreement_grid,
    probe,
)
from reinhardt.oracle import block_sums
from conftest import (
    grid2,
    linear_scan_corpus,
    linear_scan_radii,
    reference_block_sums,
    same_float,
)

INF = math.inf


def test_probe_converges_on_the_polydisc(full_geom):
    verdict = probe(full_geom, (0.5, 0.5))
    assert verdict.outcome is ProbeOutcome.CONVERGES
    assert verdict.partial == pytest.approx(4.0, abs=1e-6)


def test_probe_diverges_past_the_polydisc(full_geom):
    # block sums grow like 1.05^k; the fitted ratio is 1.05, so decide with a
    # margin below 0.05
    verdict = probe(full_geom, (1.05, 0.1), margin=0.02)
    assert verdict.outcome is ProbeOutcome.DIVERGES
    assert verdict.tail_ratio == pytest.approx(1.05, abs=1e-3)
    # at the default margin the same point is within the undecided band
    assert probe(full_geom, (1.05, 0.1)).outcome is ProbeOutcome.INCONCLUSIVE


def test_probe_settles_the_diagonal_spike(f_zero):
    # diagonal blocks carry (2 * 0.64)^j: divergence strictly inside the
    # bidisc, so the region is the bidisc cut by |zw| < 1/2
    diverge = probe(f_zero, (0.8, 0.8))
    assert diverge.outcome is ProbeOutcome.DIVERGES
    assert diverge.tail_ratio == pytest.approx(math.sqrt(2 * 0.64), abs=0.01)
    converge = probe(f_zero, (0.6, 0.6))
    assert converge.outcome is ProbeOutcome.CONVERGES
    assert converge.tail_ratio < 0.9


def test_probe_overflow_is_divergence(full_geom):
    verdict = probe(full_geom, (40.0, 40.0), 64)
    assert verdict.outcome is ProbeOutcome.DIVERGES


def test_probe_sparse_support_needs_enough_blocks():
    thin = SeriesSpec(2, ExplicitTable({(4, 4): 1.0, (8, 8): 1.0}))
    assert probe(thin, (1.0, 1.0)).outcome is ProbeOutcome.INCONCLUSIVE


def test_probe_validation(full_geom):
    with pytest.raises(ValueError):
        probe(full_geom, (0.5, 0.5), max_degree=16)
    with pytest.raises(ValueError):
        probe(full_geom, (0.5, 0.5), margin=0.7)
    with pytest.raises(ValueError):
        probe(full_geom, (-0.5, 0.5))


def test_block_sums_match_direct_enumeration(f_zero):
    r = (0.7, 0.9)
    blocks = block_sums(f_zero, r, 20)
    for k in (1, 5, 12, 20):
        direct = math.fsum(
            abs(f_zero.coefficient(j)) * r[0] ** j.entries[0] * r[1] ** j.entries[1]
            for j in f_zero.supported_indices(k)
        )
        assert blocks[k] == pytest.approx(direct, rel=1e-12)


def test_probe_monotone_on_corpus(full_geom, ray_diag, f_zero):
    import random

    rng = random.Random(4)
    for series in (full_geom, ray_diag, f_zero):
        for _ in range(20):
            r = (rng.uniform(0.2, 1.4), rng.uniform(0.2, 1.4))
            bigger = (r[0] * rng.uniform(1.0, 1.5), r[1] * rng.uniform(1.0, 1.5))
            if probe(series, r).outcome is ProbeOutcome.DIVERGES:
                assert probe(series, bigger).outcome is not ProbeOutcome.CONVERGES


def test_agreement_grid_geometric(full_geom):
    report = agreement_grid(full_geom, grid2(-1.0, 1.0, 11))
    assert report.agreement == 1.0
    assert report.decisive > 0
    assert report.mismatches == ()


def test_agreement_grid_ray(ray_diag):
    report = agreement_grid(ray_diag, grid2(-1.0, 1.0, 11))
    assert report.agreement == 1.0
    assert report.decisive > 0


def test_agreement_grid_empty_series_is_vacuous():
    empty = SeriesSpec(2, ExplicitTable({}))
    report = agreement_grid(empty, grid2(-1.0, 1.0, 5))
    assert report.decisive == 0
    assert report.agreement == 1.0


def test_estimator_probe_never_contradict(full_geom, ray_diag, f_zero, wedge_domain):
    # corpus: block sums with coherent tail growth, so the two-point ratio
    # fit measures the same limit the estimator does (a many-direction
    # realizing series interleaves decay rates degree by degree and is
    # covered by the H-representation round trip instead)
    from reinhardt import Membership, SimplexDirection, classify, series_for_domain

    ray21 = SeriesSpec(2, RayGeometric((2, 1), 1 / 3))
    one_row = series_for_domain(wedge_domain, [SimplexDirection((0.5, 0.5))], per_row=64)
    corpus = [full_geom, ray_diag, f_zero, ray21, one_row]
    points = grid2(-1.0, 1.0, 11)
    for series in corpus:
        for s in points:
            verdict = classify(series, s, 64, 0.05)
            outcome = probe(series, tuple(math.exp(x) for x in s), 64).outcome
            if verdict.membership is Membership.INSIDE:
                assert outcome is not ProbeOutcome.DIVERGES, (series.label, s)
            if verdict.membership is Membership.OUTSIDE:
                assert outcome is not ProbeOutcome.CONVERGES, (series.label, s)


@pytest.mark.parametrize("point", [(math.nan, 0.5), (math.inf, 0.5)])
def test_non_finite_probe_points_are_rejected(f_zero, point):
    with pytest.raises(ValueError, match="finite"):
        probe(f_zero, point)
    with pytest.raises(ValueError, match="finite"):
        block_sums(f_zero, point, 32)


@pytest.mark.parametrize("max_degree", [32, 33, 64])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_block_sums_match_the_per_term_loop_bit_for_bit(dimension, max_degree):
    for series in linear_scan_corpus(dimension, max_degree):
        for r in linear_scan_radii(dimension):
            got = block_sums(series, r, max_degree)
            expected = reference_block_sums(series, r, max_degree)
            assert len(got) == len(expected) == max_degree + 1
            assert all(map(same_float, got, expected)), (series.label, r)


def test_block_sums_never_read_the_log_table(monkeypatch, f_zero):
    r = (0.7, 0.9)
    expected = reference_block_sums(f_zero, r, 64)
    verdict = probe(f_zero, r)

    def refuse(self, degrees):
        raise AssertionError("the probe read the estimator's log table")

    monkeypatch.setattr(SeriesSpec, "log_table", refuse)
    fresh = SeriesSpec(2, f_zero.rule)
    assert block_sums(fresh, r, 64) == expected
    assert probe(fresh, r) == verdict
