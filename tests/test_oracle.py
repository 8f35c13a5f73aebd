import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reinhardt import (
    ExplicitTable,
    Membership,
    ProbeOutcome,
    ProbeVerdict,
    RayGeometric,
    SeriesSpec,
    agreement_grid,
    classify,
    oracle,
    probe,
    sum_domain_check,
)
from reinhardt.cli import main
from reinhardt.oracle import block_sums, tally
from reinhardt.series import CoefficientTable
from conftest import (
    grid2,
    linear_scan_corpus,
    linear_scan_radii,
    reference_block_sums,
    reference_tally,
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


def test_finite_terms_whose_exact_sum_overflows_read_divergence(full_geom):
    # every term is finite (1e154^2 = 1e308), but three of them make a block past the range
    blocks = block_sums(full_geom, (1e154, 1e154), 32)
    assert blocks[:2] == [1.0, 2e154] and blocks[2:] == [INF] * 31
    verdict = probe(full_geom, (1e154, 1e154), 32)
    assert verdict == ProbeVerdict(ProbeOutcome.DIVERGES, INF, INF)


def test_an_overflowed_constant_term_reads_divergence():
    series = SeriesSpec(2, ExplicitTable({(0, 0): complex(1.7e308, 1.7e308), (1, 0): 1.0}))
    assert block_sums(series, (0.5, 0.5), 32)[:2] == [INF, 0.5]
    assert probe(series, (0.5, 0.5), 32).outcome is ProbeOutcome.DIVERGES


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


@pytest.mark.parametrize("degrees, outcome, ratio", [
    (range(9, 17), ProbeOutcome.CONVERGES, 0.0),  # every block at K/2 or below
    (range(17, 25), ProbeOutcome.INCONCLUSIVE, math.nan),  # every block above K/2
])
def test_a_probe_with_one_empty_half_of_the_blocks(degrees, outcome, ratio):
    series = SeriesSpec(2, ExplicitTable({(k, 0): 1.0 for k in degrees}))
    verdict = probe(series, (0.5, 0.5), 32)
    assert verdict.outcome is outcome
    assert same_float(verdict.tail_ratio, ratio)
    assert verdict.partial == math.fsum(0.5**k for k in degrees)


def test_agreement_grid_lists_each_decisive_mismatch(monkeypatch, capsys, tmp_path, f_zero):
    # a probe that always diverges disagrees with every decisive inside verdict
    monkeypatch.setattr(
        oracle, "probe", lambda *args: ProbeVerdict(ProbeOutcome.DIVERGES, 2.0, 1.0)
    )
    points = grid2(-1.0, 1.0, 3)
    verdicts = [classify(f_zero, s).membership for s in points]
    inside = [s for s, v in zip(points, verdicts) if v is Membership.INSIDE]
    decisive = sum(v is not Membership.UNKNOWN for v in verdicts)
    assert inside and decisive > len(inside)
    report = agreement_grid(f_zero, points)
    assert report.decisive == decisive
    assert report.agreement == (decisive - len(inside)) / decisive
    assert report.mismatches == tuple((tuple(s), "inside", "diverges") for s in inside)

    path = tmp_path / "f0.json"
    f_zero.save(path)
    assert main(["check", str(path), "--grid=-1:1:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mismatches"] == [[list(s), "inside", "diverges"] for s in inside]


def test_agreement_grid_empty_series_is_vacuous():
    empty = SeriesSpec(2, ExplicitTable({}))
    report = agreement_grid(empty, grid2(-1.0, 1.0, 5))
    assert report.decisive == 0
    assert report.agreement == 1.0


def test_a_radius_past_the_float_range_is_probed_as_inconclusive(monkeypatch, f_zero):
    # e^709.78 is a float and e^709.79 is not; the estimator reads outside at each
    points = [(-1.0, 800.0), (709.79, -1.0), (709.78, -1.0), (-1.0, -1.0)]
    verdicts = [classify(f_zero, s).membership for s in points]
    assert verdicts == [Membership.OUTSIDE] * 3 + [Membership.INSIDE]
    calls = []
    real_classify, real_probe = oracle.classify, oracle.probe

    def classified(series, s, *args):
        calls.append(("classify", s))
        return real_classify(series, s, *args)

    def probed(series, r, *args):
        calls.append(("probe", r))
        return real_probe(series, r, *args)

    monkeypatch.setattr(oracle, "classify", classified)
    monkeypatch.setattr(oracle, "probe", probed)
    report = agreement_grid(f_zero, points)
    r2, r3 = (math.exp(709.78), math.exp(-1.0)), (math.exp(-1.0),) * 2
    assert calls == [
        ("classify", points[0]), ("classify", points[1]),
        ("classify", points[2]), ("probe", r2), ("classify", points[3]), ("probe", r3),
    ]
    assert (report.points, report.decisive, report.agreement, report.mismatches) == (4, 2, 1.0, ())


def test_an_empty_grid_is_vacuous_in_both_cross_checks(full_geom):
    parts = [SeriesSpec(2, ExplicitTable({(1, 0): 1.0})), SeriesSpec(2, ExplicitTable({(0, 1): 1.0}))]
    report = agreement_grid(full_geom, [])
    assert (report.points, report.decisive, report.agreement, report.mismatches) == (0, 0, 1.0, ())
    report = sum_domain_check(parts, 16, [])
    assert (report.points, report.decisive, report.agreement, report.disagreements) == (0, 0, 1.0, ())


def _row_streams():
    point = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    sides = st.sampled_from(["inside", "outside", "unknown", "converges", "diverges"])

    def stream(same):
        return st.lists(st.tuples(point, sides, sides, same), max_size=24)

    return st.one_of(stream(st.none()), stream(st.none() | st.booleans()), stream(st.booleans()))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_row_streams())
@example([])
@example([((0.0, 1.0), "unknown", "converges", None)] * 3)
def test_the_tally_counts_as_the_per_point_counters_did(rows):
    points, decisive, agreement, disagreements = tally(rows)
    ref_points, ref_decisive, ref_agreement, ref_disagreements = reference_tally(rows)
    assert (points, decisive) == (ref_points, ref_decisive)
    assert same_float(agreement, ref_agreement)
    assert disagreements == ref_disagreements
    if decisive == 0:
        assert agreement == 1.0 and disagreements == ()


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


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_block_sums_hold_no_nan(dimension):
    # at N = 3, the rows (1, 1, c) overflow at (1e200, 1e200, 0) and then meet 0^c
    for max_degree in (32, 64):
        for series in linear_scan_corpus(dimension, max_degree):
            for r in linear_scan_radii(dimension):
                blocks = block_sums(series, r, max_degree)
                assert not any(map(math.isnan, blocks)), (series.label, r, max_degree)


def test_block_sums_never_read_the_log_table(f_zero):
    r = (0.7, 0.9)
    expected = reference_block_sums(f_zero, r, 64)
    verdict = probe(f_zero, r)

    class Refusing(CoefficientTable):
        """The table with the estimator's columns, projections and logs, sealed."""

        def _refuse(self):
            raise AssertionError("the probe read the estimator's log table")

        projections = logs = property(_refuse)

    fresh = SeriesSpec(2, f_zero.rule)
    fresh._tables[64] = Refusing(*fresh.coefficient_table(64))
    assert block_sums(fresh, r, 64) == expected
    assert probe(fresh, r) == verdict


def test_the_probe_reads_no_log_or_projection_of_the_shared_table(f_zero):
    series = SeriesSpec(2, f_zero.rule)
    r, max_degree = (0.7, 0.9), 64

    def linear_scans():
        return (
            block_sums(series, r, max_degree),
            probe(series, r, max_degree),
            series.slice_coefficients(r, max_degree),
        )

    expected = linear_scans()
    table = series.coefficient_table(max_degree)
    poisoned = table._replace(
        logs=np.full_like(table.logs, math.nan),
        projections=np.full_like(table.projections, math.nan),
    )
    series._tables[max_degree] = poisoned
    assert series.coefficient_table(max_degree) is poisoned
    assert linear_scans() == expected
