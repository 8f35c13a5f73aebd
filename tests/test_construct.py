import math
import random
from pathlib import Path

import pytest

from reinhardt import (
    EmptyWindow,
    ExplicitTable,
    FullGeometric,
    HalfSpace,
    HDomain,
    InfiniteSupport,
    RayGeometric,
    SeriesSpec,
    SimplexDirection,
    SumRule,
    build_family,
    classify,
    elementary_halfspace,
    extremal_sequence,
    project,
    series_for_domain,
    support_value,
    uniform_directions_2d,
)
from conftest import lattice_directions, reference_extremal_sequence

INF = math.inf
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_build_family_single_direction():
    rows = build_family([SimplexDirection((0.5, 0.5))], per_row=3)
    # degrees 8, 9, 10; the odd degree tie-breaks lexicographically
    assert [j.entries for j in rows[0]] == [(4, 4), (4, 5), (5, 5)]


def test_build_family_two_directions():
    rows = build_family([SimplexDirection((1.0, 0.0)), SimplexDirection((0.0, 1.0))], per_row=2)
    assert [j.entries for j in rows[0]] == [(8, 0), (10, 0)]
    assert [j.entries for j in rows[1]] == [(0, 9), (0, 11)]


def test_build_family_invariants():
    import random

    rng = random.Random(14)
    for _ in range(10):
        m = rng.randrange(1, 8)
        raw = sorted(rng.sample(range(0, 101), m))
        dirs = [SimplexDirection((t / 100, 1 - t / 100)) for t in raw]
        per_row = rng.randrange(1, 6)
        rows = build_family(dirs, per_row)
        assert len(rows) == len(dirs)  # one row per direction
        everything = [j for row in rows for j in row]
        assert len(set(everything)) == len(everything)  # pairwise distinct
        for n, row in enumerate(rows):
            degrees = [j.degree for j in row]
            assert degrees == sorted(degrees) and len(set(degrees)) == len(degrees)
            for j in row:
                assert project(j).l1_distance(dirs[n]) <= 2 * 2 / j.degree + 1e-12


def test_extremal_sequence_examples(f_zero, full_geom):
    got = extremal_sequence(f_zero, (0.5, 0.5), 64)
    assert [j.entries for j in got] == [(4, 4), (8, 8), (16, 16), (32, 32)]
    got = extremal_sequence(full_geom, (1.0, 0.0), 32)
    assert [j.entries for j in got] == [(8, 0), (16, 0), (32, 0)]
    with pytest.raises(EmptyWindow):
        extremal_sequence(SeriesSpec(2, ExplicitTable({})), (0.5, 0.5), 64)


def _random_directions(rng, n, count):
    out = []
    for _ in range(count):
        raw = [rng.random() for _ in range(n)]
        coords = [x / sum(raw) for x in raw[:-1]]
        out.append(SimplexDirection((*coords, 1.0 - math.fsum(coords))))
    return out


def _extremal_outcome(build, series, alpha, max_degree):
    try:
        return [j.entries for j in build(series, alpha, max_degree)]
    except EmptyWindow as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["f0", "g3", "full_geometric_4", "geometric_plus_ray_3"])
def test_extremal_sequence_matches_the_per_term_loop(name, f_zero):
    series = {
        "f0": f_zero,
        "g3": SeriesSpec.load(GOLDEN_INPUTS / "g3.json"),
        "full_geometric_4": SeriesSpec(4, FullGeometric()),
        "geometric_plus_ray_3": SeriesSpec(
            3, SumRule([FullGeometric(), RayGeometric((1, 2, 0), 0.7)])
        ),
    }[name]
    n = series.dimension
    # lattice directions put indices of every multiple degree at exact distance ties;
    # at N = 4 the ten of degree 2, as the reference's band 64 holds 47,905 indices
    lattice = lattice_directions(n, 3 if n < 4 else 2)
    directions = lattice + _random_directions(random.Random(n), n, 4 if n < 4 else 2)
    for max_degree in (8, 16, 33, 64):
        for alpha in directions:
            want = _extremal_outcome(reference_extremal_sequence, series, alpha, max_degree)
            got = _extremal_outcome(extremal_sequence, series, alpha, max_degree)
            assert got == want, (alpha, max_degree)


def test_extremal_sequence_approaches_direction_functional(f_zero):
    from reinhardt import direction_functional

    seq = extremal_sequence(f_zero, (0.5, 0.5), 64)
    final = f_zero.log_abs_coeff_normalized(seq[-1])
    c_hat = direction_functional(f_zero, (0.5, 0.5), 0.02, 64)
    assert abs(final - (-c_hat)) <= 0.02


def test_series_for_domain_unit_polydisc(third_quadrant):
    dirs = uniform_directions_2d(7)
    spec = series_for_domain(third_quadrant, dirs, per_row=4)
    rule = spec.rule
    for n, k, j in rule.family_indices():
        assert spec.coefficient(j) == 1.0  # h vanishes on the whole simplex


def test_series_for_domain_wedge_coefficients(wedge_domain):
    spec = series_for_domain(wedge_domain, [SimplexDirection((0.5, 0.5))], per_row=3)
    rule = spec.rule
    assert rule.index_at(1, 1).entries == (4, 4)
    # h(1/2, 1/2) = -ln2/2, so the degree-8 coefficient is e^{8 ln2/2} = 2^4
    assert spec.coefficient(rule.index_at(1, 1)).real == pytest.approx(16.0, rel=1e-12)


def test_series_for_domain_infinite_support():
    slab = HDomain(2, (HalfSpace((1.0, 0.0), -1.0),))
    with pytest.raises(InfiniteSupport):
        series_for_domain(slab, [SimplexDirection((0.0, 1.0))], per_row=2)


def test_each_row_recovers_its_supporting_halfspace(wedge_domain, constructed_wedge_series, directions_25):
    rule = constructed_wedge_series.rule
    for n in (1, 7, 13, 19, 25):
        row = SeriesSpec(2, rule.row(n))
        hs = elementary_halfspace(row, 64)
        h_n = support_value(wedge_domain, directions_25[n - 1])
        d_hat = -hs.offset
        assert abs(d_hat + h_n) <= 1e-9  # levels are exact exponentials
        assert hs.normal.l1_distance(directions_25[n - 1]) <= 2 * 2 / 8


def test_constructed_series_realizes_the_domain(wedge_domain, constructed_wedge_series):
    from conftest import band_distance, grid2

    from reinhardt import Membership

    good = total = 0
    for p in grid2(-1.0, 1.0, 21):
        if band_distance(wedge_domain, p) <= 0.1:
            continue
        total += 1
        verdict = classify(constructed_wedge_series, p, 64, 0.1)
        want = (
            Membership.INSIDE if wedge_domain.evaluate(p) < 0 else Membership.OUTSIDE
        )
        if verdict.membership is want:
            good += 1
    assert total > 200
    assert good / total >= 0.95
