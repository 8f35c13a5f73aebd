import math
import random
from collections import Counter

import numpy as np
import pytest

from reinhardt import (
    Directions,
    MultiIndex,
    SimplexDirection,
    ZeroIndexNotProjectable,
    decompose_elementary,
    enumerate_degree,
    nearest_index_of_degree,
    project,
    uniform_directions_2d,
)
from reinhardt.multiindex import compositions, l1_nearest, l1_within, nearest_entries
from conftest import raises_exactly


def brute_nearest(alpha, degree):
    """Independent oracle: scan every index of the degree."""
    best = None
    best_d = math.inf
    for j in enumerate_degree(alpha.dimension, degree):
        d = project(j).l1_distance(alpha)
        if d < best_d - 1e-15:
            best, best_d = j, d
    return best, best_d


def test_project_examples():
    assert project(MultiIndex((2, 1))).coords == (2 / 3, 1 / 3)
    assert project(MultiIndex((1, 1))).coords == (0.5, 0.5)
    assert project(MultiIndex((0, 5))).coords == (0.0, 1.0)
    with pytest.raises(ZeroIndexNotProjectable):
        project(MultiIndex((0, 0)))


def test_project_scale_equivariant():
    for entries in [(2, 1), (0, 5), (3, 4, 1), (7, 0, 0, 2)]:
        j = MultiIndex(entries)
        for m in (2, 3, 5):
            assert project(MultiIndex(tuple(m * e for e in entries))).coords == project(j).coords


def test_degree_and_validation():
    j = MultiIndex((3, 0, 4))
    assert j.degree == 7
    assert j.dimension == 3
    with pytest.raises(ValueError):
        MultiIndex((1, -2))
    with pytest.raises(TypeError):
        MultiIndex((1.5, 2))
    with pytest.raises(OverflowError):
        MultiIndex((2**63,))


def test_enumerate_degree_examples():
    assert [j.entries for j in enumerate_degree(2, 2)] == [(0, 2), (1, 1), (2, 0)]
    assert [j.entries for j in enumerate_degree(2, 0)] == [(0, 0)]
    assert [j.entries for j in enumerate_degree(3, 1)] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_degree_counts_match_stars_and_bars():
    for n in range(1, 5):
        for k in range(0, 31):
            assert len(enumerate_degree(n, k)) == math.comb(k + n - 1, n - 1)


def test_enumerate_degree_is_lexicographic():
    for n, k in [(2, 7), (3, 6), (4, 5)]:
        seq = enumerate_degree(n, k)
        assert list(seq) == sorted(seq)


def test_nearest_index_examples():
    assert nearest_index_of_degree(SimplexDirection((0.5, 0.5)), 4).entries == (2, 2)
    assert nearest_index_of_degree(SimplexDirection((1.0, 0.0)), 3).entries == (3, 0)
    # brute force over the 5 indices of degree 4
    alpha = SimplexDirection((1 / 3, 2 / 3))
    oracle, _ = brute_nearest(alpha, 4)
    assert oracle.entries == (1, 3)
    assert nearest_index_of_degree(alpha, 4) == oracle


def test_nearest_index_tie_breaks_lexicographically():
    # degree * alpha = (4.5, 4.5): both roundings are distance-minimal
    assert nearest_index_of_degree(SimplexDirection((0.5, 0.5)), 9).entries == (4, 5)
    assert nearest_index_of_degree(SimplexDirection((0.25, 0.25, 0.5)), 2).entries == (0, 1, 1)


def test_nearest_index_matches_brute_force_distance():
    import random

    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.choice([2, 3])
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        alpha = SimplexDirection(tuple(x / total for x in raw[:-1]) + (1 - sum(x / total for x in raw[:-1]),))
        k = rng.randrange(8, 41)
        got = nearest_index_of_degree(alpha, k)
        _, best_d = brute_nearest(alpha, k)
        assert got.degree == k
        assert project(got).l1_distance(alpha) <= best_d + 1e-12


def test_nearest_index_rounding_bound():
    import random

    rng = random.Random(7)
    for _ in range(80):
        n = rng.choice([2, 3, 4])
        raw = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(raw)
        coords = [x / total for x in raw]
        coords[-1] = 1.0 - sum(coords[:-1])
        alpha = SimplexDirection(tuple(coords))
        for k in (8, 13, 21, 34, 55):
            j = nearest_index_of_degree(alpha, k)
            assert project(j).l1_distance(alpha) <= 2 * n / k + 1e-12


def test_simplex_direction_validation():
    with pytest.raises(ValueError):
        SimplexDirection((0.5, 0.6))
    with pytest.raises(ValueError):
        SimplexDirection((-0.1, 1.1))
    d = SimplexDirection((0.25, 0.75))
    assert d.l1_distance(SimplexDirection((0.75, 0.25))) == pytest.approx(1.0)


BAD_DIRECTION_SETS = {
    "empty": ([], "at least one direction"),
    "mixed_dimensions": ([(0.5, 0.5), (0.2, 0.3, 0.5)], "mixed dimensions"),
    "within_1e-10": ([(0.5, 0.5), (0.5 + 4e-11, 0.5 - 4e-11)], "pairwise distinct"),
}


def _direction_entry_points():
    from reinhardt import (
        FullGeometric,
        HalfSpace,
        HDomain,
        SampledFunction,
        SeriesSpec,
        SupportWeighted,
        build_family,
        decompose_elementary,
        decompose_simple,
        estimate_domain,
        series_for_domain,
    )

    series = SeriesSpec(2, FullGeometric())
    box = HDomain(2, (HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)))
    return {
        "SupportWeighted": lambda d: SupportWeighted(d, [0.0] * len(d), per_row=2),
        "SampledFunction": lambda d: SampledFunction(tuple(d), (0.0,) * len(d)),
        "build_family": lambda d: build_family(d, per_row=2),
        "series_for_domain": lambda d: series_for_domain(box, d, per_row=2),
        "decompose_elementary": lambda d: decompose_elementary(series, d, 16),
        "decompose_simple": lambda d: decompose_simple(series, box, d, 16),
        "estimate_domain": lambda d: estimate_domain(series, d, 16),
    }


@pytest.mark.parametrize("bad", sorted(BAD_DIRECTION_SETS))
@pytest.mark.parametrize("entry", sorted(_direction_entry_points()))
def test_direction_sets_are_validated_at_every_entry_point(entry, bad):
    directions, message = BAD_DIRECTION_SETS[bad]
    with pytest.raises(ValueError, match=message):
        _direction_entry_points()[entry](directions)


def _random_direction(rng, n):
    raw = [rng.random() + 0.05 for _ in range(n)]
    coords = [x / sum(raw) for x in raw[:-1]]
    return SimplexDirection((*coords, 1.0 - math.fsum(coords)))


def _shifted(direction, i, j, t):
    """The direction with t/2 moved from coordinate j to coordinate i, each rounded once."""
    coords = list(direction.coords)
    coords[i] += t / 2
    coords[j] -= t / 2
    return SimplexDirection(tuple(coords))


def _fsum_distinct(dirs):
    """The pairwise fsum loop: no two directions within l1 distance 1e-10."""
    for i in range(len(dirs)):
        for j in range(i):
            if dirs[i].l1_distance(dirs[j]) <= 1e-10:
                return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5])
def test_directions_refuse_exactly_the_pairs_the_fsum_loop_refuses(n):
    rng = random.Random(n)
    verdicts = set()
    for _ in range(60):
        a = _random_direction(rng, n)
        # a few ulps of the coordinates either side of the 1e-10 distance
        b = _shifted(a, *rng.sample(range(n), 2), 1e-10 + rng.randint(-6, 6) * 2.0**-54)
        others = [_random_direction(rng, n) for _ in range(3)]
        dirs = [others[0], b, others[1], a, others[2]]  # the close pair is not adjacent
        want = _fsum_distinct(dirs)
        try:
            got = len(Directions(dirs)) == len(dirs)
        except ValueError as exc:
            assert str(exc) == "directions must be pairwise distinct"
            got = False
        assert got == want, (a, b)
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("block", [1, 12, 30, 2**16])
def test_directions_find_a_close_pair_in_any_block(monkeypatch, block):
    # 12 directions per block of 12 x 12 distances at most; the pair may share a block or not
    import reinhardt.multiindex

    monkeypatch.setattr(reinhardt.multiindex, "_DISTINCT_BLOCK", block * 12)
    rng = random.Random(block)
    base = [_random_direction(rng, 3) for _ in range(12)]
    assert len(Directions(base)) == 12
    for first, second in [(0, 1), (0, 11), (5, 6), (3, 9), (10, 11)]:
        for t in (1e-10 - 2.0**-54, 1e-10 + 2.0**-54, 1e-11):
            close = _shifted(base[first], 0, 1, t)
            dirs = base[:second] + [close] + base[second + 1 :]
            try:
                got = len(Directions(dirs)) == len(dirs)
            except ValueError as exc:
                assert str(exc) == "directions must be pairwise distinct"
                got = False
            assert got == _fsum_distinct(dirs), (first, second, t)


def test_one_direction_computes_no_pairwise_distance(monkeypatch):
    import reinhardt.multiindex

    def refuse(*_):
        raise AssertionError("a set of one direction has no pair to compare")

    monkeypatch.setattr(reinhardt.multiindex, "_l1_distances", refuse)
    for coords in [(1.0,), (0.5, 0.5), (0.2, 0.3, 0.5)]:
        d = SimplexDirection(coords)
        assert Directions([d]) == (d,) and Directions([d]).dimension == len(coords)
    with pytest.raises(AssertionError, match="no pair"):
        Directions([(0.5, 0.5), (1.0, 0.0)])


def _left_to_right(column, center):
    """The l1 distance summed coordinate by coordinate, as the array pass rounds it."""
    acc = 0.0
    for a, b in zip(column, center):
        acc += abs(a - b)
    return acc


# Lattice projections sit at exact l1 ties with the lattice directions, which
# one rounding decides: the array sum alone decides some of them unlike fsum.
SLACK_DEGREES = {3: 16, 4: 10, 5: 8}


def _lattice_columns(n):
    columns = [project(j) for k in range(1, SLACK_DEGREES[n] + 1) for j in enumerate_degree(n, k)]
    return columns, np.array([c.coords for c in columns]).T


@pytest.mark.parametrize("n", [3, 4, 5])
def test_l1_within_decides_as_fsum_inside_the_slack(n):
    columns, array = _lattice_columns(n)
    flips = 0
    for center in random.Random(n).sample([project(j) for j in enumerate_degree(n, 3)], 4):
        distances = [c.l1_distance(center) for c in columns]
        for radius, _ in Counter(distances).most_common(6):
            got = l1_within(array, np.array(center.coords), radius).tolist()
            assert got == [d <= radius for d in distances], (center, radius)
            flips += sum(
                (_left_to_right(c.coords, center.coords) <= radius) != g
                for c, g in zip(columns, got)
            )
    assert flips


def test_l1_nearest_runs_fsum_only_on_the_tied_directions(monkeypatch, f_zero):
    import reinhardt.multiindex

    calls = []
    fsum_distance = reinhardt.multiindex._l1_fsum
    monkeypatch.setattr(reinhardt.multiindex, "_l1_fsum",
                        lambda column, center: calls.append(1) or fsum_distance(column, center))
    # 48 of f0's 2,144 columns at K = 64 have two of 25 uniform directions within the slack
    decompose_elementary(f_zero, uniform_directions_2d(25), 64)
    assert len(calls) == 96


@pytest.mark.parametrize("n", [3, 4, 5])
def test_l1_nearest_decides_as_fsum_inside_the_slack(n):
    columns, array = _lattice_columns(n)
    directions = [project(j) for j in enumerate_degree(n, 3)]
    got = l1_nearest(array, np.array([d.coords for d in directions]).T).tolist()
    flips = 0
    for c, g in zip(columns, got):
        exact = [c.l1_distance(d) for d in directions]
        assert g == exact.index(min(exact)), c
        rounded = [_left_to_right(c.coords, d.coords) for d in directions]
        flips += rounded.index(min(rounded)) != g
    assert flips


INPUT_CHECKS = {
    "index_empty": (lambda: MultiIndex(()), ValueError, "multi-index needs at least one entry"),
    "direction_empty": (lambda: SimplexDirection(()), ValueError,
                        "direction needs at least one coordinate"),
    "l1_dimensions": (lambda: SimplexDirection((1.0,)).l1_distance(SimplexDirection((0.5, 0.5))),
                      ValueError, "dimension mismatch between simplex directions"),
    "compositions_dimension": (lambda: compositions(0, range(1, 2)), ValueError,
                               "dimension must be >= 1"),
    "compositions_degree": (lambda: compositions(2, [-1]), ValueError, "degree must be >= 0"),
    "nearest_degree": (lambda: nearest_entries(SimplexDirection((1.0,)), 0), ValueError,
                       "degree must be >= 1"),
    "uniform_count": (lambda: uniform_directions_2d(1), ValueError,
                      "need at least two directions"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_multiindex_input_checks_raise_their_error(case):
    raises_exactly(*INPUT_CHECKS[case])


def test_a_multi_index_repr_names_its_entries():
    assert repr(MultiIndex((1, 2))) == "MultiIndex((1, 2))"
