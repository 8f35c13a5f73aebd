import math

import pytest

from reinhardt import (
    MultiIndex,
    SimplexDirection,
    ZeroIndexNotProjectable,
    enumerate_degree,
    nearest_index_of_degree,
    project,
)


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
