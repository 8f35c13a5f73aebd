"""Property tests for the exact identities of the tail-window indicator.

The projections J/|J| sum to 1 and are non-negative, so psi-hat commutes
with translation along (1, ..., 1) and is monotone in every coordinate; the
full geometric series is symmetric under permuting the coordinates.  Routing
by fsum l1 distance is exactly covariant under permuting the coordinates of
the indices and the directions together, since fsum does not depend on the
order of its terms.  The support function of an H-domain is positively
homogeneous in its offsets and shifts by t when the domain moves by
t (1, ..., 1), since its normals sum to 1; dyadic normals make that sum
exact.  The support-weighted scan's array pass is the per-slot loop it
replaced, bit for bit.  Permuting the coordinates of a series' indices
permutes the rows of its coefficient table and leaves every coefficient and
log bit unchanged.  Examples are derandomized, so every run draws the same
cases.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reinhardt import (
    ExplicitTable,
    FullGeometric,
    HalfSpace,
    HDomain,
    MultiIndex,
    RayGeometric,
    SeriesSpec,
    SumRule,
    SupportWeighted,
    decompose_elementary,
    hadamard_indicator,
    lp_maximize,
    support_value,
)
from reinhardt.multiindex import Directions
from conftest import lattice_directions, reference_support_weighted_scan

K = 32
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

SERIES = {
    "f0": SeriesSpec(2, SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])),
    "g3": SeriesSpec(3, FullGeometric()),
    "ray3": SeriesSpec(3, RayGeometric((1, 2, 1), -0.5 + 2.0j)),
    "weighted2": SeriesSpec(
        2, SupportWeighted([(0.5, 0.5), (1.0, 0.0), (0.2, 0.8)], [0.3, -0.2, 40.0], per_row=16)
    ),
    "table3": SeriesSpec(3, ExplicitTable({(20, 1, 2): 3.0, (5, 5, 6): -1e-8j, (0, 0, 30): 0.5})),
}

coordinate = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def points(n):
    return st.tuples(*[coordinate] * n)


@st.composite
def series_and_point(draw):
    name = draw(st.sampled_from(sorted(SERIES)))
    series = SERIES[name]
    return series, draw(points(series.dimension))


@PROPERTY_SETTINGS
@given(series_and_point(), coordinate)
def test_translation_covariance(case, t):
    series, s = case
    shifted = tuple(x + t for x in s)
    psi, psi_shifted = hadamard_indicator(series, s, K), hadamard_indicator(series, shifted, K)
    tolerance = 1e-12 * (1.0 + abs(t) + max(abs(x) for x in s))
    assert abs(psi_shifted - (psi + t)) <= tolerance


@PROPERTY_SETTINGS
@given(series_and_point(), st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=3, max_size=3))
def test_monotone_in_every_coordinate(case, steps):
    series, s = case
    larger = tuple(x + d for x, d in zip(s, steps))
    assert hadamard_indicator(series, s, K) <= hadamard_indicator(series, larger, K)


@PROPERTY_SETTINGS
@given(points(3))
def test_full_geometric_is_symmetric_under_permutations(s):
    psi = hadamard_indicator(SERIES["g3"], s, K)
    tolerance = 1e-12 * (1.0 + max(abs(x) for x in s))
    for perm in itertools.permutations(s):
        assert abs(hadamard_indicator(SERIES["g3"], perm, K) - psi) <= tolerance


@st.composite
def permuted_lattice_routing(draw):
    n = draw(st.sampled_from([3, 4]))
    lattice = lattice_directions(n, draw(st.integers(min_value=2, max_value=6)))
    directions = draw(st.lists(st.sampled_from(lattice), min_size=2, max_size=12, unique=True))
    return n, directions, draw(st.permutations(range(n)))


@PROPERTY_SETTINGS
@given(permuted_lattice_routing())
def test_routing_is_covariant_under_coordinate_permutations(case):
    n, directions, perm = case
    max_degree = {3: 14, 4: 10}[n]
    series = SeriesSpec(n, FullGeometric())
    routed = decompose_elementary(series, directions, max_degree).assignment
    moved = decompose_elementary(
        series, [tuple(d.coords[i] for i in perm) for d in directions], max_degree
    ).assignment
    for j, row in routed.items():
        assert moved[MultiIndex(tuple(j.entries[i] for i in perm))] == row, j


def dyadic_direction(n):
    """A simplex direction of multiples of 1/16, whose coordinates sum to 1 exactly."""
    cuts = st.lists(st.integers(min_value=0, max_value=16), min_size=n - 1, max_size=n - 1)
    return cuts.map(lambda c: tuple(b / 16 - a / 16 for a, b in zip([0, *sorted(c)], [*sorted(c), 16])))


# offsets of either sign from 1e-6 to 1 in size, or 0
offset = st.integers(min_value=-10**6, max_value=10**6).map(lambda k: k * 1e-6)


@st.composite
def domain_and_direction(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    rows = draw(st.lists(st.tuples(dyadic_direction(n), offset), max_size=6))
    return n, rows, draw(dyadic_direction(n))


def support(n, rows, alpha, scale=1.0, shift=0.0):
    return support_value(HDomain(n, tuple(HalfSpace(a, scale * c + shift) for a, c in rows)), alpha)


@PROPERTY_SETTINGS
@given(domain_and_direction(), st.sampled_from([1e-13, 1.0, 1e9]))
def test_support_is_positively_homogeneous_in_the_offsets(case, scale):
    n, rows, alpha = case
    h, scaled = support(n, rows, alpha), support(n, rows, alpha, scale=scale)
    if math.isinf(h):
        assert scaled == h
    else:
        size = max([abs(c) for _, c in rows] + [abs(h)])
        assert abs(scaled - scale * h) <= 1e-12 * scale * size


@PROPERTY_SETTINGS
@given(domain_and_direction(), st.floats(min_value=-1e3, max_value=1e3))
def test_support_shifts_with_the_domain_along_the_diagonal(case, t):
    n, rows, alpha = case
    h, shifted = support(n, rows, alpha), support(n, rows, alpha, shift=t)
    if math.isinf(h):
        assert shifted == h
    else:
        size = max([abs(c) for _, c in rows] + [abs(h), abs(t)])
        assert abs(shifted - (h + t)) <= 1e-12 * size


@PROPERTY_SETTINGS
@given(domain_and_direction())
def test_every_hdomain_reads_optimal_or_unbounded(case):
    n, rows, alpha = case
    domain = HDomain(n, tuple(HalfSpace(a, c) for a, c in rows))
    result = lp_maximize(alpha, domain)
    assert result.status in ("optimal", "unbounded")
    if result.status == "optimal":
        assert domain.evaluate(result.witness) <= 1e-12 * max([abs(c) for _, c in rows] + [1.0])


def rational_direction(n):
    """w / sum(w) for small integer weights w: the targets d w_i / sum(w) often tie."""
    weights = st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n).filter(any)
    return weights.map(lambda w: tuple(x / sum(w) for x in w))


def float_direction(n):
    raw = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
    return raw.map(lambda x: tuple(v / math.fsum(x) for v in x))


weight = st.one_of(st.sampled_from([0.0, -0.0, 40.0, 745.0, -800.0]),
                   st.floats(min_value=-50.0, max_value=50.0))


@st.composite
def support_weighted_scans(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    directions = draw(st.lists(st.one_of(rational_direction(n), float_direction(n)),
                               min_size=1, max_size=6, unique=True))
    try:
        directions = Directions(directions)
    except ValueError:  # two float directions within 1e-10
        assume(False)
    rule = SupportWeighted(
        directions,
        draw(st.lists(weight, min_size=len(directions), max_size=len(directions))),
        per_row=draw(st.integers(min_value=1, max_value=20)),
        base=draw(st.integers(min_value=1, max_value=40)),
        stride=draw(st.integers(min_value=1, max_value=5)),
        scale=draw(st.sampled_from([1.0, -1.0, 0.5, -3.0, 1e-300, -2e300])),
    )
    start = draw(st.integers(min_value=1, max_value=150))
    return rule, range(start, draw(st.integers(min_value=start - 3, max_value=start + 80)))


SW40 = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)
THIRDS = SupportWeighted([(1 / 3, 1 / 3, 1 / 3), (0.25, 0.25, 0.5)], [0.0, -0.0], per_row=9,
                         base=3, stride=2, scale=-3.0)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(support_weighted_scans())
@example((SW40, range(40, 41)))
@example((SW40, range(5, 5)))
@example((SW40, range(80, 70)))
@example((THIRDS, range(1, 60)))
def test_the_support_weighted_scan_is_the_per_slot_loop_bit_for_bit(case):
    rule, degrees = case
    got = rule.scan(rule.dimension, degrees)
    expected = reference_support_weighted_scan(rule, rule.dimension, degrees)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1].view(np.int64), expected[1].view(np.int64))
    assert np.array_equal(got[2].view(np.int64), expected[2].view(np.int64))


# finite coefficients, normal, subnormal and near the float range; no two infinities
coefficient = st.one_of(
    st.sampled_from([1.0, -2.5, 0.0, 3e-308, 1e-313, complex(1e-313, -1e-313),
                     complex(0.5, -2.0), 1.7e308, complex(1.7e308, 1.7e308), -1e300]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


def leaf_rule(n):
    exponent = st.integers(min_value=0, max_value=12)
    ray = st.tuples(*[st.integers(min_value=0, max_value=3)] * n).filter(any)
    return st.one_of(
        st.just(FullGeometric()),
        st.builds(RayGeometric, ray, coefficient),
        st.dictionaries(st.tuples(*[exponent] * n), coefficient, max_size=8).map(ExplicitTable),
    )


def permuted(rule, perm):
    """The rule with index entries J_perm[0], ..., J_perm[N-1] in place of J."""
    if isinstance(rule, RayGeometric):
        return RayGeometric(tuple(rule.direction.entries[i] for i in perm), rule.ratio)
    if isinstance(rule, ExplicitTable):
        return ExplicitTable({tuple(j[i] for i in perm): c for j, c
                              in zip(rule.entries.tolist(), rule.coefficients.tolist())})
    if isinstance(rule, SumRule):
        return SumRule([permuted(m, perm) for m in rule.members])
    return rule  # FullGeometric


@st.composite
def permuted_rules(draw, dimensions=(2, 3)):
    """A rule (a sum of two or three keeps its member order) and a coordinate permutation.

    SupportWeighted is left out: its apportionment hands leftover units to
    the latest coordinate among tied fractional parts, so the rule over
    permuted directions is not the permuted rule.
    """
    n = draw(st.sampled_from(dimensions))
    leaf = leaf_rule(n)
    rule = draw(st.one_of(leaf, st.lists(leaf, min_size=2, max_size=3).map(SumRule)))
    return n, rule, draw(st.permutations(range(n)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


def _rows_by_index(table, perm):
    """Each row's entries, permuted, mapped to its coefficient, log and projection bits."""
    parts = _bits(table.coefficients.view(np.float64).reshape(-1, 2))
    return {
        tuple(j[i] for i in perm): (c, v, tuple(p[i] for i in perm))
        for j, c, v, p in zip(table.entries.tolist(), parts, _bits(table.logs),
                              _bits(table.projections.T))
    }


@PROPERTY_SETTINGS
@given(permuted_rules())
def test_coefficient_tables_are_covariant_under_coordinate_permutations(case):
    n, rule, perm = case
    table = SeriesSpec(n, rule).coefficient_table(16)
    moved = SeriesSpec(n, permuted(rule, perm)).coefficient_table(16)
    assert moved.offsets == table.offsets
    assert _rows_by_index(moved, range(n)) == _rows_by_index(table, perm)


@PROPERTY_SETTINGS
@given(permuted_rules(dimensions=(2,)), points(2))
def test_the_indicator_is_invariant_under_swapping_two_coordinates(case, s):
    _, rule, perm = case
    series, moved = SeriesSpec(2, rule), SeriesSpec(2, permuted(rule, perm))
    psi = hadamard_indicator(series, s, K)
    swapped = hadamard_indicator(moved, tuple(s[i] for i in perm), K)
    # two products add in either order to the same float, and no term is -0.0
    assert np.float64(swapped).view(np.int64) == np.float64(psi).view(np.int64)
