"""Property tests for the exact identities of the tail-window indicator.

The projections J/|J| sum to 1 and are non-negative, so psi-hat commutes
with translation along (1, ..., 1) and is monotone in every coordinate; the
full geometric series is symmetric under permuting the coordinates.  Routing
by fsum l1 distance is exactly covariant under permuting the coordinates of
the indices and the directions together, since fsum does not depend on the
order of its terms.  The support function of an H-domain is positively
homogeneous in its offsets and shifts by t when the domain moves by
t (1, ..., 1), since its normals sum to 1; dyadic normals make that sum
exact.  Examples are derandomized, so every run draws the same cases.
"""

import itertools
import math

from hypothesis import given, settings
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
from conftest import lattice_directions

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
