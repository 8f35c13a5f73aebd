import gc
import json
import math
import random
import weakref

import pytest

from reinhardt import (
    DimensionMismatch,
    ExplicitTable,
    FullGeometric,
    MultiIndex,
    RayGeometric,
    SeriesSpec,
    SumRule,
    SupportWeighted,
    classify,
    decompose_elementary,
    hadamard_indicator,
    probe,
)
from reinhardt.hadamard import tail_window

from conftest import (
    brute_force_coefficients,
    linear_scan_corpus,
    linear_scan_radii,
    reference_partial_sum_abs,
    reference_slice_coefficients,
    same_float,
)

LN2 = math.log(2.0)


def test_coefficient_examples(full_geom, ray_diag, f_zero):
    assert full_geom.coefficient((3, 7)) == 1.0
    # coefficients 2^j on the diagonal ray
    assert ray_diag.coefficient((4, 4)) == 16.0
    # like terms combine: 1 + 2^j on the diagonal
    assert f_zero.coefficient((4, 4)) == 17.0
    assert f_zero.coefficient((4, 5)) == 1.0
    with pytest.raises(DimensionMismatch):
        full_geom.coefficient((1, 2, 3))


def test_log_abs_coeff_normalized_examples(full_geom, ray_diag):
    assert full_geom.log_abs_coeff_normalized((5, 5)) == 0.0
    assert ray_diag.log_abs_coeff_normalized((4, 4)) == pytest.approx(LN2 / 2, abs=1e-15)
    empty = SeriesSpec(2, ExplicitTable({}))
    assert empty.log_abs_coeff_normalized((1, 0)) == -math.inf
    with pytest.raises(ValueError):
        full_geom.log_abs_coeff_normalized((0, 0))


def test_partial_sum_abs_examples(full_geom, ray_diag):
    # product of geometric sums 1/(1-1/2)^2 = 4, approached from below
    val = full_geom.partial_sum_abs((0.5, 0.5), 64)
    assert val == pytest.approx(4.0, abs=1e-6)
    assert full_geom.partial_sum_abs((0.5, 0.5), 16) < 4.0
    assert full_geom.partial_sum_abs((0.0, 0.0), 10) == 1.0
    # finite geometric sum over even degrees up to 10: 2 + 4 + ... + 32
    assert ray_diag.partial_sum_abs((1.0, 1.0), 10) == 62.0
    # overflow is a value, not an error
    assert full_geom.partial_sum_abs((1e6, 1e6), 64) == math.inf


def test_partial_sum_monotone(full_geom, f_zero):
    rng = random.Random(11)
    for series in (full_geom, f_zero):
        r = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        sums = [series.partial_sum_abs(r, K) for K in (4, 8, 16, 32)]
        assert sums == sorted(sums)
        grown = tuple(min(1.02 * x, x + 0.05) for x in r)
        assert series.partial_sum_abs(grown, 32) >= sums[-1]


def test_slice_coefficients_examples(full_geom, ray_diag):
    # counts of lattice points per degree
    a = full_geom.slice_coefficients((1.0, 1.0), 12)
    assert [x.real for x in a] == [k + 1 for k in range(13)]
    b = ray_diag.slice_coefficients((1.0, 1.0), 12)
    for k in range(13):
        expected = 2 ** (k // 2) if k and k % 2 == 0 else 0.0
        assert b[k] == expected
    table = SeriesSpec(2, ExplicitTable({(1, 1): 5.0}))
    c = table.slice_coefficients((2.0, 3.0), 6)
    assert c[2] == 30.0
    assert all(x == 0 for i, x in enumerate(c) if i != 2)


def test_sum_rule_linearity(f_zero, full_geom, ray_diag):
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randrange(1, 40)
        j = rng.choice(full_geom.supported_indices(k))
        assert f_zero.coefficient(j) == full_geom.coefficient(j) + ray_diag.coefficient(j)


def test_support_weighted_flat_weights_give_unit_coefficients():
    from reinhardt import uniform_directions_2d

    dirs = uniform_directions_2d(5)
    rule = SupportWeighted(dirs, [0.0] * 5, per_row=4)
    series = SeriesSpec(2, rule)
    seen = 0
    for _, _, j in rule.family_indices():
        assert series.coefficient(j) == 1.0
        assert series.log_abs_coeff_normalized(j) == 0.0
        seen += 1
    assert seen == 20


def test_support_weighted_degrees_are_unique_and_exact():
    from reinhardt import uniform_directions_2d

    dirs = uniform_directions_2d(3)
    rule = SupportWeighted(dirs, [0.0, 0.25, 0.5], per_row=5)
    degrees = [rule.degree_of(n, k) for n in (1, 2, 3) for k in range(1, 6)]
    assert len(set(degrees)) == len(degrees)
    for n in (1, 2, 3):
        for k in range(1, 6):
            d = rule.degree_of(n, k)
            assert rule.slot_of_degree(d) == (n, k)
            j = rule.index_at(n, k)
            # stored as -h exactly, never through exp
            assert rule.log_abs_normalized(j) == -rule.values[n - 1]


def test_support_weighted_row_extraction_preserves_degrees():
    from reinhardt import uniform_directions_2d

    dirs = uniform_directions_2d(4)
    rule = SupportWeighted(dirs, [0.0, 0.1, 0.2, 0.3], per_row=3)
    for n in range(1, 5):
        row = rule.row(n)
        for k in range(1, 4):
            assert row.degree_of(1, k) == rule.degree_of(n, k)
            assert row.index_at(1, k) == rule.index_at(n, k)


def test_ray_geometric_off_ray_is_zero(ray_diag):
    assert ray_diag.coefficient((3, 4)) == 0.0
    assert ray_diag.coefficient((0, 0)) == 0.0
    assert ray_diag.log_abs_coeff_normalized((3, 4)) == -math.inf
    ray21 = SeriesSpec(2, RayGeometric((2, 1), 1 / 3))
    assert ray21.coefficient((4, 2)) == pytest.approx(1 / 9)
    assert ray21.coefficient((4, 1)) == 0.0


def test_explicit_table_support_by_degree():
    table = ExplicitTable({(1, 0): 2.0, (0, 1): 3.0, (2, 2): -1.0})
    assert [j.entries for j in table.supported_indices(2, 1)] == [(0, 1), (1, 0)]
    assert [j.entries for j in table.supported_indices(2, 4)] == [(2, 2)]
    assert table.supported_indices(2, 3) == ()


def test_json_round_trip(tmp_path, f_zero):
    path = tmp_path / "f0.json"
    f_zero.save(path)
    loaded = SeriesSpec.load(path)
    assert loaded.dimension == 2
    for entries in [(4, 4), (3, 5), (0, 7)]:
        assert loaded.coefficient(entries) == f_zero.coefficient(entries)
    raw = json.loads(path.read_text())
    assert raw["rule"]["kind"] == "sum"
    kinds = {m["kind"] for m in raw["rule"]["members"]}
    assert kinds == {"full_geometric", "ray_geometric"}


def test_support_weighted_json_round_trip(tmp_path, constructed_wedge_series):
    path = tmp_path / "constructed.json"
    constructed_wedge_series.save(path)
    loaded = SeriesSpec.load(path)
    rule = constructed_wedge_series.rule
    for n, k, j in rule.family_indices():
        if rule.degree_of(n, k) > 80:
            continue
        assert loaded.coefficient(j) == constructed_wedge_series.coefficient(j)
    raw = json.loads(path.read_text())
    fam = raw["rule"]["family"]
    assert fam["base"] == 8 and fam["stride"] == 1 and fam["per_row"] == 8
    assert fam["directions"] == raw["rule"]["support"]["directions"]


def test_sum_dimension_consistency():
    with pytest.raises(DimensionMismatch):
        SeriesSpec(3, SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)]))


def test_explicit_table_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        ExplicitTable({(1, 0): 1.0, (1, 0, 0): 2.0})


def test_zero_index_constant_term(full_geom, ray_diag):
    assert full_geom.constant_term() == 1.0
    assert ray_diag.constant_term() == 0.0
    assert full_geom.zero_index == MultiIndex((0, 0))


ITERATOR_RULES = {
    "full_geometric": FullGeometric(),
    "ray_geometric": RayGeometric((1, 2), 1.5),
    "explicit_table_with_zero": ExplicitTable({(1, 2): 3.0, (2, 2): 0.0, (4, 1): -2.0j}),
    # (2, 2) is supported by all three members and cancels to zero there
    "sum_overlapping": SumRule(
        [FullGeometric(), RayGeometric((1, 1), 2.0), ExplicitTable({(2, 2): -5.0})]
    ),
    "support_weighted": SupportWeighted([(0.5, 0.5), (1.0, 0.0)], [0.3, -0.2], per_row=4),
}


@pytest.mark.parametrize("kind", sorted(ITERATOR_RULES))
def test_terms_and_log_terms_match_brute_force(kind):
    series = SeriesSpec(2, ITERATOR_RULES[kind])
    degrees = range(1, 17)
    brute = brute_force_coefficients(series, degrees)
    occurring = {j for j, c in brute.items() if c != 0}

    terms = list(series.terms(degrees))
    table = {j: (c, v) for j, c, v in terms}
    assert len(table) == len(terms)  # every index once, overlaps merged
    assert [j for j, _, _ in terms] == sorted(table, key=lambda j: (j.degree, j.entries))
    assert occurring <= set(table)
    assert {j for j, (_, v) in table.items() if v != -math.inf} == occurring
    for j, (c, v) in table.items():
        assert c == brute[j]
        assert series.log_abs_coeff_normalized(j) == v
        if c == 0:
            assert v == -math.inf
        else:
            assert v == pytest.approx(math.log(abs(c)) / j.degree, abs=1e-12)
    for k in degrees:
        assert series.supported_indices(k) == tuple(j for j in table if j.degree == k)


def test_terms_give_supported_zeros_a_log_of_minus_inf():
    for kind in ("explicit_table_with_zero", "sum_overlapping"):
        series = SeriesSpec(2, ITERATOR_RULES[kind])
        table = {j: (c, v) for j, c, v in series.terms(range(4, 5))}
        assert table[MultiIndex((2, 2))] == (0.0, -math.inf)


def test_log_terms_are_exact_for_support_weighted_rows():
    row = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)
    for rule in (row, SumRule([row])):
        terms = list(SeriesSpec(2, rule).terms(range(1, 72)))
        assert len(terms) == 64
        assert all(v == -40.0 for _, _, v in terms)
        # exp(-40 |J|) itself underflows to 0 from |J| = 19 on
        assert [j.degree for j, c, _ in terms if c == 0.0] == list(range(19, 72))


SUMMED_RULES = {
    **ITERATOR_RULES,
    "support_weighted_h40": SupportWeighted([(0.5, 0.5)], [40.0], per_row=64),
}
# at (0, 100) the h = 40 row of the two-row rule below attains the max
PSI_POINTS = [(0.0, 0.0), (1.0, -2.0), (-3.0, 7.0), (0.25, 0.25), (50.0, 50.0), (0.0, 100.0)]


@pytest.mark.parametrize("kind", sorted(SUMMED_RULES))
def test_sum_of_one_rule_has_the_rules_indicator(kind):
    rule = SUMMED_RULES[kind]
    alone, summed = SeriesSpec(2, rule), SeriesSpec(2, SumRule([rule]))
    for max_degree in (8, 64):
        for s in PSI_POINTS:
            psi = hadamard_indicator(alone, s, max_degree)
            assert hadamard_indicator(summed, s, max_degree) == psi


def test_sum_of_rows_has_the_max_of_their_indicators():
    w = SupportWeighted([(0.5, 0.5), (1.0, 0.0)], [40.0, -3.0], per_row=64)
    rows = [SeriesSpec(2, w.row(n)) for n in (1, 2)]
    summed = SeriesSpec(2, SumRule([w.row(1), w.row(2)]))
    for s in PSI_POINTS:
        best = max(hadamard_indicator(r, s, 64) for r in rows)
        assert hadamard_indicator(summed, s, 64) == best
        assert best == hadamard_indicator(SeriesSpec(2, w), s, 64)


def test_points_must_be_finite(full_geom):
    for point in [(math.nan, 0.5), (math.inf, 0.5)]:
        with pytest.raises(ValueError, match="finite"):
            full_geom.partial_sum_abs(point, 16)
        with pytest.raises(ValueError):
            full_geom.slice_coefficients(point, 16)


def _counting_terms(monkeypatch, rule):
    calls = []
    original = rule.terms

    def terms(dimension, degree):
        calls.append(degree)
        return original(dimension, degree)

    monkeypatch.setattr(rule, "terms", terms)
    return calls


def test_log_table_is_built_once_per_series_and_window(monkeypatch):
    rule = SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])
    series = SeriesSpec(2, rule, "f0")
    before = (repr(series), series.to_json())
    calls = _counting_terms(monkeypatch, rule)

    first = classify(series, (0.1, -0.2), max_degree=16)
    assert len(calls) == len(tail_window(16))
    calls.clear()
    assert classify(series, (0.1, -0.2), max_degree=16) == first
    classify(series, (-1.0, 0.5), max_degree=16)
    assert calls == []

    classify(series, (0.1, -0.2), max_degree=32)
    assert calls == list(tail_window(32))
    assert series.log_table(tail_window(32)) is series.log_table(tail_window(32))
    assert series.log_table(tail_window(32)) is not series.log_table(tail_window(16))

    calls.clear()
    other = SeriesSpec(2, rule, "f0")
    assert classify(other, (0.1, -0.2), max_degree=16) == first
    assert calls == list(tail_window(16))

    assert (repr(series), series.to_json()) == before
    assert "_tables" not in repr(series)
    ref = weakref.ref(series)
    del series
    gc.collect()
    assert ref() is None


def test_probe_builds_one_coefficient_table_per_series_and_degree(monkeypatch):
    rule = SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])
    series = SeriesSpec(2, rule, "f0")
    calls = _counting_terms(monkeypatch, rule)

    first = probe(series, (0.5, 0.5), 32)
    assert calls == list(range(1, 33))
    calls.clear()
    assert probe(series, (0.5, 0.5), 32) == first
    probe(series, (0.8, 0.1), 32)
    series.partial_sum_abs((0.8, 0.1), 32)
    series.slice_coefficients((0.8, 0.1), 32)
    assert calls == []

    probe(series, (0.5, 0.5), 33)
    assert calls == list(range(1, 34))
    table = series.coefficient_table(33)
    assert table is not series.coefficient_table(32)
    assert table.offsets[1:] == tuple(sum(k + 1 for k in range(1, d)) for d in range(1, 35))
    for a in table[:3]:
        with pytest.raises(ValueError):
            a[0] = 0
    # the two memos share one dict without sharing an entry for the same degrees
    projections, _ = series.log_table(range(1, 33))
    assert projections.shape == (2, len(series.coefficient_table(32).entries))

    ref = weakref.ref(series)
    del series, table
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_linear_scans_match_the_per_term_loops_bit_for_bit(dimension):
    for series in linear_scan_corpus(dimension, 33):
        for r in linear_scan_radii(dimension):
            got = series.partial_sum_abs(r, 33)
            assert same_float(got, reference_partial_sum_abs(series, r, 33)), (series.label, r)
            if min(r) > 0.0:
                got = series.slice_coefficients(r, 33)
                expected = reference_slice_coefficients(series, r, 33)
                assert [same_float(a.real, b.real) and same_float(a.imag, b.imag)
                        for a, b in zip(got, expected)] == [True] * 34, (series.label, r)


def test_log_table_arrays_are_read_only(full_geom):
    projections, logs = full_geom.log_table(tail_window(8))
    assert projections.shape == (2, len(logs)) == (2, sum(k + 1 for k in tail_window(8)))
    for a in (projections, logs):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExplicitTable({(1, 0): math.nan}),
        lambda: ExplicitTable({(1, 0): 1.0, (0, 2): complex(0.0, math.nan)}),
        lambda: RayGeometric((1, 1), math.nan),
        lambda: RayGeometric((1, 1), complex(2.0, math.nan)),
        lambda: SeriesSpec.from_json(
            {"dimension": 2, "rule": {"kind": "ray_geometric", "direction": [1, 1],
                                      "ratio": [math.nan, 0.0]}}
        ),
    ],
)
def test_nan_coefficients_are_rejected(make):
    with pytest.raises(ValueError, match="NaN"):
        make()


def test_infinite_coefficients_stay_accepted():
    # +-inf encodes an overflowed coefficient
    table = SeriesSpec(2, ExplicitTable({(4, 4): math.inf, (2, 6): -math.inf}))
    assert hadamard_indicator(table, (0.0, 0.0), 8) == math.inf
    ray = SeriesSpec(2, RayGeometric((1, 1), complex(math.inf, 0.0)))
    assert hadamard_indicator(ray, (-5.0, -5.0), 8) == math.inf


def _opposite_infinities():
    # +inf + -inf at (4, 4); the other index keeps the sum well defined
    return SeriesSpec(
        2,
        SumRule([ExplicitTable({(4, 4): math.inf, (10, 2): 1.0}), ExplicitTable({(4, 4): -math.inf})]),
    )


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda series: hadamard_indicator(series, (0.0, 0.0), 8),
        lambda series: decompose_elementary(series, [(0.5, 0.5), (1.0, 0.0)], 8),
    ],
    ids=["hadamard_indicator", "decompose_elementary"],
)
def test_sum_of_opposite_infinities_names_the_index(evaluate):
    with pytest.raises(ValueError, match=r"opposite infinities at index \(4, 4\)"):
        evaluate(_opposite_infinities())
    # outside the window the undefined coefficient is never read
    assert hadamard_indicator(_opposite_infinities(), (0.0, 0.0), 18) == 0.0
