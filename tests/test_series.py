import gc
import json
import math
import random
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from reinhardt import (
    DimensionMismatch,
    ExplicitTable,
    FullGeometric,
    HalfSpace,
    HDomain,
    MultiIndex,
    RayGeometric,
    SampledFunction,
    SeriesSpec,
    SimplexDirection,
    SumRule,
    SupportWeighted,
    classify,
    decompose_elementary,
    direction_functional,
    elementary_halfspace,
    enumerate_degree,
    hadamard_indicator,
    probe,
)
from reinhardt.cli import main
from reinhardt.oracle import ProbeOutcome, block_sums
from reinhardt.series import CoefficientRule, tail_window

from conftest import (
    brute_force_coefficients,
    differential_rules,
    linear_scan_corpus,
    linear_scan_radii,
    or_inf,
    reference_block_sums,
    reference_slice_coefficients,
    reference_terms,
    same_float,
    scan_refuses,
    scan_terms,
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


def partial_sum(series, point, max_degree):
    """The sum of |c_J| r^J over 0 <= |J| <= max_degree as the probe takes it, at any K."""
    return math.fsum(block_sums(series, point, max_degree))


def test_partial_sum_abs_examples(full_geom, ray_diag):
    # product of geometric sums 1/(1-1/2)^2 = 4, approached from below
    val = probe(full_geom, (0.5, 0.5), 64).partial
    assert val == pytest.approx(4.0, abs=1e-6)
    assert partial_sum(full_geom, (0.5, 0.5), 16) < 4.0
    assert partial_sum(full_geom, (0.0, 0.0), 10) == 1.0
    # finite geometric sum over even degrees up to 10: 2 + 4 + ... + 32
    assert partial_sum(ray_diag, (1.0, 1.0), 10) == 62.0
    # overflow is a value, not an error
    assert probe(full_geom, (1e6, 1e6), 64).partial == math.inf


@pytest.mark.parametrize("max_degree", [0, -2])
def test_a_truncation_below_degree_1_keeps_only_the_constant_term(full_geom, max_degree):
    # the table is empty, and so is its tail window
    assert full_geom.coefficient_table(max_degree).tail_start == 0
    assert block_sums(full_geom, (0.5, 0.5), max_degree) == [1.0]
    assert full_geom.slice_coefficients((0.5, 0.5), max_degree) == [1 + 0j]


def test_partial_sum_monotone(full_geom, f_zero):
    rng = random.Random(11)
    for series in (full_geom, f_zero):
        r = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        sums = [partial_sum(series, r, K) for K in (4, 8, 16, 32)]
        assert sums == sorted(sums)
        grown = tuple(min(1.02 * x, x + 0.05) for x in r)
        assert probe(series, grown, 32).partial >= sums[-1]


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
            assert SeriesSpec(2, rule).log_abs_coeff_normalized(j) == -rule.values[n - 1]


def test_support_weighted_row_extraction_preserves_degrees():
    from reinhardt import uniform_directions_2d

    dirs = uniform_directions_2d(4)
    rule = SupportWeighted(dirs, [0.0, 0.1, 0.2, 0.3], per_row=3)
    for n in range(1, 5):
        row = rule.row(n)
        for k in range(1, 4):
            assert row.degree_of(1, k) == rule.degree_of(n, k)
            assert row.index_at(1, k) == rule.index_at(n, k)


def test_support_weighted_scale_multiplies_coefficients_and_shifts_logs():
    rule = SupportWeighted([(0.5, 0.5), (1.0, 0.0)], [0.3, -0.2], per_row=3, scale=-0.25)
    for n, k, j in rule.family_indices():
        d, h = j.degree, rule.values[n - 1]
        assert rule.coefficient(j) == complex(math.exp(-d * h) * -0.25)
        ((_, c, v),) = scan_terms(SeriesSpec(2, rule), range(d, d + 1))
        assert c == rule.coefficient(j) and v == -h + math.log(0.25) / d
    # the row of a scaled rule keeps its scale, times the row's own factor
    assert rule.row(2).scale == -0.25 and rule.row(1, 1 / 3).scale == -0.25 / 3
    assert rule.row(2).coefficient(rule.index_at(2, 1)) == rule.coefficient(rule.index_at(2, 1))
    # an overflowed exp keeps the sign of the scale
    assert SupportWeighted([(1.0, 0.0)], [-800.0], per_row=1, scale=-2.0).coefficient(
        MultiIndex((8, 0))) == complex(-math.inf, 0.0)


def test_support_weighted_keeps_a_finite_product_of_an_overflowed_exp():
    # exp(8 * 89) overflows, but exp(8 * 89) * 1e-3 is about 1.2e306
    for scale in (1e-3, -1e-3):
        rule = SupportWeighted([(1.0, 0.0)], [-89.0], per_row=1, base=8, scale=scale)
        want = complex(math.copysign(math.exp(8 * 89.0 + math.log(1e-3)), scale))
        assert math.isfinite(want.real)
        _, coefficients, _ = rule.scan(2, range(1, 9))
        assert coefficients.tolist() == [want] and rule.coefficient(MultiIndex((8, 0))) == want
    # past the float range even with the scale folded in: an infinity of the scale's sign
    rule = SupportWeighted([(1.0, 0.0)], [-800.0], per_row=1, scale=-1e-3)
    assert rule.coefficient(MultiIndex((8, 0))) == complex(-math.inf, 0.0)


def test_ray_powers_that_overflow_read_inf_not_nan():
    # repeated squaring overflows 1e10**64 to NaN without raising OverflowError
    rule = RayGeometric((1,), 1e10)
    assert rule.coefficient(MultiIndex((64,))) == complex(math.inf, 0.0)
    _, coefficients, logs = rule.scan(1, range(1, 129))
    assert not np.isnan(coefficients.view(np.float64)).any()
    assert (coefficients[30:] == math.inf).all() and (logs == math.log(1e10)).all()


def test_support_weighted_scale_1_writes_the_unscaled_format():
    rule = SupportWeighted([(0.5, 0.5)], [0.0], per_row=2)
    assert "scale" not in rule.to_json() and "scale" not in rule.row(1).to_json()
    # -h stays -0.0 at scale 1: no log(1) is added to it
    logs = [v for _, _, v in scan_terms(SeriesSpec(2, rule), range(8, 10))]
    assert all(math.copysign(1.0, v) == -1.0 for v in logs)
    scaled = rule.row(1, -0.5)
    assert scaled.to_json()["scale"] == -0.5
    loaded = SeriesSpec.from_json(SeriesSpec(2, scaled).to_json()).rule
    assert loaded.scale == -0.5 and loaded.to_json() == scaled.to_json()


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -0.0])
def test_support_weighted_refuses_a_non_finite_or_zero_scale(tmp_path, capsys, scale):
    with pytest.raises(ValueError, match="scale must be finite and nonzero"):
        SupportWeighted([(0.5, 0.5)], [0.0], per_row=2, scale=scale)
    data = SeriesSpec(2, SupportWeighted([(0.5, 0.5)], [0.0], per_row=2)).to_json()
    data["rule"]["scale"] = scale
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    assert main(["probe", str(path), "--point", "0.5", "0.5"]) == 2
    assert "scale must be finite and nonzero" in capsys.readouterr().err


def test_ray_geometric_off_ray_is_zero(ray_diag):
    assert ray_diag.coefficient((3, 4)) == 0.0
    assert ray_diag.coefficient((0, 0)) == 0.0
    assert ray_diag.log_abs_coeff_normalized((3, 4)) == -math.inf
    ray21 = SeriesSpec(2, RayGeometric((2, 1), 1 / 3))
    assert ray21.coefficient((4, 2)) == pytest.approx(1 / 9)
    assert ray21.coefficient((4, 1)) == 0.0


@pytest.mark.parametrize("ratio", [0.0, 1.5 - 0.5j])
@pytest.mark.parametrize("direction", [(0, 2), (3, 0, 1), (0, 0, 1, 2)])
def test_ray_coefficient_matches_its_scan_at_every_index(direction, ratio):
    # a zero entry of the direction must stay zero in every multiple
    rule = RayGeometric(direction, ratio)
    n = len(direction)
    entries, coefficients, _ = rule.scan(n, range(1, 13))
    on_ray = dict(zip(map(tuple, entries.tolist()), coefficients.tolist()))
    assert len(on_ray) == 12 // sum(direction)
    for degree in range(13):
        for j in enumerate_degree(n, degree):
            got, want = rule.coefficient(j), on_ray.get(j.entries, 0.0j)
            assert same_float(got.real, want.real) and same_float(got.imag, want.imag), j


def test_explicit_table_support_by_degree():
    table = SeriesSpec(2, ExplicitTable({(1, 0): 2.0, (0, 1): 3.0, (2, 2): -1.0}))
    assert [j.entries for j in table.supported_indices(1)] == [(0, 1), (1, 0)]
    assert [j.entries for j in table.supported_indices(4)] == [(2, 2)]
    assert table.supported_indices(3) == ()


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


# One sample per rule kind and the dimension it states; a new CoefficientRule
# subclass joins the protocol test below by adding its sample here.
RULE_SAMPLES = {
    FullGeometric: (FullGeometric(), None),
    RayGeometric: (RayGeometric((1, 2), 1.5 - 0.5j), 2),
    ExplicitTable: (ExplicitTable({(0, 0, 0): 1.0, (2, 1, 0): -2.0j, (3, 3, 3): 0.5}), 3),
    SupportWeighted: (
        SupportWeighted([(0.5, 0.5), (1.0, 0.0)], [0.3, -0.2], per_row=4, base=2, scale=-0.375),
        2,
    ),
    SumRule: (SumRule([FullGeometric(), RayGeometric((1, 1, 1), 2.0), ExplicitTable({})]), 3),
}


@pytest.mark.parametrize("cls", CoefficientRule.__subclasses__(), ids=lambda cls: cls.kind)
def test_every_rule_states_its_dimension_and_survives_its_own_file(cls):
    rule, dimension = RULE_SAMPLES[cls]
    assert rule.dimension == dimension
    n = dimension or 2
    if dimension is not None:
        with pytest.raises(DimensionMismatch, match=f"{rule.kind} rule has dimension {dimension}"):
            SeriesSpec(n + 1, rule)
    loaded = SeriesSpec.from_json(SeriesSpec(n, rule).to_json()).rule
    assert type(loaded) is cls and loaded.dimension == dimension
    for want, got in zip(rule.scan(n, range(1, 17)), loaded.scan(n, range(1, 17))):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_a_rule_of_no_fixed_dimension_fits_any_series():
    for rule in (FullGeometric(), ExplicitTable({}), SumRule([FullGeometric(), ExplicitTable({})])):
        assert rule.dimension is None
        for n in (1, 2, 5):
            assert SeriesSpec(n, rule).dimension == n


def test_a_sum_of_two_dimensions_is_refused_where_it_is_built():
    with pytest.raises(DimensionMismatch, match=r"sum members have dimensions \[2, 3\]"):
        SumRule([RayGeometric((1, 1), 2.0), FullGeometric(), RayGeometric((1, 1, 1), 2.0)])


@pytest.mark.parametrize("make, error", [
    (lambda: SupportWeighted([(0.5, 0.5)], [0.0], per_row=4, base=8.5),
     "base must be an integer, got 8.5"),
    (lambda: SupportWeighted([(0.5, 0.5)], [0.0], per_row=True), "per_row must be an integer"),
    (lambda: SupportWeighted([(0.5, 0.5)], [0.0], per_row=4, stride=np.int64(1)),
     "stride must be an integer"),
    (lambda: SupportWeighted([(0.5, 0.5)], [True], per_row=4), "support weight must be a number"),
    (lambda: SupportWeighted([(0.5, 0.5)], [0.0], per_row=4, scale="2"),
     "scale must be a number, got '2'"),
    (lambda: SeriesSpec(2.0, FullGeometric()), "dimension must be an integer, got 2.0"),
    (lambda: MultiIndex((1, 2.0)), "multi-index entry must be an integer, got 2.0"),
    (lambda: HDomain(True, ()), "dimension must be an integer, got True"),
    (lambda: HalfSpace((0.5, 0.5), "0.5"), "half-space offset must be a number, got '0.5'"),
    (lambda: SimplexDirection(("0.5", "0.5")), "coordinate must be a number, got '0.5'"),
    (lambda: SampledFunction([(1.0, 0.0)], [False]), "sampled value must be a number, got False"),
])
def test_each_type_refuses_a_field_of_another_type_where_it_is_built(make, error):
    with pytest.raises(TypeError, match=re.escape(error)):
        make()


def test_numpy_scalars_are_numbers_and_are_stored_as_floats():
    rule = SupportWeighted(
        [(np.float64(0.5), np.float32(0.5))], [np.float32(0.25)], per_row=4, scale=np.float64(2.0)
    )
    assert rule.values == (0.25,) and type(rule.values[0]) is float
    assert type(rule.scale) is float and type(rule.directions[0].coords[1]) is float
    assert HalfSpace((1.0, 0.0), np.float16(0.5)).offset == 0.5


@pytest.mark.parametrize("make", [
    lambda c: RayGeometric((1, 1), c),
    lambda c: ExplicitTable({(1, 0): c}),
    lambda c: ExplicitTable({(1, 0): 1.0, (0, 1): c}),
], ids=["ray", "table", "table-second-entry"])
@pytest.mark.parametrize("c", ["2", True, False, "1+1j", None])
def test_a_coefficient_that_is_a_bool_or_a_string_is_refused(make, c):
    with pytest.raises(TypeError, match=re.escape(f"coefficient must be a number, got {c!r}")):
        make(c)
    # numpy scalars of every kind stay numbers
    for number in (np.complex64(2 + 1j), np.float32(0.5), np.int64(3), 2, 0.5 - 1j):
        make(number)


@pytest.mark.parametrize("query", [
    lambda series, p: classify(series, p, 16),
    lambda series, p: probe(series, p, 32),
], ids=["classify", "probe"])
@pytest.mark.parametrize("bad", ["0.5", True, False, None])
def test_a_point_coordinate_that_is_a_bool_or_a_string_is_refused(query, bad):
    series = SeriesSpec(2, FullGeometric())
    for point in ((0.5, bad), (bad, 0.5)):
        with pytest.raises(TypeError, match=re.escape(f"point coordinate must be a number, got {bad!r}")):
            query(series, point)
    query(series, (np.float32(0.5), np.int64(0)))


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
    "support_weighted_scaled": SupportWeighted(
        [(0.5, 0.5), (1.0, 0.0)], [0.3, -0.2], per_row=4, scale=-2.5
    ),
}


@pytest.mark.parametrize("kind", sorted(ITERATOR_RULES))
def test_terms_and_log_terms_match_brute_force(kind):
    series = SeriesSpec(2, ITERATOR_RULES[kind])
    degrees = range(1, 17)
    brute = brute_force_coefficients(series, degrees)
    occurring = {j for j, c in brute.items() if c != 0}

    terms = list(scan_terms(series, degrees))
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
        table = {j: (c, v) for j, c, v in scan_terms(series, range(4, 5))}
        assert table[MultiIndex((2, 2))] == (0.0, -math.inf)


def test_log_terms_are_exact_for_support_weighted_rows():
    row = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)
    for rule in (row, SumRule([row])):
        terms = list(scan_terms(SeriesSpec(2, rule), range(1, 72)))
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
            block_sums(full_geom, point, 16)
        with pytest.raises(ValueError):
            full_geom.slice_coefficients(point, 16)


def tail_rows(series, max_degree):
    """(projections, logs) of the tail window: rows tail_start: of the table at max_degree."""
    table = series.coefficient_table(max_degree)
    return table.projections[:, table.tail_start:], table.logs[table.tail_start:]


def _counting_scans(monkeypatch, rule):
    calls = []
    original = rule.scan

    def scan(dimension, degrees):
        calls.append(degrees)
        return original(dimension, degrees)

    monkeypatch.setattr(rule, "scan", scan)
    return calls


def test_one_coefficient_table_per_series_and_truncation(monkeypatch):
    rule = SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])
    series = SeriesSpec(2, rule, "f0")
    before = (repr(series), series.to_json())
    calls = _counting_scans(monkeypatch, rule)

    # the estimators, the probe and the decomposer at K share one scan of 1..K
    first = classify(series, (0.1, -0.2), max_degree=32)
    assert calls == [range(1, 33)]
    direction_functional(series, (0.5, 0.5), 0.1, 32)
    probe(series, (0.5, 0.5), 32)
    block_sums(series, (0.8, 0.1), 32)
    series.slice_coefficients((0.8, 0.1), 32)
    decompose_elementary(series, [(0.5, 0.5), (1.0, 0.0)], 32)
    assert classify(series, (0.1, -0.2), max_degree=32) == first
    assert calls == [range(1, 33)]

    calls.clear()
    probe(series, (0.5, 0.5), 33)
    assert calls == [range(1, 34)]
    table = series.coefficient_table(33)
    assert table is series.coefficient_table(33)
    assert table is not series.coefficient_table(32)
    assert table.offsets[1:] == tuple(sum(k + 1 for k in range(1, d)) for d in range(1, 35))
    rows = [list(j.entries) for j, _, _ in scan_terms(series, range(1, 34))]
    assert rows == table.entries.tolist()
    assert table.tail_start == table.offsets[tail_window(33).start]
    projections, logs = tail_rows(series, 33)
    assert np.shares_memory(projections, table.projections) and np.shares_memory(logs, table.logs)
    for a in (*table[:5], projections, logs):
        with pytest.raises(ValueError):
            a[0] = 0

    calls.clear()
    other = SeriesSpec(2, rule, "f0")
    assert classify(other, (0.1, -0.2), max_degree=32) == first
    assert calls == [range(1, 33)]

    assert (repr(series), series.to_json()) == before
    assert "_tables" not in repr(series)
    ref = weakref.ref(series)
    del series, table, projections, logs
    gc.collect()
    assert ref() is None


def test_log_table_is_built_once_per_series_and_window(monkeypatch):
    rule = SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])
    series = SeriesSpec(2, rule, "f0")
    before = (repr(series), series.to_json())
    calls = _counting_scans(monkeypatch, rule)

    # the tail window at K is a view of the scan of degrees 1..K
    first = classify(series, (0.1, -0.2), max_degree=16)
    assert calls == [range(1, 17)]
    calls.clear()
    assert classify(series, (0.1, -0.2), max_degree=16) == first
    classify(series, (-1.0, 0.5), max_degree=16)
    assert calls == []

    classify(series, (0.1, -0.2), max_degree=32)
    assert calls == [range(1, 33)]
    calls.clear()
    again = zip(tail_rows(series, 32), tail_rows(series, 32))
    assert all(np.shares_memory(a, b) for a, b in again)
    assert not np.shares_memory(tail_rows(series, 32)[1], tail_rows(series, 16)[1])
    assert calls == []

    other = SeriesSpec(2, rule, "f0")
    assert classify(other, (0.1, -0.2), max_degree=16) == first
    assert calls == [range(1, 17)]

    assert (repr(series), series.to_json()) == before
    assert "_tables" not in repr(series)
    ref = weakref.ref(series)
    del series
    gc.collect()
    assert ref() is None


def test_probe_builds_one_coefficient_table_per_series_and_degree(monkeypatch):
    rule = SumRule([FullGeometric(), RayGeometric((1, 1), 2.0)])
    series = SeriesSpec(2, rule, "f0")
    calls = _counting_scans(monkeypatch, rule)

    first = probe(series, (0.5, 0.5), 32)
    assert calls == [range(1, 33)]
    calls.clear()
    assert probe(series, (0.5, 0.5), 32) == first
    probe(series, (0.8, 0.1), 32)
    block_sums(series, (0.8, 0.1), 32)
    series.slice_coefficients((0.8, 0.1), 32)
    assert calls == []

    probe(series, (0.5, 0.5), 33)
    assert calls == [range(1, 34)]
    table = series.coefficient_table(33)
    assert table is not series.coefficient_table(32)
    assert table.offsets[1:] == tuple(sum(k + 1 for k in range(1, d)) for d in range(1, 35))
    for a in table[:5]:
        with pytest.raises(ValueError):
            a[0] = 0
    # the tail rows at 32 are every row of the table at 32 from degree 16 on
    projections, _ = tail_rows(series, 32)
    start = series.coefficient_table(32).offsets[16]
    assert projections.shape == (2, len(series.coefficient_table(32).entries) - start)

    ref = weakref.ref(series)
    del series, table, projections
    gc.collect()
    assert ref() is None


def test_an_overflowed_coefficient_reads_inf_beside_an_underflowed_monomial():
    # |c_k| = 1e10^k overflows from degree 31 on, where (1e-12)^k has underflowed to 0
    series = SeriesSpec(1, RayGeometric((1,), 1e10))
    assert block_sums(series, (1e-12,), 64)[31:] == [math.inf] * 34
    verdict = probe(series, (1e-12,), 64)
    assert verdict.outcome is ProbeOutcome.DIVERGES and verdict.partial == math.inf


def test_a_coefficient_whose_magnitude_overflows_keeps_a_finite_log():
    # |c| = 1.7e308 * sqrt(2) is past the float range, log|c| is not
    series = SeriesSpec(2, ExplicitTable({(1, 0): complex(1.7e308, 1.7e308)}))
    table = series.coefficient_table(8)
    expected = 710.0734104835083
    assert abs(table.logs[0] - expected) <= math.ulp(expected)
    assert table.magnitudes.tolist() == [math.inf]
    ray = SeriesSpec(2, RayGeometric((1, 1), complex(1.7e308, 1.7e308)))
    assert abs(ray.coefficient_table(8).logs[0] - expected / 2) <= math.ulp(expected / 2)
    half = ExplicitTable({(1, 0): complex(0.85e308, 0.85e308)})
    summed = SeriesSpec(2, SumRule([half, half]))
    assert abs(summed.coefficient_table(8).logs[0] - expected) <= math.ulp(expected)


def test_magnitudes_are_python_abs_bit_for_bit():
    rng = random.Random(5)
    specials = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1.0, -3.0, 4.0, 1e154,
                -1e308, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf]

    def part():
        pick = rng.random()
        if pick < 0.4:
            return rng.choice(specials)
        if pick < 0.7:
            bits = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            return 1.0 if math.isnan(bits) else bits
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308)

    # the first value is one where abs raises
    values = [complex(1.7e308, -1.7e308)] + [complex(part(), part()) for _ in range(4000)]
    series = SeriesSpec(1, ExplicitTable({(k + 1,): c for k, c in enumerate(values)}))
    got = series.coefficient_table(len(values)).magnitudes.tolist()
    for c, mag in zip(values, got):
        assert same_float(mag, or_inf(abs, c)), c


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_linear_scans_match_the_per_term_loops_bit_for_bit(dimension):
    for series in linear_scan_corpus(dimension, 33):
        for r in linear_scan_radii(dimension):
            # the probe's partial sum is the exact sum of its exactly summed blocks
            got = probe(series, r, 33).partial
            expected = or_inf(math.fsum, reference_block_sums(series, r, 33))
            assert same_float(got, expected), (series.label, r)
            if min(r) > 0.0:
                got = series.slice_coefficients(r, 33)
                expected = reference_slice_coefficients(series, r, 33)
                assert [same_float(a.real, b.real) and same_float(a.imag, b.imag)
                        for a, b in zip(got, expected)] == [True] * 34, (series.label, r)


def _same_complexes(got, want) -> bool:
    return len(got) == len(want) and all(
        same_float(a.real, b.real) and same_float(a.imag, b.imag) for a, b in zip(got, want))


def test_slice_coefficients_match_the_per_term_loop_at_n3():
    # complex coefficients whose parts mix signed zeros, subnormals, huge values and infinities
    rng = random.Random(3)
    parts = [0.0, -0.0, 1.5, -2.5, 1e-310, -1e308, math.inf, -math.inf]
    table = {tuple(rng.randrange(0, 22) for _ in range(3)): complex(*rng.choices(parts, k=2))
             for _ in range(300)}
    table.pop((0, 0, 0), None)
    g3 = SeriesSpec.load(Path(__file__).resolve().parent / "golden" / "inputs" / "g3.json")
    radii = [(0.3, 0.5, 0.9), (1.0, 1.0, 1.0), (1e-310, 2.0, 0.5), (1e200, 1e-300, 3.0),
             (5e-324,) * 3]
    for series in (g3, SeriesSpec(3, ExplicitTable(table))):
        for r in radii:
            got = series.slice_coefficients(r, 64)
            assert _same_complexes(got, reference_slice_coefficients(series, r, 64)), r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_coefficients_match_the_per_term_loop_on_every_rule_kind(n):
    radii = [(0.5,) * n, (1.0,) * n, (1e-310,) + (2.0,) * (n - 1), (1e200,) * n]
    for kind, rule in differential_rules(n).items():
        series = SeriesSpec(n, rule)
        for max_degree in (9, 64):
            if scan_refuses(series, max_degree):
                with pytest.raises(ValueError, match="opposite infinities"):
                    series.slice_coefficients(radii[0], max_degree)
                continue
            for r in radii:
                want = reference_slice_coefficients(series, r, max_degree)
                got = series.slice_coefficients(r, max_degree)
                assert _same_complexes(got, want), (kind, max_degree, r)


def test_log_table_arrays_are_read_only(full_geom):
    projections, logs = tail_rows(full_geom, 8)
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
        lambda series, k: hadamard_indicator(series, (0.0, 0.0), k),
        lambda series, k: decompose_elementary(series, [(0.5, 0.5), (1.0, 0.0)], k),
        lambda series, k: probe(series, (0.5, 0.5), 4 * k),
        lambda series, k: elementary_halfspace(series, k),
    ],
    ids=["hadamard_indicator", "decompose_elementary", "probe", "elementary_halfspace"],
)
def test_sum_of_opposite_infinities_names_the_index(evaluate):
    # every query at K reads the scan of degrees 1..K, so the undefined
    # coefficient raises inside the tail window (K = 8) and below it (K = 18)
    for max_degree in (8, 18):
        with pytest.raises(ValueError, match=r"opposite infinities at index \(4, 4\)"):
            evaluate(_opposite_infinities(), max_degree)


def _bits(values) -> list:
    return np.asarray(values).reshape(-1).view(np.int64).tolist()


@pytest.mark.parametrize("max_degree", [8, 9, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_the_per_degree_terms_bit_for_bit(n, max_degree):
    rules = {**differential_rules(n), "explicit_table_empty": ExplicitTable({})}
    degrees = range(1, max_degree + 1)
    scans, cuts = {}, {}
    for kind, rule in rules.items():
        try:
            entries, coefficients, logs = scans[kind] = rule.scan(n, degrees)
        except ValueError as exc:
            with pytest.raises(ValueError) as want:
                for k in degrees:
                    list(reference_terms(rule, n, k))
            assert str(exc) == str(want.value), kind
            continue
        assert entries.dtype == np.int64 and entries.shape == (len(coefficients), n), kind
        assert coefficients.dtype == np.complex128 and logs.dtype == np.float64, kind
        cuts[kind] = np.searchsorted(entries.sum(axis=1), range(1, max_degree + 2)).tolist()
        assert cuts[kind][-1] == len(entries), kind
    # degree by degree, so the dense rules share one reference enumeration of each degree
    for i, k in enumerate(degrees):
        for kind, (entries, coefficients, logs) in scans.items():
            a, b = cuts[kind][i:i + 2]
            want = list(reference_terms(rules[kind], n, k))
            assert entries[a:b].tolist() == [list(j.entries) for j, _, _ in want], (kind, k)
            # the bits, so the sign of every zero counts
            assert _bits(coefficients[a:b]) == _bits(np.array([c for _, c, _ in want], complex))
            assert _bits(logs[a:b]) == _bits(np.array([v for _, _, v in want], float)), (kind, k)
