import dataclasses
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reinhardt import (
    Directions,
    ExplicitTable,
    HalfSpace,
    HDomain,
    Membership,
    MultiIndex,
    NeedTwoDirections,
    SeriesSpec,
    SimplexDirection,
    SumRule,
    SupportWeighted,
    SupportsOverlap,
    classify,
    convex_closure_value,
    decompose_elementary,
    decompose_simple,
    estimate_domain,
    support_value,
    sum_domain_check,
    uniform_directions_2d,
)
from reinhardt import decompose
from reinhardt.convex import SampledFunction
from reinhardt.hadamard import tail_window
from conftest import (
    LN2,
    coeff_table,
    differential_rules,
    exact_support,
    grid2,
    lattice_directions,
    reference_partial_sum_abs,
    reference_route_index,
    scan_terms,
)

INF = math.inf
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def merge_tables(series_list, max_degree):
    out = {}
    for s in series_list:
        for j, c in coeff_table(s, max_degree).items():
            out[j] = out.get(j, 0.0j) + c
    return out


def test_two_row_split_of_the_geometric_series(full_geom):
    dirs = [SimplexDirection((1.0, 0.0)), SimplexDirection((0.0, 1.0))]
    dec = decompose_elementary(full_geom, dirs, 16)
    for j, row in dec.assignment.items():
        want = 0 if j.entries[0] >= j.entries[1] else 1  # ties to the first row
        assert row == want
    assert dec.parts[0].level == 0.0
    assert dec.parts[1].level == 0.0
    for part in dec.parts:
        assert part.halfspace is not None
        assert part.halfspace.offset == 0.0


def test_diagonal_row_carries_the_spike(f_zero):
    dirs = uniform_directions_2d(3)  # (0,1), (1/2,1/2), (1,0)
    dec = decompose_elementary(f_zero, dirs, 64)
    levels = [p.level for p in dec.parts]
    mid = next(i for i, d in enumerate(dirs) if d.coords == (0.5, 0.5))
    # window peak sits at the lowest window degree of the diagonal
    peak = max(math.log(1 + 2**j) / (2 * j) for j in range(16, 33))
    assert levels[mid] == pytest.approx(peak, abs=1e-12)
    assert levels[mid] == pytest.approx(LN2 / 2, abs=0.02)
    for i, lev in enumerate(levels):
        if i != mid:
            assert lev == 0.0


def test_single_direction_is_the_whole_tail(f_zero):
    dec = decompose_elementary(f_zero, [SimplexDirection((0.5, 0.5))], 32)
    routed = coeff_table(dec.parts[0].series, 32)
    original = coeff_table(f_zero, 32)
    assert routed == original
    assert dec.constant_part == f_zero.constant_term()


def test_partition_is_exact_bitwise(f_zero):
    dirs = uniform_directions_2d(11)
    dec = decompose_elementary(f_zero, dirs, 64)
    routed = merge_tables([p.series for p in dec.parts], 64)
    original = coeff_table(f_zero, 64)
    assert routed == original  # identical keys, bitwise-identical values
    partial_parts = math.fsum(
        reference_partial_sum_abs(p.series, (0.7, 0.6), 64) for p in dec.parts
    )
    whole = reference_partial_sum_abs(f_zero, (0.7, 0.6), 64)
    constant = abs(f_zero.constant_term())
    # routing never alters a coefficient: exact to the last bit
    assert math.fsum([partial_parts, constant, -whole]) == pytest.approx(0.0, abs=0.0)


def test_row_halfspaces_contain_supporting_halfspaces(f_zero, wedge_domain):
    dirs = uniform_directions_2d(11)
    dec = decompose_elementary(f_zero, dirs, 64)
    for part in dec.parts:
        h = support_value(wedge_domain, part.direction)
        assert part.level <= -h + 0.02


def test_empty_rows_keep_infinite_level():
    diag_only = SeriesSpec(2, ExplicitTable({(20, 20): 1.0, (28, 28): 2.0}))
    dirs = uniform_directions_2d(3)
    dec = decompose_elementary(diag_only, dirs, 64)
    for i, part in enumerate(dec.parts):
        if dirs[i].coords == (0.5, 0.5):
            assert math.isfinite(part.level)
            assert part.halfspace is not None
        else:
            assert part.level == INF
            assert part.halfspace is None


def test_an_underflowed_coefficient_keeps_its_row(tmp_path):
    # exp(-40 |J|) underflows to 0.0 from |J| ~ 18 on; the scan keeps log -40 on all 57 rows
    series = SeriesSpec(2, SupportWeighted([(0.5, 0.5)], [40.0], per_row=64))
    table = series.coefficient_table(64)
    assert (table.logs == -40.0).sum() == 57 and np.count_nonzero(table.coefficients) == 11
    dec = decompose_elementary(series, [(0.5, 0.5), (1.0, 0.0)], 64)
    assert dec.exactness() == {"routed": 57, "occurring": 57, "ok": True}
    assert dec.parts[0].level == -40.0
    assert dec.parts[0].halfspace == HalfSpace((0.5, 0.5), 40.0)
    assert dec.parts[1].level == INF and dec.parts[1].halfspace is None
    # the parts read as the series does, outside at (45, 45)
    report = sum_domain_check([p.series for p in dec.parts], 64, [(45.0, 45.0), (-45.0, -45.0)])
    assert not report.containment_only
    assert (report.decisive, report.agreement) == (2, 1.0)
    assert classify(dec.parts[0].series, (45.0, 45.0), 64).membership is Membership.OUTSIDE
    # a saved part writes such a coefficient as 0.0, and reloads it as a supported zero
    dec.parts[0].series.save(tmp_path / "part.json")
    reloaded = SeriesSpec.load(tmp_path / "part.json").coefficient_table(64)
    assert len(reloaded.entries) == 57 and np.count_nonzero(reloaded.logs != -INF) == 11


def test_decompose_simple_telescoping(full_geom, third_quadrant):
    dirs = uniform_directions_2d(5)
    dec = decompose_simple(full_geom, third_quadrant, dirs, 64)
    lhs = merge_tables([p.series for p in dec.parts], 64)
    rhs = merge_tables(list(dec.g_rows), 64)
    m = len(dirs)
    for j, c in coeff_table(dec.f_rows[-1], 64).items():
        rhs[j] = rhs.get(j, 0.0j) + c / m
    assert set(lhs) == set(rhs)
    for j in lhs:
        a, b = lhs[j], rhs[j]
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), j


def test_decompose_simple_wedges(full_geom, third_quadrant):
    dirs = uniform_directions_2d(2)  # (0,1), (1,0)
    dec = decompose_simple(full_geom, third_quadrant, dirs, 16)
    assert dec.parts[0].wedge is None
    wedge = dec.parts[1].wedge
    assert wedge is not None
    normals = {wedge[0].normal.coords, wedge[1].normal.coords}
    assert normals == {(0.0, 1.0), (1.0, 0.0)}
    assert wedge[0].offset == 0.0 and wedge[1].offset == 0.0
    with pytest.raises(NeedTwoDirections):
        decompose_simple(full_geom, third_quadrant, [SimplexDirection((0.5, 0.5))], 16)


def test_wedge_intersection_equals_domain(full_geom, third_quadrant):
    dirs = uniform_directions_2d(5)
    dec = decompose_simple(full_geom, third_quadrant, dirs, 32)
    for p in grid2(-1.0, 1.0, 21):
        in_domain = third_quadrant.evaluate(p) < 0
        in_wedges = all(
            h.value(p) < 0 for part in dec.parts if part.wedge for h in part.wedge
        )
        assert in_domain == in_wedges


def test_row_levels_feed_the_support_function(f_zero):
    # the decomposition's levels, read as direction samples, reproduce the
    # support function of the region estimated independently from the series
    dirs = uniform_directions_2d(21)
    dec = decompose_elementary(f_zero, dirs, 64)
    estimated = estimate_domain(f_zero, dirs, 64)
    samples = SampledFunction(
        tuple(p.direction for p in dec.parts),
        tuple(-p.level for p in dec.parts),
    )
    for d in dirs:
        envelope = convex_closure_value(samples, d)
        href = support_value(estimated, d)
        assert abs(envelope - href) <= 0.05


def test_sum_domain_check_finite_family(full_geom):
    dirs = [SimplexDirection((1.0, 0.0)), SimplexDirection((0.0, 1.0))]
    dec = decompose_elementary(full_geom, dirs, 16)
    report = sum_domain_check(
        [p.series for p in dec.parts], 16, grid2(-1.0, 1.0, 11)
    )
    assert report.agreement == 1.0
    assert not report.containment_only
    assert report.decisive > 0
    assert report.disagreements == ()


def test_sum_domain_check_lists_each_decisive_disagreement(monkeypatch, full_geom):
    dirs = [SimplexDirection((1.0, 0.0)), SimplexDirection((0.0, 1.0))]
    parts = [p.series for p in decompose_elementary(full_geom, dirs, 16).parts]
    points = grid2(-1.0, 1.0, 5)
    real = decompose.classify

    def flipped(series, s, max_degree, epsilon):
        """The sum of the parts reads outside wherever it reads inside."""
        verdict = real(series, s, max_degree, epsilon)
        if series.label == "sum of parts" and verdict.membership is Membership.INSIDE:
            return dataclasses.replace(verdict, membership=Membership.OUTSIDE)
        return verdict

    inside = [
        s for s in points if all(real(p, s, 16).membership is Membership.INSIDE for p in parts)
    ]
    assert inside
    monkeypatch.setattr(decompose, "classify", flipped)
    report = sum_domain_check(parts, 16, points)
    assert report.disagreements == tuple((tuple(s), "outside", "inside") for s in inside)
    assert report.agreement == (report.decisive - len(inside)) / report.decisive


def test_sum_domain_check_flags_vacuous_truncations(full_geom):
    # monomial parts of the degree-4 truncated geometric series: each part
    # converges everywhere, and the tail window cannot see the full sum
    parts = []
    for k in range(1, 5):
        for j in full_geom.supported_indices(k):
            parts.append(SeriesSpec(2, ExplicitTable({j: 1.0})))
    report = sum_domain_check(parts, 64, grid2(-1.0, 1.0, 5))
    assert report.containment_only
    assert report.agreement == 1.0


def test_sum_domain_check_overlap_witness(full_geom):
    a = SeriesSpec(2, ExplicitTable({(1, 1): 1.0, (2, 0): 1.0}))
    b = SeriesSpec(2, ExplicitTable({(1, 1): 2.0}))
    with pytest.raises(SupportsOverlap) as err:
        sum_domain_check([a, b], 16, [])
    assert err.value.index.entries == (1, 1)


def test_estimate_domain_recovers_the_wedge(f_zero, wedge_domain):
    estimated = estimate_domain(f_zero, uniform_directions_2d(21), 64)
    for t in [i / 20 for i in range(21)]:
        alpha = SimplexDirection((t, 1 - t))
        assert abs(
            support_value(estimated, alpha) - support_value(wedge_domain, alpha)
        ) <= 0.05


def test_wedge_offsets_are_the_exact_support_values_of_the_estimated_domain(f_zero):
    # the decompose_simple_estimate_f0 golden case: f0, eleven directions, K = 32
    dirs = Directions(json.loads((GOLDEN_INPUTS / "dirs11.json").read_text())["directions"])
    estimated = estimate_domain(f_zero, dirs, 32)
    halfspaces = decompose_simple(f_zero, estimated, dirs, 32).halfspaces
    assert [hs.normal for hs in halfspaces] == list(dirs)
    for hs in halfspaces:
        exact = exact_support(estimated, hs.normal)
        assert abs(Fraction(hs.offset) - exact) <= Fraction(math.ulp(float(exact))), hs


def test_estimate_domain_refuses_a_truncation_below_1(f_zero):
    # the window radius band_radius(N, K) needs a positive band
    for max_degree in (0, -3):
        with pytest.raises(ValueError, match="band must be > 0"):
            estimate_domain(f_zero, uniform_directions_2d(5), max_degree)


def test_overflowed_wedge_entries_stay_free_of_nan(f_zero, tmp_path):
    # offsets -30 overflow exp(30 |J|) in the realizing rows to +-inf + 0j, but only
    # when a scan computes them: the part files hold the offsets, never an infinity
    domain = HDomain(2, (HalfSpace((1.0, 0.0), -30.0), HalfSpace((0.0, 1.0), -30.0)))
    dec = decompose_simple(f_zero, domain, uniform_directions_2d(5), 64)
    scanned = np.concatenate([p.series.coefficient_table(64).coefficients for p in dec.parts])
    assert np.isinf(scanned).any()
    assert not np.isnan(scanned).any()
    for n, part in enumerate(dec.parts):
        path = tmp_path / f"part_{n}.json"
        part.series.save(path)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert SeriesSpec.load(path).to_json() == part.series.to_json()


ROUTING_DEGREES = {2: 24, 3: 16, 4: 12}


def reference_routing(series, directions, max_degree):
    """Assignment and row levels (-inf for an empty row) of the per-term fsum routing loop."""
    assignment, levels = {}, [-INF] * len(directions)
    for j, c, v in scan_terms(series, range(1, max_degree + 1)):
        row = assignment[j] = reference_route_index(j, directions)
        if c != 0 and j.degree >= tail_window(max_degree).start and v > levels[row]:
            levels[row] = v
    return assignment, levels


@pytest.mark.parametrize("lattice_degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_routing_matches_the_fsum_loop_bit_for_bit(n, lattice_degree):
    # every direction is a lattice point, so indices of every multiple degree
    # sit at exact l1 ties that the array sum may round apart at N >= 3
    directions = lattice_directions(n, lattice_degree)
    max_degree = ROUTING_DEGREES[n]
    for kind, rule in differential_rules(n).items():
        series = SeriesSpec(n, rule)
        try:
            assignment, levels = reference_routing(series, directions, max_degree)
        except ValueError:
            with pytest.raises(ValueError, match="opposite infinities"):
                decompose_elementary(series, directions, max_degree)
            continue
        dec = decompose_elementary(series, directions, max_degree)
        assert dec.assignment == assignment, kind
        # an empty tail window and an overflowed coefficient in it both give the empty estimate
        assert [p.level for p in dec.parts] == [INF if v == -INF else v for v in levels], kind
        assert [p.halfspace is None for p in dec.parts] == [abs(v) == INF for v in levels], kind


def test_routing_of_an_empty_scan():
    series = SeriesSpec(3, ExplicitTable({(0, 0, 0): 1.0}))
    dec = decompose_elementary(series, lattice_directions(3, 2), 8)
    assert dec.assignment == {} and all(p.level == INF for p in dec.parts)


def _golden_directions(name):
    return json.loads((GOLDEN_INPUTS / name).read_text())["directions"]


@pytest.mark.parametrize(
    "series_file, domain_file, degree, want",
    [
        # f dwarfs g here: symbolic parts keep g, where expanded tables absorbed it
        ("f0.json", "box_caps_minus1.json", 64, {"worst_rel_err": 0.0, "ok": True}),
        ("wedge_real.json", "triangle.json", 32, {"worst_rel_err": 0.0, "ok": True}),
    ],
)
def test_simple_decomposition_reports_its_exactness(series_file, domain_file, degree, want):
    series = SeriesSpec.load(GOLDEN_INPUTS / series_file)
    domain = HDomain.load(GOLDEN_INPUTS / domain_file)
    dec = decompose_simple(series, domain, _golden_directions("dirs5.json"), degree)
    assert dec.exactness() == want


def test_simple_exactness_reads_no_coefficient(monkeypatch, full_geom, third_quadrant):
    dec = decompose_simple(full_geom, third_quadrant, uniform_directions_2d(5), 32)
    calls = []
    for cls in (ExplicitTable, SupportWeighted, SumRule):
        for name in ("scan", "coefficient"):
            monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(SeriesSpec, "coefficient_table", lambda *args: calls.append("table"))
    assert dec.exactness() == {"worst_rel_err": 0.0, "ok": True}
    assert calls == []


def test_wedge_parts_are_sums_of_their_rows(full_geom, third_quadrant):
    dec = decompose_simple(full_geom, third_quadrant, uniform_directions_2d(4), 16)
    base = [f.rule.base for f in dec.f_rows]
    for n, part in enumerate(dec.parts):
        g, *f = part.series.rule.members
        assert g is dec.g_rows[n].rule
        want = [(base[n], 1.0 / (n + 1))] + ([(base[n - 1], -1.0 / n)] if n else [])
        assert [(r.base, r.scale) for r in f] == want


def test_elementary_decomposition_reports_its_exactness():
    series = SeriesSpec.load(GOLDEN_INPUTS / "overflow.json")
    dec = decompose_elementary(series, _golden_directions("dirs5.json"), 8)
    assert dec.exactness() == {"routed": 2, "occurring": 2, "ok": True}


ROUTED_CASES = [
    ("f0.json", "dirs11.json", 32),
    ("g3.json", "dirs_n3_lattice.json", 16),
    ("wedge_real.json", "dirs25.json", 64),  # a support-weighted realization: logs are -h
    ("overflow.json", "dirs5.json", 8),
]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("series_file, dirs_file, degree", ROUTED_CASES)
def test_routed_parts_are_rows_of_the_parent_table(monkeypatch, series_file, dirs_file, degree):
    series = SeriesSpec.load(GOLDEN_INPUTS / series_file)
    built = []
    init = ExplicitTable.__init__
    monkeypatch.setattr(ExplicitTable, "__init__", lambda self, t: built.append(1) or init(self, t))
    dec = decompose_elementary(series, _golden_directions(dirs_file), degree)
    assert built == []
    monkeypatch.undo()

    parent = series.coefficient_table(degree)
    parent_log = dict(zip(map(tuple, parent.entries.tolist()), parent.logs.tolist()))
    moved = 0
    for part in dec.parts:
        rule = part.series.rule
        rebuilt = ExplicitTable(dict(zip(map(tuple, rule.entries.tolist()), rule.coefficients.tolist())))
        assert rule.to_json() == rebuilt.to_json()
        assert rule.entries.tolist() == rebuilt.entries.tolist()
        assert rule.coefficients.tolist() == rebuilt.coefficients.tolist()
        rebuilt = SeriesSpec(series.dimension, rebuilt)
        for k in range(1, degree + 1):
            got = scan_terms(part.series, range(k, k + 1))
            want = scan_terms(rebuilt, range(k, k + 1))
            assert [j for j, _, _ in got] == [j for j, _, _ in want]
            for (j, c, v), (_, c_want, v_recomputed) in zip(got, want):
                assert (_bits(c.real), _bits(c.imag)) == (_bits(c_want.real), _bits(c_want.imag))
                # the parent scan's log, closed form included, not log|c|/|J| recomputed
                assert _bits(v) == _bits(parent_log[j.entries])
                moved += v != v_recomputed
    # -h and log(exp(-|J| h))/|J| differ in the last bits at some indices
    assert (moved > 0) == (series_file == "wedge_real.json")


def test_scans_build_no_multiindex_and_parts_no_dict(monkeypatch):
    built = []
    check = MultiIndex.__post_init__
    monkeypatch.setattr(MultiIndex, "__post_init__", lambda self: built.append(1) or check(self))
    for series_file, degree in [("f0.json", 64), ("g3.json", 32), ("wedge_real.json", 64)]:
        series = SeriesSpec.load(GOLDEN_INPUTS / series_file)
        built.clear()
        table = series.coefficient_table(degree)
        assert built == [], series_file
    dec = decompose_elementary(series, _golden_directions("dirs25.json"), 64)
    for part in dec.parts:
        # a routed part is three row arrays of the parent table, and nothing else
        assert sorted(vars(part.series.rule)) == ["coefficients", "entries", "logs"]
    built.clear()
    assert len(dec.assignment) == len(table.entries) == len(built)


@pytest.mark.parametrize("table_index", [(3, 1), (7, 1)])  # before and after the slot
def test_a_row_level_is_its_first_maximum(table_index):
    # the slot at degree 6 has log -h = -0.0 and the table entry log 1 = 0.0, so
    # the row's tail holds a tie whose sign only the first maximum decides
    rule = SumRule([SupportWeighted([(1.0, 0.0)], [0.0], per_row=1, base=6),
                    ExplicitTable({table_index: 1.0})])
    series, dirs = SeriesSpec(2, rule), [SimplexDirection((1.0, 0.0))]
    _, levels = reference_routing(series, dirs, 8)
    (part,) = decompose_elementary(series, dirs, 8).parts
    assert math.copysign(1.0, part.level) == math.copysign(1.0, levels[0])
    assert math.copysign(1.0, part.halfspace.offset) == math.copysign(1.0, -levels[0])
