import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from reinhardt import (
    ExplicitTable,
    FullGeometric,
    Membership,
    NotElementary,
    RayGeometric,
    SeriesSpec,
    SumRule,
    SupportWeighted,
    classify,
    decompose_elementary,
    direction_functional,
    elementary_halfspace,
    hadamard_indicator,
    slice_radius,
)
from reinhardt.construct import band_radius
from reinhardt.hadamard import ELEMENTARY_DIAMETER, tail_window
from reinhardt.multiindex import enumerate_degree, project
from conftest import (
    LN2,
    brute_force_indicator,
    differential_rules,
    lattice_directions,
    reference_direction_functional,
    reference_elementary_halfspace,
    scan_refuses,
    scan_terms,
)

INF = math.inf
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_indicator_examples(full_geom, ray_diag):
    # exact rule for the geometric series: psi(s) = max(s1, s2)
    assert hadamard_indicator(full_geom, (-0.1, -0.1)) == pytest.approx(-0.1, abs=1e-12)
    assert hadamard_indicator(full_geom, (0.05, -3.0)) == pytest.approx(0.05, abs=1e-12)
    # every supported diagonal term contributes exactly ln2/2
    assert hadamard_indicator(ray_diag, (0.0, 0.0)) == pytest.approx(LN2 / 2, abs=1e-15)


def test_sum_keeps_the_closed_form_log_of_a_support_weighted_member():
    # exp(-40 |J|) is 0 at every degree of the K = 64 window; the log -40 is not
    series = SeriesSpec(2, SumRule([SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)]))
    assert hadamard_indicator(series, (0.0, 0.0)) == -40.0
    verdict = classify(series, (50.0, 50.0))
    assert verdict.membership is Membership.OUTSIDE
    assert verdict.value == 10.0


def _ulps(a: float, b: float) -> int:
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_a_sum_of_underflowed_members_keeps_its_log_in_closed_form():
    # every member's e^(-40 |J|) underflows in the K = 64 window: log|sum| would read -inf
    sw = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)
    negated = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64, scale=-1.0)
    twice = SeriesSpec(2, SumRule([sw, sw]))
    assert _ulps(hadamard_indicator(twice, (0.0, 0.0), 64), -40.0 + LN2 / 32) <= 4
    assert classify(twice, (50.0, 50.0), 64).membership is Membership.OUTSIDE
    assert hadamard_indicator(SeriesSpec(2, SumRule([sw, negated])), (0.0, 0.0), 64) == -INF
    assert hadamard_indicator(SeriesSpec(2, SumRule([sw, sw, negated])), (0.0, 0.0), 64) == -40.0


def test_members_that_cancel_beside_an_underflowed_member_keep_its_log():
    # the pair's exact sum is 0, so the merged log is the underflowed member's -40
    big = complex(1.7e308, 1.7e308)
    sw = SupportWeighted([(0.5, 0.5)], [40.0], per_row=64)
    rule = SumRule([ExplicitTable({(20, 20): big}), ExplicitTable({(20, 20): -big}), sw])
    entries, _, logs = rule.scan(2, range(40, 41))
    assert entries.tolist() == [[20, 20]] and _ulps(logs[0], -40.0) <= 1
    verdict = classify(SeriesSpec(2, rule), (50.0, 50.0), 64)
    assert verdict.membership is Membership.OUTSIDE and _ulps(verdict.value, 10.0) <= 4


@pytest.mark.parametrize("rows", [5, 8])
def test_a_tie_of_zero_logs_gives_the_functional_the_sign_of_minus_the_level(rows):
    # the window holds -0.0 (h = 0 rows) first, then 0.0 (table rows of log 0)
    table = ExplicitTable({(d - 1, 1): 1.0 for d in range(65 - rows, 65)})
    series = SeriesSpec(2, SumRule([SupportWeighted([(1.0, 0.0)], [0.0], per_row=64), table]))
    level = decompose_elementary(series, [(1.0, 0.0)], 64).parts[0].level
    value = direction_functional(series, (1.0, 0.0), 0.5, 64)
    assert level == 0.0 and math.copysign(1.0, level) == -1.0
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_a_slice_coefficient_past_the_float_range_gives_radius_zero():
    # |a_1| = hypot(1.7e308, 1.7e308) reads +inf, as the coefficient table reads |c_J|
    series = SeriesSpec(2, ExplicitTable({(1, 0): complex(1.7e308, 1.7e308)}))
    assert slice_radius(series, (1.0, 1.0), 1) == 0.0


def test_indicator_matches_max_rule_on_grid(full_geom):
    rng = random.Random(2)
    for _ in range(40):
        s = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert hadamard_indicator(full_geom, s) == pytest.approx(max(s), abs=1e-12)


def test_indicator_empty_window_is_minus_inf():
    poly = SeriesSpec(2, ExplicitTable({(1, 0): 1.0, (0, 2): 3.0}))
    assert hadamard_indicator(poly, (5.0, 5.0)) == -INF


def test_classify_examples(full_geom):
    assert classify(full_geom, (-0.5, -0.5)).membership is Membership.INSIDE
    assert classify(full_geom, (0.5, 0.5)).membership is Membership.OUTSIDE
    assert classify(full_geom, (0.01, -0.01)).membership is Membership.UNKNOWN
    v = classify(full_geom, (-0.5, -0.5))
    assert v.value == pytest.approx(-0.5, abs=1e-12)
    assert v.margin == 0.05
    with pytest.raises(ValueError):
        classify(full_geom, (0.0, 0.0), epsilon=0.0)
    with pytest.raises(ValueError):
        hadamard_indicator(full_geom, (0.0, 0.0), max_degree=4)


def test_indicator_monotone_in_point(f_zero, full_geom):
    rng = random.Random(31)
    for series in (full_geom, f_zero):
        for _ in range(25):
            s = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            bigger = [x + rng.uniform(0, 0.7) for x in s]
            assert hadamard_indicator(series, s) <= hadamard_indicator(series, bigger) + 1e-12


def test_indicator_diagonal_shift(f_zero, full_geom, ray_diag):
    rng = random.Random(17)
    for series in (full_geom, ray_diag, f_zero):
        for _ in range(15):
            s = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(-1, 1)
            shifted = (s[0] + t, s[1] + t)
            assert hadamard_indicator(series, shifted) == pytest.approx(
                hadamard_indicator(series, s) + t, abs=1e-12
            )


def test_direction_functional_examples(full_geom, f_zero, ray_diag):
    for t in (0.0, 0.3, 0.5, 0.9):
        assert direction_functional(full_geom, (t, 1 - t), 0.1) == 0.0
    got = direction_functional(f_zero, (0.5, 0.5), 0.02)
    # oracle: the window holds the diagonal (largest term at its lowest degree)
    # plus coefficient-1 neighbors, so the peak is max of log(1 + 2^j)/(2j)
    peak = max(math.log(1 + 2**j) / (2 * j) for j in range(16, 33))
    assert got == pytest.approx(-peak, abs=1e-12)
    assert got == pytest.approx(-LN2 / 2, abs=0.02)
    assert direction_functional(f_zero, (0.7, 0.3), 0.05) == 0.0
    assert direction_functional(ray_diag, (1.0, 0.0), 0.05) == INF


def test_direction_functional_dominates_window_terms(f_zero):
    from reinhardt import SimplexDirection, project

    center, radius = SimplexDirection((0.5, 0.5)), 0.1
    c_hat = direction_functional(f_zero, center, radius)
    for k in tail_window(64):
        for j in f_zero.supported_indices(k):
            if project(j).l1_distance(center) > radius:
                continue
            v = f_zero.log_abs_coeff_normalized(j)
            if v == -INF:
                continue
            assert c_hat <= -v + 1e-12


def test_direction_window_validation(f_zero):
    for radius in (0.0, 2.5, math.nan):
        with pytest.raises(ValueError, match=r"window radius must lie in \(0, 2\]"):
            direction_functional(f_zero, (0.5, 0.5), radius)
    with pytest.raises(ValueError, match="center dimension"):
        direction_functional(f_zero, (0.2, 0.3, 0.5), 0.1)
    for max_degree in (0, -3):
        with pytest.raises(ValueError, match="max_degree must be >= 1"):
            direction_functional(f_zero, (0.5, 0.5), 0.1, max_degree)
        with pytest.raises(ValueError, match="max_degree must be >= 1"):
            tail_window(max_degree)
    assert tail_window(64) == range(32, 65) and tail_window(1) == range(1, 2)
    # cfunc's default radius, max(0.02, 2N/sqrt(K)), comes from the one radius rule
    assert band_radius(2, math.sqrt(64)) == 0.5
    for band in (0.0, -4.0, math.nan):
        with pytest.raises(ValueError, match="band must be > 0"):
            band_radius(2, band)


def test_elementary_halfspace_examples(ray_diag):
    hs = elementary_halfspace(ray_diag, 64)
    assert hs.normal.coords == (0.5, 0.5)
    assert -hs.offset == pytest.approx(LN2 / 2, abs=1e-9)

    ray21 = SeriesSpec(2, RayGeometric((2, 1), 1 / 3))
    hs = elementary_halfspace(ray21, 64)
    assert hs.normal.coords == (2 / 3, 1 / 3)
    assert -hs.offset == pytest.approx(-math.log(3.0) / 3, abs=1e-9)

    with pytest.raises(NotElementary):
        elementary_halfspace(SeriesSpec(2, FullGeometric()), 64)
    with pytest.raises(NotElementary):
        elementary_halfspace(SeriesSpec(2, ExplicitTable({})), 64)


def test_elementary_halfspace_sign_agrees_with_classify(ray_diag):
    hs = elementary_halfspace(ray_diag, 64)
    for x in range(-5, 6):
        for y in range(-5, 6):
            s = (x / 5, y / 5)
            verdict = classify(ray_diag, s, 64, 0.05)
            if verdict.membership is Membership.UNKNOWN:
                continue
            sign_inside = hs.value(s) < 0
            assert (verdict.membership is Membership.INSIDE) == sign_inside


def slice_oracle_full_geometric(r_equal, max_degree):
    """Closed form: a_k = (k+1) r^k when both coordinates equal r."""
    lo = (max_degree + 1) // 2
    peak = max(((k + 1) * r_equal**k) ** (1.0 / k) for k in range(lo, max_degree + 1))
    return 1.0 / peak


def test_slice_radius_against_closed_form(full_geom):
    # tail-window root test applied to a_k = k+1: frozen from the closed form,
    # still about a tenth away from the infinite-degree limit 1
    expected = slice_oracle_full_geometric(1.0, 64)
    got = slice_radius(full_geom, (1.0, 1.0), 64)
    assert got == pytest.approx(expected, rel=1e-12)
    assert abs(got - 1.0) < 0.12

    expected_half = slice_oracle_full_geometric(0.5, 64)
    got_half = slice_radius(full_geom, (0.5, 0.5), 64)
    assert got_half == pytest.approx(expected_half, rel=1e-12)
    assert abs(got_half - 2.0) < 0.25
    # doubling the truncation halves the gap: the estimate converges upward
    assert abs(slice_radius(full_geom, (1.0, 1.0), 256) - 1.0) < abs(got - 1.0)


def test_slice_radius_exact_for_the_diagonal_ray(ray_diag):
    # a_{2j} = 2^j gives |a_k|^{1/k} = sqrt(2) exactly
    assert slice_radius(ray_diag, (1.0, 1.0), 64) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_slice_radius_empty_window_is_infinite():
    poly = SeriesSpec(2, ExplicitTable({(2, 1): 4.0}))
    assert slice_radius(poly, (1.0, 1.0), 64) == INF


def test_slice_consistency_with_classify(full_geom, f_zero):
    # inside points slice to radius >= 1, outside points to radius <= 1
    for series in (full_geom, f_zero):
        for t in (-0.6, -0.35, 0.35, 0.6):
            s = (t, t)
            verdict = classify(series, s, 64, 0.05)
            r = tuple(math.exp(x) for x in s)
            rad = slice_radius(series, r, 64)
            if verdict.membership is Membership.INSIDE:
                assert rad >= 1.0 - 0.05
            elif verdict.membership is Membership.OUTSIDE:
                assert rad <= 1.0 + 0.05


@pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, -math.inf), (0.0, -math.inf)])
def test_non_finite_points_are_rejected(f_zero, point):
    with pytest.raises(ValueError, match="finite"):
        classify(f_zero, point)
    with pytest.raises(ValueError, match="finite"):
        hadamard_indicator(f_zero, point)


def test_nan_epsilon_is_rejected(f_zero):
    with pytest.raises(ValueError, match="epsilon"):
        classify(f_zero, (-0.5, -0.5), epsilon=math.nan)


DENSE = {"full_geometric", "sum_dense"}
DIFFERENTIAL_DEGREES = (8, 9, 64, 128)


def _differential_points(n):
    rng = random.Random(n)
    values = [-0.0, 0.0, 1e300, -1e300, 0.3, -2.5, 7.0]
    points = [(-0.0,) * n, (0.0,) * n, (1e300,) * n, (-1e300,) * n]
    points.append(tuple((1e300, -1e300, -0.0)[i % 3] for i in range(n)))
    points += [tuple(rng.choice(values) for _ in range(n)) for _ in range(3)]
    points += [tuple(rng.uniform(-3.0, 3.0) for _ in range(n)) for _ in range(2)]
    return points


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(differential_rules(1)))
def test_indicator_matches_the_per_term_loop_bit_for_bit(kind, n):
    series = SeriesSpec(n, differential_rules(n)[kind])
    for max_degree in DIFFERENTIAL_DEGREES:
        # the dense rules visit every lattice index; cap the brute-force work
        if kind in DENSE and math.comb(max_degree + n, n) > 50_000:
            continue
        # an undefined coefficient in degrees 1..K, in the window or below it
        refuses = scan_refuses(series, max_degree)
        for s in _differential_points(n):
            if refuses:
                with pytest.raises(ValueError, match="opposite infinities"):
                    hadamard_indicator(series, s, max_degree)
                continue
            want = brute_force_indicator(series, s, max_degree)
            got = hadamard_indicator(series, s, max_degree)
            assert type(got) is float
            assert got == want, (max_degree, s)
            assert math.copysign(1.0, got) == math.copysign(1.0, want), (max_degree, s)


def test_differential_rules_reach_their_edge_values():
    series = {kind: SeriesSpec(2, rule) for kind, rule in differential_rules(2).items()}
    with pytest.raises(ValueError, match=r"index \(5, 1\)"):
        series.pop("sum_nan_log").coefficient_table(8)
    tables = {kind: s.coefficient_table(8) for kind, s in series.items()}
    logs = {kind: t.logs[t.tail_start:] for kind, t in tables.items()}
    assert -INF in logs["ray_geometric_zero_ratio"]
    assert -INF in logs["explicit_table_with_zeros"] and INF in logs["explicit_table_with_inf"]
    assert len(logs["explicit_table_empty_window"]) == 0
    assert all(math.copysign(1.0, v) == -1.0 and v == 0.0 for v in logs["support_weighted_h0"])
    assert (tables["support_weighted_scaled"].coefficients.real < 0).all()
    assert hadamard_indicator(series["explicit_table_with_inf"], (0.0, 0.0), 8) == INF
    assert hadamard_indicator(series["explicit_table_empty_window"], (0.0, 0.0), 8) == -INF


def _attained_radii(series, center, degrees, count=4):
    """The l1 distances to the center that most rows of the degrees attain."""
    seen = Counter(project(j).l1_distance(center) for j, _, _ in scan_terms(series, degrees))
    return [r for r, _ in seen.most_common() if 0.0 < r <= 2.0][:count]


@pytest.mark.parametrize("lattice_degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_direction_functional_matches_the_fsum_loop_bit_for_bit(n, lattice_degree):
    max_degree = {2: 24, 3: 16, 4: 12}[n]
    centers = random.Random(lattice_degree).sample(lattice_directions(n, lattice_degree), 2)
    # the explicit_table_empty_window rule leaves the tail window empty
    for kind, rule in differential_rules(n).items():
        series = SeriesSpec(n, rule)
        for center in centers:
            if scan_refuses(series, max_degree):
                # opposite infinities in degrees 1..K: no coefficient to compare
                with pytest.raises(ValueError, match="opposite infinities"):
                    direction_functional(series, center, 2.0, max_degree)
                continue
            radii = _attained_radii(series, center, tail_window(max_degree))
            for radius in radii + [0.5 / max_degree, 2.0]:
                want = reference_direction_functional(series, center, radius, max_degree)
                got = direction_functional(series, center, radius, max_degree)
                assert got == want, (kind, center, radius)


def _elementary_outcome(estimate, series, max_degree):
    """The half-space's normal and offset, or the type and message of the refusal."""
    try:
        hs = estimate(series, max_degree)
    except ValueError as exc:
        return type(exc), str(exc)
    return hs.normal.coords, hs.offset, math.copysign(1.0, hs.offset)


def _near_diameter_tables(n, max_degree, tops=4):
    """Explicit tables of two tail indices projecting within 1e-9 of ELEMENTARY_DIAMETER apart.

    Rounding of the l1 distance decides whether such a pair is too far apart.
    Each table pairs one of a few top-degree indices with such a partner; a
    last table holds every one of them, so the first offending pair matters.
    """
    window = [j for k in tail_window(max_degree) for j in enumerate_degree(n, k)]
    top = [j for j in window if j.degree == max_degree]
    pairs = []
    for a in random.Random(n * max_degree).sample(top, min(tops, len(top))):
        for b in window:
            if abs(project(a).l1_distance(project(b)) - ELEMENTARY_DIAMETER) < 1e-9:
                pairs.append((a, b))
    tables = [ExplicitTable({a.entries: 2.0, b.entries: 0.5 - 1j}) for a, b in pairs]
    merged = {j.entries: 1.0 + i for i, pair in enumerate(pairs) for j in pair}
    return tables + [ExplicitTable(merged)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elementary_halfspace_matches_the_per_term_loop(n):
    tie_verdicts = set()
    for max_degree in (8, 9, 10, 20, 24):
        ties = _near_diameter_tables(n, max_degree)
        rules = {**differential_rules(n), **{f"near_diameter_{i}": t for i, t in enumerate(ties)}}
        for kind, rule in rules.items():
            # the dense rules visit every lattice index; cap the reference's work
            if kind in DENSE and math.comb(max_degree + n, n) > 50_000:
                continue
            series = SeriesSpec(n, rule)
            got = _elementary_outcome(elementary_halfspace, series, max_degree)
            if scan_refuses(series, max_degree):
                # opposite infinities in degrees 1..K, which the per-term loop may stop short of
                assert got[0] is ValueError and "opposite infinities" in got[1]
                continue
            want = _elementary_outcome(reference_elementary_halfspace, series, max_degree)
            if want == (ValueError, "half-space offset must be finite"):
                # the per-term loop fails inside HalfSpace on an overflowed level,
                # which the kernel refuses as NotElementary naming the index
                assert got[0] is NotElementary and "overflowed" in got[1], (kind, max_degree)
                continue
            assert got == want, (kind, max_degree)
            if rule in ties:
                tie_verdicts.add(want[0] is NotElementary)
    # rounding puts some pairs exactly 1/5 apart inside the diameter and some outside
    assert tie_verdicts == {True, False}


def test_elementary_halfspace_refuses_an_overflowed_tail():
    # decompose_elementary gives the row holding (3, 3) the empty estimate; this agrees
    series = SeriesSpec.load(GOLDEN_INPUTS / "overflow.json")
    with pytest.raises(NotElementary, match=r"coefficient at \(3, 3\) overflowed"):
        elementary_halfspace(series, 8)
    dec = decompose_elementary(series, [(0.5, 0.5)], 8)
    assert dec.parts[0].level == INF and dec.parts[0].halfspace is None
