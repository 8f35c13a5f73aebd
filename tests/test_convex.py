import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conftest
from reinhardt import (
    EmptyDomain,
    HalfSpace,
    HDomain,
    LpResult,
    SampledFunction,
    SimplexDirection,
    convex_closure_value,
    lp_maximize,
    reduce_to_dense_subset,
    support_value,
    uniform_directions_2d,
)
from reinhardt.convex import _pivot
from conftest import (
    LN2,
    NEGATIVE_DOMAINS,
    exact_support,
    grid2,
    hdomain,
    raises_exactly,
    reference_lp_maximize,
    vertex_support_oracle,
)

INF = math.inf


def tent(t):
    """Closed-form support function of the wedge region, t-parametrized."""
    return -LN2 * min(t, 1.0 - t)


def test_lp_examples(third_quadrant, wedge_domain):
    r = lp_maximize((1.0, 0.0), third_quadrant)
    assert r.value == pytest.approx(0.0, abs=1e-12)
    assert r.witness is not None and r.witness[0] == pytest.approx(0.0, abs=1e-9)
    # vertex enumeration oracle for the 3-constraint wedge
    rows = [(h.normal.coords, h.offset) for h in wedge_domain.halfspaces]
    oracle = vertex_support_oracle(rows, (0.5, 0.5))
    assert oracle == pytest.approx(-LN2 / 2, abs=1e-12)
    assert lp_maximize((0.5, 0.5), wedge_domain).value == pytest.approx(oracle, abs=1e-9)
    assert lp_maximize((1.0, 1.0), hdomain([((1.0, 0.0), 0.0)])).value == INF


def test_lp_empty_constraints():
    assert lp_maximize((0.0, 0.0), HDomain(2, ())).value == 0.0
    assert lp_maximize((1.0, 0.0), HDomain(2, ())).value == INF


def test_lp_takes_only_an_hdomain():
    for raw in ([((1.0, 0.0), 0.0)], [], (((0.5, 0.5), 1.0),)):
        with pytest.raises(TypeError, match="must be an HDomain"):
            lp_maximize((0.5, 0.5), raw)


def test_lp_witness_is_feasible_and_optimal(wedge_domain):
    r = lp_maximize((0.25, 0.75), wedge_domain)
    assert wedge_domain.evaluate(r.witness) <= 1e-9
    assert r.value == pytest.approx(-0.25 * LN2, abs=1e-9)


def test_support_value_examples(third_quadrant, wedge_domain):
    assert support_value(third_quadrant, (0.3, 0.7)) == pytest.approx(0.0, abs=1e-12)
    assert support_value(wedge_domain, (0.5, 0.5)) == pytest.approx(-LN2 / 2, abs=1e-9)
    assert support_value(wedge_domain, (0.25, 0.75)) == pytest.approx(-0.25 * LN2, abs=1e-9)


def test_support_value_unbounded_is_a_value():
    slab = HDomain(2, (HalfSpace((1.0, 0.0), -1.0),))
    assert support_value(slab, (0.0, 1.0)) == INF


def test_a_direction_near_an_axis_sees_the_unbounded_ray():
    # {s1 <= 0} is unbounded in s2, so its support is +inf wherever alpha_2 > 0
    half = HDomain(2, (HalfSpace((1.0, 0.0), 0.0),))
    assert support_value(half, (0.99999999, 1e-8)) == INF
    assert support_value(half, (0.9999999999, 1e-10)) == INF


@pytest.mark.xfail(strict=True, reason="PIVOT_TOL = 1e-9 on reduced costs is absolute, "
                   "so a direction within 1e-9 of the bounded axis reads bounded")
def test_a_direction_near_an_axis_sees_the_unbounded_ray_at_n3():
    # {s1 <= 0} is unbounded in s2 and s3; N = 3 support values still run the simplex
    half = HDomain(3, (HalfSpace((1.0, 0.0, 0.0), 0.0),))
    assert support_value(half, (1 - 2e-10, 1e-10, 1e-10)) == INF


@pytest.mark.xfail(strict=True, reason="PIVOT_TOL = 1e-9 on reduced costs is absolute, "
                   "so a direction within 1e-9 of the bounded axis reads bounded")
def test_the_lp_near_an_axis_sees_the_unbounded_ray_at_n2():
    # support_value of this pair reads +inf through the N = 2 hull; the simplex, optimal 0.0
    half = HDomain(2, (HalfSpace((1.0, 0.0), 0.0),))
    assert lp_maximize((1 - 2e-10, 2e-10), half).value == INF


def _envelope_family(rng, caps=True):
    """A random N = 2 domain: axis caps (unless dropped) plus 2-25 interior cuts.

    Every third cut's offset lies on one line, so some hull turns are nearly
    collinear and go to the exact test.
    """
    rows = [((1.0, 0.0), rng.uniform(-1.2, 0.4)), ((0.0, 1.0), rng.uniform(-1.2, 0.4))][: 2 * caps]
    slope, level = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 0.5)
    for i in range(rng.randint(2, 25)):
        t = rng.random()
        rows.append(((t, 1.0 - t), slope * t + level if i % 3 == 0 else rng.uniform(-2.0, 1.0)))
    rng.shuffle(rows)
    return hdomain(rows)


def _envelope_directions(rng, domain):
    """Six random directions, the simplex corners and three of the normals."""
    ts = [rng.random() for _ in range(6)] + [0.0, 1.0]
    ts += [hs.normal.coords[0] for hs in domain.halfspaces[:3]]
    return [(t, 1.0 - t) for t in ts]


def _lp_rel_tol():
    """The benchmark's tolerance for LP values, read from bench/reference.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference.LP_REL_TOL


def _offset_ulp(domain, shift=0.0):
    return math.ulp(1.0 + max(abs(hs.offset) for hs in domain.halfspaces) + abs(shift))


def test_support_values_at_n2_are_the_exact_lower_envelope():
    rng = random.Random(1979)
    tol = _lp_rel_tol()
    for case in range(60):
        domain = _envelope_family(rng)
        for alpha in _envelope_directions(rng, domain):
            got = support_value(domain, alpha)
            exact = exact_support(domain, alpha)
            assert abs(Fraction(got) - exact) <= 4 * Fraction(_offset_ulp(domain)), (case, alpha)
            lp = lp_maximize(alpha, domain).value
            assert abs(got - lp) <= tol * (1.0 + abs(lp)), (case, alpha)


def test_support_at_n2_is_inf_exactly_outside_the_normals():
    rng = random.Random(1983)
    for case in range(60):
        domain = _envelope_family(rng, caps=False)
        firsts = [hs.normal.coords[0] for hs in domain.halfspaces]
        lo, hi = min(firsts), max(firsts)
        ts = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 1.0), (lo + hi) / 2]
        ts += [rng.random() for _ in range(6)]
        for t in ts:
            got = support_value(domain, (t, 1.0 - t))
            assert (got == INF) == (not lo <= t <= hi), (case, t)
            if got != INF:
                exact = exact_support(domain, (t, 1.0 - t))
                assert abs(Fraction(got) - exact) <= 4 * Fraction(_offset_ulp(domain)), (case, t)


@pytest.mark.parametrize("shift", [-1e3, -0.75, 3.0, 1e6])
def test_shifting_every_offset_shifts_the_support(shift):
    # psi(s + t 1) = psi(s) - t: moving every offset by t moves h by t
    rng = random.Random(1987)
    for case in range(30):
        domain = _envelope_family(rng, caps=case % 2 == 0)
        moved = HDomain(2, tuple(HalfSpace(hs.normal, hs.offset + shift) for hs in domain.halfspaces))
        for alpha in _envelope_directions(rng, domain):
            h, h_moved = support_value(domain, alpha), support_value(moved, alpha)
            if h == INF:
                assert h_moved == INF, (case, alpha)
            else:
                assert abs(h_moved - (h + shift)) <= 8 * _offset_ulp(domain, shift), (case, alpha)


def test_a_signed_zero_offset_reads_plus_zero():
    domain = hdomain([((1.0, 0.0), -0.0), ((0.0, 1.0), -0.0), ((0.5, 0.5), -0.0)])
    for alpha in ((0.5, 0.5), (1.0, 0.0), (0.25, 0.75), (0.0, 1.0)):
        got = support_value(domain, alpha)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0, alpha


def test_a_vertex_the_float_turn_test_misses_is_kept():
    # the float determinant of these three points is 0.0, the exact one is
    # about 4e-19 > 0: the middle point is a hull vertex and reads its own offset
    points = [(0.23796462709189137, 0.3008991946799448), (0.36995516654807925, 0.32833211858918393),
              (0.5442292252959519, 0.3645532524119727)]
    (ox, oy), (ax, ay), (bx, by) = points
    assert (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) == 0.0
    domain = hdomain([((x, 1.0 - x), y) for x, y in points])
    assert support_value(domain, (ax, 1.0 - ax)) == ay
    assert support_value(domain, (ax, 1.0 - ax)) == exact_support(domain, (ax, 1.0 - ax))


@pytest.mark.parametrize("offset", [0.1, 1.5, -1e300, sys.float_info.max, -sys.float_info.max])
def test_equal_offsets_read_back_exactly(offset):
    # h(alpha) = c (alpha_1 + alpha_2) = c: the interpolation never rounds past
    # its endpoints, so it cannot overflow even at the float maximum
    domain = hdomain([((1.0, 0.0), offset), ((0.0, 1.0), offset), ((0.5, 0.5), offset)])
    for i in range(1, 1000):
        assert support_value(domain, (i / 1000, 1.0 - i / 1000)) == offset, i


def test_a_repeated_normal_keeps_its_least_offset():
    domain = hdomain([((0.0, 1.0), 0.0), ((0.5, 0.5), 2.0), ((1.0, 0.0), 0.0), ((0.5, 0.5), -1.0),
                      ((0.5, 0.5), 5.0)])
    assert support_value(domain, (0.5, 0.5)) == -1.0
    assert support_value(domain, (0.25, 0.75)) == -0.5


def test_support_at_n2_keeps_the_lp_argument_errors(wedge_domain):
    for raw in ([(h.normal.coords, h.offset) for h in wedge_domain.halfspaces], []):
        with pytest.raises(TypeError, match="constraints must be an HDomain, got list"):
            support_value(raw, (0.5, 0.5))
    with pytest.raises(ValueError, match="^objective has dimension 3, domain has 2$"):
        support_value(wedge_domain, (0.2, 0.3, 0.5))
    with pytest.raises(ValueError, match="^objective has dimension 2, domain has 3$"):
        support_value(hdomain([((1.0, 0.0, 0.0), 0.0)]), (0.5, 0.5))


def test_no_n2_caller_reaches_the_lp(monkeypatch, f_zero, triangle_domain):
    import reinhardt.convex
    from reinhardt import estimate_domain, series_for_domain

    def refuse(*args, **kwargs):
        raise AssertionError("an N = 2 support value ran the simplex")

    monkeypatch.setattr(reinhardt.convex, "lp_maximize", refuse)
    dirs = uniform_directions_2d(11)
    series = series_for_domain(triangle_domain, dirs, per_row=4)
    assert len(series.rule.values) == 11
    assert estimate_domain(f_zero, dirs, 32).dimension == 2
    assert reduce_to_dense_subset(triangle_domain, dirs).dimension == 2
    f = SampledFunction(tuple(dirs), tuple(abs(d.coords[0] - 0.5) for d in dirs))
    assert convex_closure_value(f, (0.3, 0.7)) == pytest.approx(0.2)


def test_support_subadditivity_random(wedge_domain, third_quadrant, triangle_domain):
    rng = random.Random(99)
    for domain in (wedge_domain, third_quadrant, triangle_domain):
        for _ in range(20):
            t1, t2 = rng.random(), rng.random()
            a = SimplexDirection((t1, 1 - t1))
            b = SimplexDirection((t2, 1 - t2))
            mid = SimplexDirection(((t1 + t2) / 2, 1 - (t1 + t2) / 2))
            ha, hb = support_value(domain, a), support_value(domain, b)
            hmid = support_value(domain, mid)
            # h((a+b)/2) <= (h(a)+h(b))/2 by positive homogeneity + subadditivity
            assert hmid <= (ha + hb) / 2 + 1e-9


def test_convex_closure_flat_zero_is_exactly_zero():
    dirs = uniform_directions_2d(11)
    f = SampledFunction(tuple(dirs), (0.0,) * 11)
    assert convex_closure_value(f, (0.5, 0.5)) == 0.0
    assert convex_closure_value(f, (0.3, 0.7)) == 0.0


def test_convex_closure_tent_values():
    dirs = uniform_directions_2d(11)
    values = [0.0] * 11
    values[5] = -LN2 / 2  # dip at (0.5, 0.5)
    f = SampledFunction(tuple(dirs), tuple(values))
    # greatest convex minorant through (0,0), (1/2, -ln2/2), (1,0)
    assert convex_closure_value(f, (0.25, 0.75)) == pytest.approx(-LN2 / 4, abs=1e-9)
    assert convex_closure_value(f, (0.5, 0.5)) == pytest.approx(-LN2 / 2, abs=1e-9)
    for i, d in enumerate(dirs):
        assert convex_closure_value(f, d) <= values[i] + 1e-9


def test_convex_closure_matches_tent_everywhere():
    dirs = uniform_directions_2d(21)
    values = [tent(d.coords[0]) for d in dirs]
    f = SampledFunction(tuple(dirs), tuple(values))
    for t in [0.05 * i for i in range(21)]:
        got = convex_closure_value(f, (t, 1 - t))
        assert got == pytest.approx(tent(t), abs=1e-9)


def test_convex_closure_minorant_maximality():
    # any convex piecewise-linear p <= f at samples satisfies p <= cl conv f
    rng = random.Random(5)
    dirs = uniform_directions_2d(11)
    values = [0.0] * 11
    values[5] = -LN2 / 2
    f = SampledFunction(tuple(dirs), tuple(values))

    def random_linear_minorant():
        # homogeneous linear functional <s, .> dominated by f at all samples
        while True:
            s = (rng.uniform(-2, 0), rng.uniform(-2, 0))
            if all(
                s[0] * d.coords[0] + s[1] * d.coords[1] <= v + 1e-12
                for d, v in zip(dirs, values)
            ):
                return s

    for _ in range(20):
        s = random_linear_minorant()
        t = rng.random()
        alpha = (t, 1 - t)
        p = s[0] * alpha[0] + s[1] * alpha[1]
        assert p <= convex_closure_value(f, alpha) + 1e-9


def test_convex_closure_idempotent():
    dirs = uniform_directions_2d(11)
    values = [0.0] * 11
    values[5] = -LN2 / 2
    f = SampledFunction(tuple(dirs), tuple(values))
    once = [convex_closure_value(f, d) for d in dirs]
    again = [convex_closure_value(SampledFunction(tuple(dirs), tuple(once)), d) for d in dirs]
    for a, b in zip(once, again):
        assert b == pytest.approx(a, abs=1e-7)


def test_convex_closure_infinite_samples_drop_out():
    dirs = uniform_directions_2d(5)
    values = [0.0, INF, -0.2, INF, 0.0]
    f = SampledFunction(tuple(dirs), tuple(values))
    finite_only = SampledFunction(
        (dirs[0], dirs[2], dirs[4]), (0.0, -0.2, 0.0)
    )
    for t in (0.2, 0.5, 0.8):
        assert convex_closure_value(f, (t, 1 - t)) == pytest.approx(
            convex_closure_value(finite_only, (t, 1 - t)), abs=1e-12
        )
    all_inf = SampledFunction(tuple(dirs[:2]), (INF, INF))
    assert convex_closure_value(all_inf, (0.5, 0.5)) == INF


def test_reduce_to_dense_subset_examples(third_quadrant, wedge_domain):
    dense = uniform_directions_2d(11)
    reduced = reduce_to_dense_subset(third_quadrant, dense)
    for p in grid2(-2.0, 2.0, 21):
        dist = min(abs(p[0]), abs(p[1]))
        if dist <= 0.2:
            continue
        assert reduced.contains(p, closed=True) == third_quadrant.contains(p, closed=True)
    single = reduce_to_dense_subset(third_quadrant, [SimplexDirection((1.0, 0.0))])
    assert len(single.halfspaces) == 1
    assert single.halfspaces[0].normal.coords == (1.0, 0.0)
    assert single.halfspaces[0].offset == pytest.approx(0.0, abs=1e-12)

    fine = reduce_to_dense_subset(wedge_domain, uniform_directions_2d(101))
    for p in grid2(-2.0, 2.0, 21):
        band = min(abs(hs.value(p)) / max(hs.normal.coords) for hs in wedge_domain.halfspaces)
        if band <= 0.1:
            continue
        assert fine.contains(p, closed=True) == wedge_domain.contains(p, closed=True)


def test_reduce_contains_original(wedge_domain, triangle_domain):
    rng = random.Random(12)
    for domain in (wedge_domain, triangle_domain):
        reduced = reduce_to_dense_subset(domain, uniform_directions_2d(11))
        for _ in range(200):
            p = (rng.uniform(-3, 1), rng.uniform(-3, 1))
            if domain.contains(p, closed=True):
                assert reduced.contains(p, closed=True)


def test_lp_random_domains_match_vertex_oracle():
    rng = random.Random(20250809)
    for case in range(50):
        n = rng.choice([2, 3, 4])
        rows = []
        for i in range(n):
            normal = [0.0] * n
            normal[i] = 1.0
            rows.append((tuple(normal), rng.uniform(-1.0, 2.0)))
        for _ in range(rng.randrange(1, 4)):
            raw = [rng.random() + 1e-6 for _ in range(n)]
            total = sum(raw)
            coords = [x / total for x in raw]
            coords[-1] = 1.0 - sum(coords[:-1])
            rows.append((tuple(coords), rng.uniform(-2.0, 1.0)))
        raw = [rng.random() + 1e-6 for _ in range(n)]
        total = sum(raw)
        obj = [x / total for x in raw]
        oracle = vertex_support_oracle(rows, obj)
        got = lp_maximize(obj, hdomain(rows))
        assert got.status == "optimal", f"case {case}"
        assert got.value == pytest.approx(oracle, abs=1e-7), f"case {case}"


def test_lp_unbounded_and_infeasible_classification():
    cases_unbounded = [
        ((1.0, 1.0), [((1.0, 0.0), 0.0)]),
        ((0.0, 1.0), [((1.0, 0.0), -1.0)]),
        ((1.0, 0.0), []),
        ((0.3, 0.7), [((0.0, 1.0), 2.0)]),
        ((1.0, 1.0, 1.0), [((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.0)]),
    ]
    for obj, rows in cases_unbounded:
        r = lp_maximize(obj, HDomain(len(obj), tuple(HalfSpace(a, c) for a, c in rows)))
        assert r.status == "unbounded" and r.value == INF, (obj, rows)
    # no H-domain is infeasible: with every offset negative, down to -1e9, the
    # region still holds t (1, ..., 1) for t below the least offset
    for domain in NEGATIVE_DOMAINS:
        r = lp_maximize((1.0,) * domain.dimension, domain)
        assert r.status == "optimal" and domain.contains(r.witness, closed=True), domain


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e13, 1e200])
def test_ratio_ties_scale_with_the_data(scale):
    # {s1 <= 9e-13, s2 <= 2e-13, 0.6 s1 + 0.4 s2 <= 4e-13}, scaled: the top at
    # (0.5, 0.5) is 11/3 1e-13 at every scale, at (16/3 1e-13, 2e-13); ratios
    # 1e-13 apart must not tie below 1e-12
    tiny = hdomain([((1.0, 0.0), 9e-13 * scale), ((0.0, 1.0), 2e-13 * scale),
                    ((0.6, 0.4), 4e-13 * scale)])
    r = lp_maximize((0.5, 0.5), tiny)
    exact = exact_support(tiny, (0.5, 0.5))
    assert abs(Fraction(r.value) - exact) <= Fraction(math.ulp(float(exact)))
    assert tiny.evaluate(r.witness) <= 1e-15 * 9e-13 * scale


def test_domain_json_round_trip(tmp_path, wedge_domain):
    path = tmp_path / "wedge.json"
    wedge_domain.save(path)
    loaded = HDomain.load(path)
    assert loaded.dimension == 2
    for hs, orig in zip(loaded.halfspaces, wedge_domain.halfspaces):
        assert hs.normal.coords == orig.normal.coords
        assert hs.offset == orig.offset


def test_sampled_function_json_round_trip(tmp_path):
    dirs = uniform_directions_2d(3)
    f = SampledFunction(tuple(dirs), (0.0, INF, -1.5))
    path = tmp_path / "samples.json"
    f.save(path)
    loaded = SampledFunction.load(path)
    assert loaded.values == (0.0, INF, -1.5)


def test_sampled_function_validation():
    dirs = uniform_directions_2d(3)
    # -inf bounds the region by an empty half-space; NaN is malformed input
    with pytest.raises(EmptyDomain, match=r"at \(0\.5, 0\.5\) is -inf"):
        SampledFunction(tuple(dirs), (0.0, -INF, 0.0))
    with pytest.raises(ValueError, match="NaN") as nan:
        SampledFunction(tuple(dirs), (0.0, math.nan, 0.0))
    assert type(nan.value) is ValueError
    with pytest.raises(ValueError):
        SampledFunction((dirs[0], dirs[0]), (0.0, 1.0))


def test_halfspace_offset_must_be_finite():
    with pytest.raises(ValueError):
        HalfSpace((1.0, 0.0), INF)


def _lp_cases(n, m, rng):
    """(label, objective, domain) for one shape: bounded, unbounded, degenerate.

    Negative offsets shift the start to t (1, ..., 1); zero offsets (of
    either sign) and repeated rows make ratios tie, where Bland's rule decides.
    """

    def simplex_normal():
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        return tuple(x / total for x in raw)

    def axis(i):
        return tuple(1.0 if j == i else 0.0 for j in range(n))

    caps = [(axis(i), rng.uniform(-1.2, 0.4)) for i in range(min(n, m))]
    cuts = [(simplex_normal(), rng.uniform(-2.0, 1.0)) for _ in range(m - len(caps))]
    simplex_rows = caps + cuts
    degenerate = []
    for i, (a, c) in enumerate(simplex_rows):
        c = (0.0, -0.0)[i % 2] if i % 3 == 0 else c
        degenerate += [(a, c)] * 3 if i % 2 else [(a, c)]
    degenerate = degenerate[:m]
    direction = simplex_normal()
    return [
        ("simplex", direction, hdomain(simplex_rows)),
        ("simplex-axis", axis(n - 1), hdomain(simplex_rows)),
        ("simplex-unbounded", (-1.0,) * n, hdomain(simplex_rows)),
        ("degenerate", direction, hdomain(degenerate)),
        ("signed-zero", direction, hdomain([(a, -0.0) for a, _ in simplex_rows])),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_lp_matches_the_per_row_simplex_bit_for_bit(n, monkeypatch):
    pivots = []
    pivot = conftest._reference_pivot

    def counting_pivot(*args):
        pivots.append(args[3:])
        pivot(*args)

    monkeypatch.setattr(conftest, "_reference_pivot", counting_pivot)
    rng = random.Random(1977 + n)
    statuses = set()
    for m in (1, 4, 5, 20, 200):
        for label, objective, domain in _lp_cases(n, m, rng):
            pivots.clear()
            want = reference_lp_maximize(objective, domain)
            got = lp_maximize(objective, domain)
            case = (m, label)
            assert got.status == want.status, case
            assert got.value == want.value, case
            if want.witness is None:
                assert got.witness is None, case
            else:
                assert got.witness.tobytes() == want.witness.tobytes(), case
            assert got.pivots == len(pivots), case
            statuses.add(got.status)
    assert statuses == {"optimal", "unbounded"}


def test_pivot_leaves_rows_with_a_zero_multiplier_untouched():
    # 1e300 / 2**-40 overflows to inf in the pivot row; updating the row with
    # a zero in the pivot column as well would write 0 * inf = NaN into it
    T = np.array([[2.0**-40, 1e300, 1.0], [0.0, 2.0, 3.0], [0.5, 1.0, 0.0]])
    rhs = np.array([1.0, 4.0, 0.0])
    basis = [2, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        _pivot(T, rhs, basis, 0, 0)
    assert T[0].tolist() == [1.0, INF, 2.0**40] and rhs[0] == 2.0**40
    assert T[1].tolist() == [0.0, 2.0, 3.0] and rhs[1] == 4.0
    assert basis == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_lp_agrees_with_scipy_highs(n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(2718 + n)
    for m in (1, 4, 5, 20, 200):
        for label, objective, domain in _lp_cases(n, m, rng):
            A = np.array([h.normal.coords for h in domain.halfspaces])
            c = np.array([h.offset for h in domain.halfspaces])
            ref = optimize.linprog(
                -np.asarray(objective), A_ub=A, b_ub=c, bounds=[(None, None)] * n, method="highs"
            )
            want = {0: "optimal", 3: "unbounded"}[ref.status]
            got = lp_maximize(objective, domain)
            assert got.status == want, (m, label)
            if want == "optimal":
                assert got.value == pytest.approx(-ref.fun, abs=1e-7 * (1.0 + abs(ref.fun)))
                assert domain.evaluate(got.witness) <= 1e-9 * (1.0 + abs(ref.fun)), (m, label)


@pytest.mark.parametrize(
    "objective, rows",
    [
        ([1.0], [((INF,), 1.0)]),
        ([1.0], [((1.0,), math.nan)]),
        ([math.nan], [((1.0,), 1.0)]),
        ([1.0, -INF], []),
        ([0.5, 0.5], [((1.0, math.nan), 0.0), ((0.0, 1.0), 0.0)]),
        ([0.5, 0.5], [((1.0, 0.0), 0.0), ((0.0, 1.0), -INF)]),
    ],
)
def test_lp_rejects_non_finite_input(objective, rows):
    # a non-finite row is refused where its HalfSpace is built
    with pytest.raises(ValueError, match="finite"):
        lp_maximize(objective, HDomain(len(objective), tuple(HalfSpace(a, c) for a, c in rows)))


def test_lp_reports_pivot_counts():
    # max x subject to x <= 1: one pivot from the slack basis
    r = lp_maximize([1.0], hdomain([((1.0,), 1.0)]))
    assert (r.value, r.pivots) == (1.0, 1)
    # x <= -1 starts at x = -1, where the slack basis already sits at the top
    r = lp_maximize([1.0], hdomain([((1.0,), -1.0), ((1.0,), 2.0)]))
    assert (r.value, r.pivots) == (-1.0, 1)
    r = lp_maximize([-1.0], hdomain([((1.0,), -1.0)]))
    assert (r.status, r.pivots) == ("unbounded", 0)
    assert lp_maximize([1.0], HDomain(1, ())).pivots == 0
    assert LpResult(0.0, None, "optimal") == LpResult(0.0, None, "optimal", 0)


_ROW = HalfSpace((0.5, 0.5), 0.0)
INPUT_CHECKS = {
    "domain_dimension": (lambda: HDomain(0, ()), ValueError, "domain dimension must be >= 1"),
    "normal_dimension": (lambda: HDomain(2, (HalfSpace((1.0,), 0.0),)), ValueError,
                         "half-space normal dimension mismatch"),
    "sample_lengths": (lambda: SampledFunction([(1.0, 0.0)], (0.0, 1.0)), ValueError,
                       "directions and values must have equal length"),
    "lp_dimension": (lambda: lp_maximize((1 / 17,) * 17, HDomain(17, ())), ValueError,
                     "dimension 17 exceeds the supported cap 16"),
    "lp_rows": (lambda: lp_maximize((0.5, 0.5), HDomain(2, (_ROW,) * 10_001)), ValueError,
                "10001 constraints exceed the supported cap 10000"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_convex_input_checks_raise_their_error(case):
    raises_exactly(*INPUT_CHECKS[case])


def test_a_domain_without_halfspaces_evaluates_to_minus_inf():
    assert HDomain(2, ()).evaluate((1e300, -1e300)) == -math.inf
    assert HDomain(2, ()).contains((1e300, -1e300))
