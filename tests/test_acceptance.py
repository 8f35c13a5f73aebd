"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random

from reinhardt import (
    HalfSpace,
    HDomain,
    Membership,
    ProbeOutcome,
    SampledFunction,
    SeriesSpec,
    agreement_grid,
    classify,
    convex_closure_value,
    decompose_elementary,
    decompose_simple,
    elementary_halfspace,
    direction_functional,
    lp_maximize,
    probe,
    reduce_to_dense_subset,
    slice_radius,
    support_value,
    uniform_directions_2d,
)
from conftest import (
    LN2,
    band_distance,
    coeff_table,
    grid2,
    hrep_boundary_points,
    NEGATIVE_DOMAINS,
    hdomain,
    reference_partial_sum_abs,
    vertex_support_oracle,
)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_geometric_series_geometry(full_geom):
    """Truncated root-test classification matches sign(max(s1, s2)) exactly."""
    points = grid2(-1.0, 1.0, 11)
    checked = 0
    for s in points:
        exact = max(s)
        if abs(exact) <= 0.05:
            continue
        verdict = classify(full_geom, s, 64, 0.05)
        want = Membership.INSIDE if exact < 0 else Membership.OUTSIDE
        assert verdict.membership is want, s
        checked += 1
    oracle = agreement_grid(full_geom, points, 64, 0.05)
    assert oracle.decisive > 0
    assert oracle.agreement == 1.0
    report(
        f"criterion 1 PASS: {checked} grid verdicts match max(s1,s2); "
        f"probe agreement {oracle.agreement:.2f} on {oracle.decisive} decisive points"
    )


def test_criterion_2_elementary_halfspace_recovery(ray_diag):
    """Half-space of the diagonal ratio-2 series: exact direction, d = ln2/2."""
    hs = elementary_halfspace(ray_diag, 64)
    assert hs.normal.coords == (0.5, 0.5)
    d_hat = -hs.offset
    assert abs(d_hat - LN2 / 2) <= 1e-9
    for s in grid2(-1.0, 1.0, 11):
        line = s[0] + s[1] + LN2
        verdict = classify(ray_diag, s, 64, 0.05)
        if verdict.membership is Membership.UNKNOWN:
            continue
        want = Membership.INSIDE if line < 0 else Membership.OUTSIDE
        assert verdict.membership is want, s
    report(
        f"criterion 2 PASS: normal (0.5, 0.5) exact, |d - ln2/2| = {abs(d_hat - LN2/2):.2e}"
    )


def test_criterion_3_nonconvex_direction_functional(f_zero, wedge_domain):
    """c dips to -ln2/2 only at the diagonal; its envelope is the wedge support."""
    dirs = uniform_directions_2d(21)
    values = []
    for alpha in dirs:
        values.append(direction_functional(f_zero, alpha, 0.02, 64))
    worst = 0.0
    for alpha, v in zip(dirs, values):
        want = -LN2 / 2 if alpha.coords == (0.5, 0.5) else 0.0
        assert abs(v - want) <= 0.02, (alpha.coords, v)
        worst = max(worst, abs(v - want))
    samples = SampledFunction(tuple(dirs), tuple(values))
    sup_err = 0.0
    for alpha in dirs:
        envelope = convex_closure_value(samples, alpha)
        href = support_value(wedge_domain, alpha)
        sup_err = max(sup_err, abs(envelope - href))
    assert sup_err <= 0.05
    assert probe(f_zero, (0.8, 0.8), 64).outcome is ProbeOutcome.DIVERGES
    assert probe(f_zero, (0.6, 0.6), 64).outcome is ProbeOutcome.CONVERGES
    report(
        f"criterion 3 PASS: direction samples within {worst:.1e} of the dip shape; "
        f"envelope vs wedge support sup-error {sup_err:.1e}; probe settles (0.8, 0.8)/(0.6, 0.6)"
    )


def test_criterion_4_dense_subset_reduction(third_quadrant, wedge_domain, triangle_domain):
    """101 supporting directions reproduce membership; 11 strictly widen the gap."""
    grid = grid2(-2.0, 2.0, 21)
    domains = (third_quadrant, wedge_domain, triangle_domain)
    totals = {}
    for count in (101, 11):
        dense = uniform_directions_2d(count)
        mismatches = 0
        for domain in domains:
            reduced = reduce_to_dense_subset(domain, dense)
            for p in grid:
                same = reduced.contains(p, closed=True) == domain.contains(p, closed=True)
                if not same:
                    mismatches += 1
                    assert band_distance(domain, p) <= 0.1, (count, p)
        totals[count] = mismatches
    assert totals[101] == 0
    assert totals[11] > totals[101]
    report(
        f"criterion 4 PASS: fine reduction exact on all grids; "
        f"coarse mismatches {totals[11]} > fine {totals[101]}, all inside the 0.1 band"
    )


def test_criterion_5_realizing_series_round_trip(
    wedge_domain, directions_25, constructed_wedge_series
):
    """Constructed series re-identifies the wedge; rows recover their half-spaces."""
    good = total = 0
    for p in grid2(-1.0, 1.0, 21):
        if band_distance(wedge_domain, p) <= 0.1:
            continue
        total += 1
        verdict = classify(constructed_wedge_series, p, 64, 0.1)
        want = Membership.INSIDE if wedge_domain.evaluate(p) < 0 else Membership.OUTSIDE
        if verdict.membership is want:
            good += 1
    assert total >= 200
    fraction = good / total
    assert fraction >= 0.95
    rule = constructed_wedge_series.rule
    worst = 0.0
    for n in range(1, 26):
        row = SeriesSpec(2, rule.row(n))
        hs = elementary_halfspace(row, 64)
        h_n = support_value(wedge_domain, directions_25[n - 1])
        err = abs((-hs.offset) + h_n)
        worst = max(worst, err)
        assert err <= 1e-9, n
        assert hs.normal.l1_distance(directions_25[n - 1]) <= 2 * 2 / 8
    report(
        f"criterion 5 PASS: round-trip agreement {fraction:.3f} on {total} points; "
        f"all 25 rows recover their half-space, worst |d + h| = {worst:.1e}"
    )


def test_criterion_6_elementary_decomposition(f_zero, wedge_domain):
    """Exact bitwise partition with half-spaces containing the supporting ones."""
    dirs = uniform_directions_2d(11)
    dec = decompose_elementary(f_zero, dirs, 64)
    routed = {}
    for part in dec.parts:
        for j, c in coeff_table(part.series, 64).items():
            assert j not in routed
            routed[j] = c
    original = coeff_table(f_zero, 64)
    assert routed == original  # bitwise: values copied, never transformed
    for part in dec.parts:
        h = support_value(wedge_domain, part.direction)
        assert part.level <= -h + 0.02, part.direction.coords
    r = (0.7, 0.55)
    lhs = math.fsum(reference_partial_sum_abs(p.series, r, 64) for p in dec.parts) + abs(
        dec.constant_part
    )
    rhs = reference_partial_sum_abs(f_zero, r, 64)
    assert lhs == rhs  # relative error exactly 0: pure routing
    report(
        f"criterion 6 PASS: {len(original)} coefficients partitioned bitwise across "
        f"{len(dec.parts)} rows; offsets below supporting levels; partial sums identical"
    )


def test_criterion_7_wedge_decomposition(full_geom, third_quadrant):
    """Telescoping to 1e-12 and wedge intersection equal to the region."""
    dirs = uniform_directions_2d(5)
    dec = decompose_simple(full_geom, third_quadrant, dirs, 64)
    lhs = {}
    for part in dec.parts:
        for j, c in coeff_table(part.series, 64).items():
            lhs[j] = lhs.get(j, 0.0j) + c
    rhs = {}
    for g in dec.g_rows:
        for j, c in coeff_table(g, 64).items():
            rhs[j] = rhs.get(j, 0.0j) + c
    for j, c in coeff_table(dec.f_rows[-1], 64).items():
        rhs[j] = rhs.get(j, 0.0j) + c / len(dirs)
    assert set(lhs) == set(rhs)
    worst = 0.0
    for j in lhs:
        a, b = lhs[j], rhs[j]
        rel = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, rel)
        assert rel <= 1e-12, j
    exact = 0
    for p in grid2(-1.0, 1.0, 21):
        in_domain = third_quadrant.evaluate(p) < 0
        in_wedges = all(
            h.value(p) < 0 for part in dec.parts if part.wedge for h in part.wedge
        )
        assert in_domain == in_wedges, p
        exact += 1
    report(
        f"criterion 7 PASS: telescoping worst relative error {worst:.1e}; "
        f"wedge intersection matches the region at all {exact} grid points"
    )


def test_criterion_8_boundary_slice_radii(wedge_domain, constructed_wedge_series):
    """Slices at absolute-boundary points have unit radius within 7 percent."""
    targets = [(1.0, -2.0), (-2.0, 1.0), (1.0, 1.0), (0.5, -1.0), (-1.0, 0.5)]
    boundary = hrep_boundary_points(wedge_domain, (-3.0, -3.0), targets)
    radii = []
    for s in boundary:
        r = tuple(math.exp(x) for x in s)
        rad = slice_radius(constructed_wedge_series, r, 64)
        assert 0.93 <= rad <= 1.07, (s, rad)
        radii.append(rad)
    report(
        "criterion 8 PASS: slice radii at 5 boundary points: "
        + ", ".join(f"{r:.4f}" for r in radii)
    )


def test_criterion_9_lp_core():
    """Simplex matches vertex enumeration to 1e-7; edge cases classified."""
    rng = random.Random(20250809)
    worst = 0.0
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
        assert got.status == "optimal", case
        err = abs(got.value - oracle)
        worst = max(worst, err)
        assert err <= 1e-7, case
    unbounded = [
        ((1.0, 1.0), [((1.0, 0.0), 0.0)]),
        ((0.0, 1.0), [((1.0, 0.0), -1.0)]),
        ((1.0, 0.0), []),
        ((0.3, 0.7), [((0.0, 1.0), 2.0)]),
        ((1.0, 1.0, 1.0), [((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.0)]),
    ]
    for obj, rows in unbounded:
        domain = HDomain(len(obj), tuple(HalfSpace(a, c) for a, c in rows))
        assert lp_maximize(obj, domain).status == "unbounded"
    # no H-domain is empty: all offsets negative still leave t (1, ..., 1) inside
    for domain in NEGATIVE_DOMAINS:
        got = lp_maximize((1.0,) * domain.dimension, domain)
        assert got.status == "optimal" and domain.contains(got.witness, closed=True)
    report(
        f"criterion 9 PASS: 50 random domains within {worst:.1e} of vertex enumeration; "
        "5 unbounded cases classified; 5 all-negative H-domains optimal with a witness inside"
    )
