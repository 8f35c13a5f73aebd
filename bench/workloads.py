"""Seeded inputs and operation corpora for the benchmark workloads.

Every workload turns a seed into plain inputs (series, H-domains, grids,
direction sets, and for ``decompose`` the JSON files the CLI reads) and a
corpus: the list of operations one pass runs, in a fixed interleaved order so
that any prefix of a pass holds every kind of operation in its pass share.
Sizes (K, grid shapes, row counts, direction counts) are fixed per workload;
the seed moves only values, so runs under different seeds do the same amount
of work.

Each operation has a ``run`` (the timed call into ``reinhardt``), a ``canon``
(its output as plain JSON data, used for the digest), a ``check`` against
``reference`` and, where the operation produces verdicts, a ``tally``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref

WORKLOADS = ("domain_map", "crosscheck", "polytope", "decompose")

# Axis-cap offsets of the seeded H-domains, and how far below the cap corner
# the extra half-spaces cut.  Fixed before the first benchmark run and never
# to be narrowed.
AXIS_CAP_RANGE = (-1.2, 0.4)
CUT_DEPTH_RANGE = (0.1, 0.8)
# decompose --mode simple --domain gets the series' own convergence domain
# pushed outward by a seeded shift from this range, so the realizing series'
# coefficients exp(-|J| h) stay below the series' own and the telescoped parts
# are exact.  Where they grow far above them, they absorb the series'
# coefficients and the CLI reports exactness.ok false; known_defect()
# reproduces that in every decompose report instead of failing a share of the
# timed operations.
DECOMPOSE_DOMAIN_SHIFT = (0.1, 0.4)

EPSILON = 0.05
MARGIN = 0.1


@dataclass
class Outcome:
    ok: bool
    flagged: bool = False  # the program itself reported the failure
    note: str = ""


@dataclass
class Tally:
    verdicts: int
    decisive: int
    agree: int
    undecided: int


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    canon: Callable[[object], dict]
    check: Callable[[dict], Outcome]
    tally: Optional[Callable[[dict], Tally]] = None


@dataclass
class Workload:
    name: str
    ops: list
    sizes: dict
    workdir: Optional[str] = None

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def interleave(groups):
    """Merge op lists so each list is spread evenly over the result."""
    keyed = []
    for g, ops in enumerate(groups):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), g, op))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in keyed]


def seeded_rows(rng, n: int, cuts: int):
    """Axis caps plus `cuts` half-spaces with interior simplex normals."""
    caps = rng.uniform(*AXIS_CAP_RANGE, size=n)
    eye = np.eye(n)
    rows = [(tuple(float(x) for x in eye[i]), float(caps[i])) for i in range(n)]
    for _ in range(cuts):
        a = rng.dirichlet(np.full(n, 2.0))
        rows.append((tuple(float(x) for x in a), float(a @ caps - rng.uniform(*CUT_DEPTH_RANGE))))
    return rows, caps


def hdomain(R, n, rows):
    return R.HDomain(n, tuple(R.HalfSpace(a, c) for a, c in rows))


def directions_2d(count: int, rng=None):
    """count directions on the N=2 simplex edge; interior ones jittered by rng."""
    step = count - 1
    out = []
    for i in range(count):
        t = i / step
        if rng is not None and 0 < i < step:
            t = (i + rng.uniform(-0.3, 0.3)) / step
        out.append((t, 1.0 - t))
    return out


def directions_3d():
    """The ten degree-3 lattice directions of the N=3 simplex."""
    return [(a / 3, b / 3, (3 - a - b) / 3) for a in range(4) for b in range(4 - a)]


def grid(lo, hi, counts):
    axes = [np.linspace(l, h, c) for l, h, c in zip(lo, hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(float(x) for x in p) for p in np.stack([m.ravel() for m in mesh], axis=1)]


def _jittered_box(rng, lo, hi, n, jitter=0.1):
    shift = rng.uniform(-jitter, jitter, size=n)
    return list(np.asarray(lo, dtype=float) + shift), list(np.asarray(hi, dtype=float) + shift)


def realization(R, rng, n, directions, per_row, cuts):
    """Support-weighted series realizing a seeded domain, with its reference family.

    Support values come from vertex enumeration, so the program only receives
    the finished series.
    """
    rows, caps = seeded_rows(rng, n, cuts)
    values = [ref.support_by_vertices(rows, d) for d in directions]
    rule = R.SupportWeighted(directions, values, per_row=per_row)
    series = R.SeriesSpec(n, rule, label="seeded realization")
    return series, ref.Family(directions, values, per_row), rows, caps


def f0_series(R):
    return R.SeriesSpec(2, R.SumRule([R.FullGeometric(), R.RayGeometric((1, 1), 2.0)]), "f0")


def g3_series(R):
    return R.SeriesSpec(3, R.SumRule([R.FullGeometric(), R.RayGeometric((1, 1, 1), 1.5)]), "g3")


F0_REF = ref.GeometricRay((1, 1), 2.0)
G3_REF = ref.GeometricRay((1, 1, 1), 1.5)


# ---------------------------------------------------------------- domain_map

def classify_op(R, kind, series, reference, point, K):
    def run():
        return R.classify(series, point, K, EPSILON)

    def canon(v):
        return {"class": v.membership.value, "value": v.value}

    def check(out):
        want = reference.psi_hat(point, K)
        if abs(out["value"] - want) > ref.VALUE_TOL * (1.0 + abs(want)):
            return Outcome(False, note=f"value {out['value']!r} != reference {want!r}")
        if out["class"] not in ref.memberships(want, EPSILON):
            return Outcome(False, note=f"class {out['class']} for reference value {want!r}")
        return Outcome(True)

    def tally(out):
        decisive = out["class"] != "unknown"
        inside = reference.psi(point) < 0.0
        agree = decisive and (out["class"] == "inside") == inside
        return Tally(1, int(decisive), int(agree), int(not decisive))

    return Op(kind, run, canon, check, tally)


def build_domain_map(R, seed: int) -> Workload:
    rng = _rng(seed, "domain_map")
    K_DENSE, K_G3, K_SPARSE = 128, 48, 128
    f0, g3 = f0_series(R), g3_series(R)
    sw_dirs = directions_2d(25)
    sw, sw_ref, _, caps = realization(R, rng, 2, sw_dirs, per_row=8, cuts=2)

    lo, hi = _jittered_box(rng, [-1.5, -1.5], [0.5, 0.5], 2)
    f0_points = grid(lo, hi, (10, 10))
    lo, hi = _jittered_box(rng, [-1.2] * 3, [0.4] * 3, 3)
    g3_points = grid(lo, hi, (3, 3, 3))
    lo, hi = _jittered_box(rng, caps - 1.0, caps + 0.4, 2)
    sw_points = grid(lo, hi, (8, 8))

    ops = interleave([
        [classify_op(R, "classify/f0", f0, F0_REF, p, K_DENSE) for p in f0_points],
        [classify_op(R, "classify/g3", g3, G3_REF, p, K_G3) for p in g3_points],
        [classify_op(R, "classify/realization", sw, sw_ref, p, K_SPARSE) for p in sw_points],
    ])
    sizes = {
        "f0": {"K": K_DENSE, "points": len(f0_points)},
        "g3": {"K": K_G3, "points": len(g3_points)},
        "realization": {"K": K_SPARSE, "points": len(sw_points), "rows": len(sw_dirs), "per_row": 8},
    }
    return Workload("domain_map", ops, sizes)


# ---------------------------------------------------------------- crosscheck

def _report_canon(report, values=None):
    return {
        "h": values,
        "points": report.points,
        "decisive": report.decisive,
        "agreement": report.agreement,
        "mismatches": [[list(s), m, o] for s, m, o in report.mismatches],
    }


def check_agreement_report(out, reference, points, K):
    """Compare an agreement_grid report with reference verdicts per point."""
    expected = []
    ambiguous = False
    for s in points:
        mems = ref.memberships(reference.psi_hat(s, K), EPSILON)
        outs = ref.probe_outcomes(reference.log_blocks(s, K), K, MARGIN)
        ambiguous |= len(mems) > 1 or len(outs) > 1
        expected.append((s, mems, outs))
    if out["points"] != len(points):
        return Outcome(False, note="point count differs")
    if ambiguous:
        by_point = {tuple(s): (m, o) for s, m, o in expected}
        for s, m, o in out["mismatches"]:
            mems, outs = by_point[tuple(s)]
            if m not in mems or o not in outs:
                return Outcome(False, note=f"mismatch verdicts at {s} contradict the reference")
        return Outcome(True, note="ambiguous")
    decisive = agree = 0
    mismatches = []
    for s, (mem,), (outcome,) in expected:
        if mem == "unknown" or outcome == "inconclusive":
            continue
        decisive += 1
        if (mem, outcome) in (("inside", "converges"), ("outside", "diverges")):
            agree += 1
        else:
            mismatches.append([list(s), mem, outcome])
    agreement = agree / decisive if decisive else 1.0
    if (out["decisive"], out["agreement"], out["mismatches"]) != (decisive, agreement, mismatches):
        return Outcome(False, note=(
            f"report decisive={out['decisive']} agreement={out['agreement']} "
            f"vs reference decisive={decisive} agreement={agreement}"))
    return Outcome(True)


def _report_tally(out):
    agree = round(out["agreement"] * out["decisive"])
    return Tally(out["points"], out["decisive"], agree, out["points"] - out["decisive"])


def realize_check_op(R, kind, rows, n, directions, points, K, per_row):
    domain = hdomain(R, n, rows)
    values = [ref.support_by_vertices(rows, d) for d in directions]
    family = ref.Family(directions, values, per_row)

    def run():
        series = R.series_for_domain(domain, directions, per_row=per_row)
        return series, R.agreement_grid(series, points, K, EPSILON, MARGIN)

    def canon(res):
        series, report = res
        return _report_canon(report, list(series.rule.values))

    def check(out):
        for got, want in zip(out["h"], values):
            if abs(got - want) > ref.VALUE_TOL * (1.0 + abs(want)):
                return Outcome(False, note=f"support value {got!r} != reference {want!r}")
        return check_agreement_report(out, family, points, K)

    return Op(kind, run, canon, check, _report_tally)


def series_check_op(R, kind, series, reference, points, K):
    def run():
        return R.agreement_grid(series, points, K, EPSILON, MARGIN)

    def check(out):
        return check_agreement_report(out, reference, points, K)

    return Op(kind, run, _report_canon, check, _report_tally)


def build_crosscheck(R, seed: int) -> Workload:
    rng = _rng(seed, "crosscheck")
    K, PER_ROW = 64, 8
    N2_DOMAINS, N3_DOMAINS, F0_GRIDS = 50, 25, 25
    f0 = f0_series(R)
    n2_ops, n3_ops, f0_ops = [], [], []
    for _ in range(N2_DOMAINS):
        rows, caps = seeded_rows(rng, 2, cuts=2)
        lo, hi = _jittered_box(rng, caps - 1.0, caps + 0.4, 2)
        n2_ops.append(realize_check_op(R, "check/realization-n2", rows, 2, directions_2d(9, rng),
                                       grid(lo, hi, (3, 3)), K, PER_ROW))
    for _ in range(N3_DOMAINS):
        rows, caps = seeded_rows(rng, 3, cuts=2)
        lo, hi = _jittered_box(rng, caps - 0.8, caps + 0.3, 3)
        n3_ops.append(realize_check_op(R, "check/realization-n3", rows, 3, directions_3d(),
                                       grid(lo, hi, (2, 2, 2)), K, PER_ROW))
    for _ in range(F0_GRIDS):
        lo, hi = _jittered_box(rng, [-1.5, -1.5], [0.5, 0.5], 2, jitter=0.25)
        f0_ops.append(series_check_op(R, "check/f0", f0, F0_REF, grid(lo, hi, (3, 3)), K))
    sizes = {
        "K": K,
        "realization_n2": {"domains": N2_DOMAINS, "directions": 9, "per_row": PER_ROW, "grid": 9},
        "realization_n3": {"domains": N3_DOMAINS, "directions": 10, "per_row": PER_ROW, "grid": 8},
        "f0": {"grids": F0_GRIDS, "grid": 9},
    }
    return Workload("crosscheck", interleave([n2_ops, n3_ops, f0_ops]), sizes)


# ---------------------------------------------------------------- polytope

def lp_rows(rng, n: int, m: int, vertex_low: float = -0.6):
    """m simplex normals with offsets just above the support of a random
    4-vertex polytope: nonempty and partly redundant.  With vertex_low < 0
    some offsets are negative, which sends the LP through phase one."""
    A = rng.dirichlet(np.ones(n), size=m)
    V = rng.uniform(vertex_low, 0.6, size=(4, n))
    c = (A @ V.T).max(axis=1) + rng.uniform(0.0, 0.2, size=m)
    return A, c


def query_direction(rng, A, bounded: bool):
    """A direction inside the cone of the normals (finite support) or a random one."""
    if bounded:
        a = A[rng.choice(A.shape[0], 3, replace=False)].mean(axis=0)
    else:
        a = rng.dirichlet(np.ones(A.shape[1]))
    return tuple(float(x) for x in a / a.sum())


def _lp_check(alpha, A, c, value):
    want = ref.lp_reference(alpha, A, c)
    if want is None:
        return None
    status, ref_value = want
    if not ref.lp_values_match(value, ref_value):
        return Outcome(False, note=f"value {value!r} != reference {ref_value!r} ({status})")
    return Outcome(True)


def _as_value(v):
    return "inf" if v == math.inf else v


def support_op(R, kind, domain, A, c, alpha):
    def run():
        return R.support_value(domain, alpha)

    def canon(v):
        return {"value": _as_value(v)}

    def check(out):
        value = math.inf if out["value"] == "inf" else out["value"]
        return _lp_check(alpha, A, c, value) or Outcome(True, note="unchecked")

    def tally(out):
        return _finite_tally(out["value"], alpha, A, c)

    return Op(kind, run, canon, check, tally)


def _finite_tally(value, alpha, A, c):
    """Verdict: is the support finite?  Compared with the reference solver."""
    want = ref.lp_reference(alpha, A, c)
    if want is None:
        return Tally(1, 0, 0, 1)
    return Tally(1, 1, int((value == "inf") == (want[0] == "unbounded")), 0)


def lp_op(R, kind, domain, A, c, alpha):
    def run():
        return R.lp_maximize(alpha, domain)

    def canon(res):
        w = None if res.witness is None else [float(x) for x in res.witness]
        return {"status": res.status, "value": _as_value(res.value), "witness": w}

    def check(out):
        if out["status"] == "optimal":
            if not ref.witness_ok(alpha, A, c, out["witness"], out["value"]):
                return Outcome(False, note="witness infeasible or off the reported value")
        elif out["status"] != "unbounded":
            return Outcome(False, note=f"status {out['status']} on a nonempty region")
        value = math.inf if out["value"] == "inf" else out["value"]
        return _lp_check(alpha, A, c, value) or Outcome(True, note="witness only")

    def tally(out):
        return _finite_tally(out["value"], alpha, A, c)

    return Op(kind, run, canon, check, tally)


def closure_op(R, kind, f, alpha):
    finite = f.finite_samples()
    A = np.array([d.coords for d, _ in finite])
    c = np.array([v for _, v in finite])

    def run():
        return R.convex_closure_value(f, alpha)

    def canon(v):
        return {"value": _as_value(v)}

    def check(out):
        value = math.inf if out["value"] == "inf" else out["value"]
        return _lp_check(alpha, A, c, value) or Outcome(True, note="unchecked")

    def tally(out):
        return _finite_tally(out["value"], alpha, A, c)

    return Op(kind, run, canon, check, tally)


def reduce_op(R, kind, domain, A, c, dense):
    def run():
        return R.reduce_to_dense_subset(domain, dense)

    def canon(d):
        return {"halfspaces": [[list(h.normal.coords), h.offset] for h in d.halfspaces]}

    def check(out):
        kept = iter(out["halfspaces"])
        for alpha in dense:
            want = ref.lp_reference(alpha, A, c)
            if want is None:
                return Outcome(True, note="unchecked")
            if want[0] == "unbounded":
                continue
            got = next(kept, None)
            if got is None or not ref.lp_values_match(got[1], want[1]):
                return Outcome(False, note=f"offset for {alpha} != reference {want[1]!r}")
        if next(kept, None) is not None:
            return Outcome(False, note="kept a half-space with infinite support")
        return Outcome(True)

    return Op(kind, run, canon, check)


# Per dimension: domains as (rows, support ops, lp_maximize ops), sampled
# functions as (rows, envelope ops), and reduce ops as (count, rows, directions).
# LP cost varies between random instances of one size: the standard deviation
# is about half the mean at N=3, and at N=16 a third of it with 100 rows and
# three fifths with 300 rows.  So every domain gets only a few queries and
# each N=16 domain one.  Three groups by cost: a sixth cheap N=3 calls
# (100-row domains, 150-row envelopes), two thirds N=3 calls on 200-row
# domains, and a sixth N=8 and N=16 calls.  The median falls in the middle of
# the uniform second group.  The N=16 domains are many and small: they take
# about half of a pass, so the mean over many of them keeps the throughput
# steady, and the N=8 domains stay smaller than them, so the p95 tail falls
# inside the N=16 calls.  The 1000-row domain is at N=3, where its cost varies
# least.  reduce_to_dense_subset has a heavy tail (one instance in twenty
# costs ten times the median at 200 rows and six directions), so its domains
# are small and several.
POLYTOPE_PLAN = (
    (3, ((100, 1, 1),) * 80 + ((200, 1, 1),) * 300 + ((1000, 1, 1),), ((150, 2),) * 4,
     (4, 100, 4)),
    (8, ((150, 2, 1), (200, 2, 1), (250, 2, 1)), ((200, 1),) * 2, (2, 150, 2)),
    (16, ((120, 1, 0), (120, 0, 1)) * 70, ((200, 1),) * 3, (0, 0, 0)),
)


def build_polytope(R, seed: int) -> Workload:
    rng = _rng(seed, "polytope")
    groups = []
    for n, domains, sampled, (n_reduce, m_reduce, n_dense) in POLYTOPE_PLAN:
        ops = []
        for m, n_support, n_lp in domains:
            # Domains keep all offsets positive: phase one makes a few calls
            # many times dearer and moves the median and the mean with the
            # seed.  The sampled functions below still take that path.
            A, c = lp_rows(rng, n, m, vertex_low=0.0)
            domain = hdomain(R, n, zip(A, c))
            for i in range(n_support):
                alpha = query_direction(rng, A, bounded=i % 2 == 0)
                ops.append(support_op(R, f"support/n{n}", domain, A, c, alpha))
            for i in range(n_lp):
                alpha = query_direction(rng, A, bounded=i % 2 == 1)
                ops.append(lp_op(R, f"lp_maximize/n{n}", domain, A, c, alpha))
        for m, n_closure in sampled:
            D, vals = lp_rows(rng, n, m)
            vals[rng.random(m) < 0.05] = math.inf
            f = R.SampledFunction(tuple(map(tuple, D)), tuple(float(v) for v in vals))
            for i in range(n_closure):
                alpha = query_direction(rng, D, bounded=i % 2 == 0)
                ops.append(closure_op(R, f"envelope/n{n}", f, alpha))
        for _ in range(n_reduce):
            A, c = lp_rows(rng, n, m_reduce)
            domain = hdomain(R, n, zip(A, c))
            dense = [query_direction(rng, A, bounded=i % 2 == 0) for i in range(n_dense)]
            ops.append(reduce_op(R, f"reduce/n{n}", domain, A, c, dense))
        groups.append(ops)
    sizes = {f"n{plan[0]}": {"domain_rows": [d[0] for d in plan[1]],
                             "sampled_rows": [f[0] for f in plan[2]], "ops": len(g)}
             for plan, g in zip(POLYTOPE_PLAN, groups)}
    return Workload("polytope", interleave(groups), sizes)


# ---------------------------------------------------------------- decompose

def _save_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cli_op(R, kind, workdir, argv, count, occurring=None):
    def run():
        out = tempfile.mkdtemp(dir=workdir)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = R.cli.main(argv + ["--out", out])
        return rc, out

    def canon(res):
        rc, out = res
        try:
            manifest_path = os.path.join(out, "manifest.json")
            manifest = None
            if os.path.exists(manifest_path):
                with open(manifest_path, encoding="utf-8") as fh:
                    manifest = json.load(fh)
            files, size = {}, 0
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    data = fh.read()
                files[name] = hashlib.sha256(data).hexdigest()
                size += len(data)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"rc": rc, "manifest": manifest, "files": files, "bytes": size}

    def check(out):
        if out["rc"] != 0 or out["manifest"] is None:
            return Outcome(False, flagged=True, note=f"exit code {out['rc']}")
        manifest = out["manifest"]
        if not manifest["exactness"]["ok"]:
            return Outcome(False, flagged=True, note=f"exactness {manifest['exactness']}")
        if len(manifest["parts"]) != count:
            return Outcome(False, note=f"{len(manifest['parts'])} parts for {count} directions")
        if occurring is not None and manifest["exactness"]["occurring"] != occurring:
            return Outcome(False, note=f"occurring {manifest['exactness']['occurring']} != {occurring}")
        return Outcome(True)

    return Op(kind, run, canon, check)


def sum_check_op(R, kind, series, reference, directions, points, K):
    def run():
        dec = R.decompose_elementary(series, directions, K)
        return R.sum_domain_check([p.series for p in dec.parts], K, points, EPSILON)

    def canon(rep):
        return {
            "points": rep.points,
            "decisive": rep.decisive,
            "agreement": rep.agreement,
            "disagreements": [[list(s), a, b] for s, a, b in rep.disagreements],
            "containment_only": rep.containment_only,
        }

    def check(out):
        # Routed parts are monomial-disjoint, so the sum's indicator is the
        # maximum of the parts' and the two verdicts agree at every point.
        if out["points"] != len(points) or out["disagreements"] or out["agreement"] != 1.0:
            return Outcome(False, note="sum and conjunction verdicts disagree")
        sets = [ref.memberships(reference.psi_hat(s, K), EPSILON) for s in points]
        lo = sum(1 for m in sets if "unknown" not in m)
        hi = sum(1 for m in sets if m != {"unknown"})
        if not lo <= out["decisive"] <= hi:
            return Outcome(False, note=f"decisive {out['decisive']} outside [{lo}, {hi}]")
        return Outcome(True)

    def tally(out):
        return _report_tally(out)

    return Op(kind, run, canon, check, tally)


def build_decompose(R, seed: int, root: str) -> Workload:
    rng = _rng(seed, "decompose")
    # f0 runs in every round, the realization in the first three: the f0
    # calls are 5/8 of a pass, which keeps the median and the p75 tail inside
    # groups of similar calls instead of on the jump between them.
    K, ROUNDS, REAL_ROUNDS, REAL_DIRS = 64, 5, 3, 13
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="decompose-", dir=out_root)
    f0 = f0_series(R)
    real, real_ref, real_rows, _ = realization(R, rng, 2, directions_2d(REAL_DIRS), per_row=8, cuts=2)
    series = {"f0": (f0, F0_REF), "realization": (real, real_ref)}
    # Convergence domains: f0's is cut by |z1 z2| < 1/2 on top of the unit polydisc.
    own_rows = {"f0": [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((0.5, 0.5), -math.log(2.0) / 2)],
                "realization": real_rows}
    for name, (s, _) in series.items():
        _save_json(os.path.join(workdir, f"{name}.json"), s.to_json())

    groups = {}
    for r in range(ROUNDS):
        shift = rng.uniform(*DECOMPOSE_DOMAIN_SHIFT)
        domain_paths = {}
        for name, rows in own_rows.items():
            domain_paths[name] = os.path.join(workdir, f"domain_{name}_{r}.json")
            _save_json(domain_paths[name], hdomain(R, 2, [(a, c + shift) for a, c in rows]).to_json())
        lo, hi = _jittered_box(rng, [-1.4, -1.4], [0.4, 0.4], 2, jitter=0.2)
        points = grid(lo, hi, (3, 3))
        for count in (11, 25):
            dirs = directions_2d(count, rng)
            dirs_path = os.path.join(workdir, f"dirs{count}_{r}.json")
            _save_json(dirs_path, {"directions": [list(d) for d in dirs]})
            for name, (s, s_ref) in series.items():
                if name == "realization" and r >= REAL_ROUNDS:
                    continue
                base = ["decompose", os.path.join(workdir, f"{name}.json"),
                        "--directions", dirs_path, "-K", str(K)]
                variants = [
                    ("elementary", ["--mode", "elementary"], s_ref.occurring(K)),
                    ("simple-estimate", ["--mode", "simple", "--estimate-domain"], None),
                    ("simple-domain", ["--mode", "simple", "--domain", domain_paths[name]], None),
                ]
                for label, extra, occurring in variants:
                    kind = f"decompose-{label}/{name}"
                    groups.setdefault(kind, []).append(
                        cli_op(R, kind, workdir, base + extra, count, occurring))
                kind = f"sum_domain_check/{name}"
                groups.setdefault(kind, []).append(
                    sum_check_op(R, kind, s, s_ref, dirs, points, K))
    sizes = {"K": K, "f0_rounds": ROUNDS, "realization_rounds": REAL_ROUNDS,
             "directions": [11, 25], "realization_rows": REAL_DIRS,
             "sum_check_grid": 9}
    return Workload("decompose", interleave(list(groups.values())), sizes, workdir=workdir)


def known_defect(R, root: str) -> dict:
    """Reproduce the absorption in decompose --mode simple --domain.

    f0 with five directions at K=64 against the box with both axis caps at
    -1.0.  Runs untimed, after the timed loop; the CLI's own exactness
    manifest is returned as it stands, so a fix shows as ok true.
    """
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="known-defect-", dir=out_root)
    try:
        paths = {name: os.path.join(workdir, f"{name}.json")
                 for name in ("series", "domain", "directions")}
        _save_json(paths["series"], f0_series(R).to_json())
        _save_json(paths["domain"], hdomain(R, 2, [((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0)]).to_json())
        _save_json(paths["directions"], {"directions": [list(d) for d in directions_2d(5)]})
        argv = ["decompose", paths["series"], "--directions", paths["directions"], "-K", "64",
                "--mode", "simple", "--domain", paths["domain"]]
        case = {"case": "decompose --mode simple --domain, f0, 5 directions, K=64, axis caps -1.0"}
        try:
            rc, out = cli_op(R, "known-defect", workdir, argv, 5).run()
        except Exception as exc:  # a changed program may reject the case; report it
            return {**case, "error": f"{type(exc).__name__}: {exc}"}
        manifest_path = os.path.join(out, "manifest.json")
        exactness = None
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                exactness = json.load(fh)["exactness"]
        return {**case, "rc": rc, "exactness": exactness}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build(R, name: str, seed: int, root: str) -> Workload:
    if name == "domain_map":
        return build_domain_map(R, seed)
    if name == "crosscheck":
        return build_crosscheck(R, seed)
    if name == "polytope":
        return build_polytope(R, seed)
    if name == "decompose":
        return build_decompose(R, seed, root)
    raise ValueError(f"unknown workload {name!r}")
