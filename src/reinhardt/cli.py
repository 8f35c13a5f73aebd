"""Command-line frontend: deterministic JSON/CSV pipelines over series files.

Subcommands mirror the library: probe a point, map a membership grid to CSV,
sample the direction functional, evaluate support functions and convex
envelopes, construct a realizing series for an H-domain, decompose a series,
estimate slice radii, and cross-check the estimator against the brute-force
probe.  Runs are seedless and outputs carry the resolved configuration, so
identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 malformed input (files, flags or non-finite
numbers), 3 infeasible or empty-domain conditions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from math import inf

from .construct import InfiniteSupport, series_for_domain
from .convex import (
    EmptyDomain,
    HDomain,
    SampledFunction,
    convex_closure_value,
    support_value,
)
from .decompose import (
    NeedTwoDirections,
    SupportsOverlap,
    decompose_elementary,
    decompose_simple,
    estimate_domain,
)
from .hadamard import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_DEGREE,
    DirectionWindow,
    classify,
    direction_functional,
    slice_radius,
    tail_window,
)
from .multiindex import SimplexDirection, uniform_directions_2d
from .oracle import DEFAULT_MARGIN, agreement_grid, probe
from .series import SeriesSpec

__all__ = ["main"]

GRID_POINT_CAP = 10_000


class InputError(ValueError):
    """Bad file or flag; the message names the offender."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


_FILE_KINDS = {SeriesSpec: "series", HDomain: "H-domain", SampledFunction: "samples"}


def _load(path: str, cls):
    """Series, H-domain or samples file; any malformed content is an InputError."""
    data = _load_json(path)
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid {_FILE_KINDS[cls]} file: {exc}") from exc


def _load_directions(path: str) -> list[SimplexDirection]:
    data = _load_json(path)
    raw = data.get("directions") if isinstance(data, dict) else data
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{path} must hold a non-empty 'directions' list")
    try:
        return [SimplexDirection(tuple(d)) for d in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} holds a malformed direction: {exc}") from exc


def _direction_from_flag(values, flag: str) -> SimplexDirection:
    try:
        return SimplexDirection(tuple(values))
    except ValueError as exc:
        raise InputError(f"{flag} is not a simplex direction: {exc}") from exc


def _parse_grid(spec: str, dimension: int):
    """Axis specs lo:hi:count joined by commas; one spec replicates to all axes."""
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * dimension
    if len(parts) != dimension:
        raise InputError(
            f"--grid has {len(parts)} axes but the input has dimension {dimension}"
        )
    specs = []
    for p in parts:
        bits = p.split(":")
        if len(bits) != 3:
            raise InputError(f"--grid axis {p!r} is not lo:hi:count")
        try:
            lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise InputError(f"--grid axis {p!r}: {exc}") from exc
        if count < 1:
            raise InputError(f"--grid axis {p!r} needs count >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError(f"--grid axis {p!r} needs finite bounds")
        specs.append((lo, hi, count))
    total = math.prod(count for _, _, count in specs)
    if total > GRID_POINT_CAP:
        raise InputError(f"--grid would produce {total} points (cap {GRID_POINT_CAP})")
    axes = [
        [lo + i * (hi - lo) / (count - 1) for i in range(count)] if count > 1 else [lo]
        for lo, hi, count in specs
    ]
    return [tuple(p) for p in itertools.product(*axes)]


def _json_scalar(value: float):
    if value == inf:
        return "inf"
    if value == -inf:
        return "-inf"
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(payload, out_path):
    """Write a JSON payload (dict) or CSV lines (list) to out_path or stdout."""
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each command returns its report, which main writes to --out or stdout; the
# commands whose --out names their data (construct, decompose) report to stdout.


def _cmd_probe(args) -> dict:
    series = _load(args.series, SeriesSpec)
    verdict = probe(series, args.point, args.degree, args.margin)
    return {
        "command": "probe",
        "config": {"degree": args.degree, "margin": args.margin},
        "point": list(args.point),
        "result": {
            "class": verdict.outcome.value,
            "tail_ratio": _json_scalar(verdict.tail_ratio),
            "partial": _json_scalar(verdict.partial),
        },
    }


def _cmd_domain(args) -> list:
    series = _load(args.series, SeriesSpec)
    points = _parse_grid(args.grid, series.dimension)
    lines = [
        f"# command=domain degree={args.degree} epsilon={args.epsilon}",
        f"# series={args.series} label={series.label}",
        ",".join([f"s{i + 1}" for i in range(series.dimension)] + ["class", "psi_hat"]),
    ]
    for p in points:
        verdict = classify(series, p, args.degree, args.epsilon)
        coords = ",".join(repr(x) for x in p)
        lines.append(f"{coords},{verdict.membership.value},{verdict.value!r}")
    return lines


def _cmd_cfunc(args) -> dict:
    series = _load(args.series, SeriesSpec)
    if args.directions:
        directions = _load_directions(args.directions)
    elif args.grid_t:
        if series.dimension != 2:
            raise InputError("--grid-t applies to dimension 2 only; use --directions")
        directions = uniform_directions_2d(args.grid_t)
    else:
        raise InputError("cfunc needs --directions or --grid-t")
    lo = tail_window(args.degree).start
    values = []
    used_delta = None
    for alpha in directions:
        window = (
            DirectionWindow(alpha, args.delta, (lo, args.degree))
            if args.delta
            else DirectionWindow.default(alpha, args.degree)
        )
        used_delta = window.radius
        values.append(direction_functional(series, window))
    payload = SampledFunction(tuple(directions), tuple(values)).to_json()
    payload["config"] = {"degree": args.degree, "delta": used_delta}
    return payload


def _cmd_direction_value(args) -> dict:
    """support and envelope: a file-backed function evaluated at one direction."""
    source = _load(args.source, args.file_type)
    alpha = _direction_from_flag(args.direction, "--direction")
    return {
        "command": args.command,
        "config": {},
        "direction": list(alpha.coords),
        "value": _json_scalar(args.evaluate(source, alpha)),
    }


def _cmd_construct(args) -> dict:
    domain = _load(args.domain, HDomain)
    directions = _load_directions(args.directions)
    series = series_for_domain(domain, directions, per_row=args.per_row)
    series.save(args.target)
    return {
        "command": "construct",
        "config": {"per_row": args.per_row},
        "directions": len(directions),
        "out": args.target,
    }


def _telescoping_error(dec, max_degree: int) -> float:
    """Worst relative gap in sum(parts) == sum(g rows) + f_M/M, coefficient-wise."""
    lhs: dict = {}
    rhs: dict = {}

    def add(into, series, divisor=None):
        for j, c, _ in series.terms(range(1, max_degree + 1)):
            if c != 0:
                into[j] = into.get(j, 0.0j) + (c if divisor is None else c / divisor)

    for part in dec.parts:
        add(lhs, part.series)
    for g in dec.g_rows:
        add(rhs, g)
    add(rhs, dec.f_rows[-1], len(dec.parts))
    worst = 0.0
    for j in set(lhs) | set(rhs):
        a, b = lhs.get(j, 0.0j), rhs.get(j, 0.0j)
        scale = max(abs(a), abs(b))
        if scale:
            worst = max(worst, abs(a - b) / scale)
    return worst


def _cmd_decompose(args) -> dict:
    series = _load(args.series, SeriesSpec)
    directions = _load_directions(args.directions)
    os.makedirs(args.target, exist_ok=True)
    if args.mode == "elementary":
        dec = decompose_elementary(series, directions, args.degree)
    else:
        if args.domain:
            domain = _load(args.domain, HDomain)
        elif args.estimate_domain:
            domain = estimate_domain(series, directions, args.degree)
        else:
            raise InputError("decompose --mode simple needs --domain or --estimate-domain")
        dec = decompose_simple(series, domain, directions, args.degree)
    part_files = []
    for n, part in enumerate(dec.parts):
        name = f"part_{n:03d}.json"
        part.series.save(os.path.join(args.target, name))
        part_files.append(name)
    manifest = {
        "command": "decompose",
        "mode": args.mode,
        "config": {"degree": args.degree},
        "directions": [list(d.coords) for d in directions],
        "parts": part_files,
    }
    if args.mode == "elementary":
        routed = sum(len(p.series.rule.table) for p in dec.parts)
        occurring = sum(1 for _, c, _ in series.terms(range(1, args.degree + 1)) if c != 0)
        manifest.update(
            {
                "offsets": [_json_scalar(p.level) for p in dec.parts],
                "halfspaces": [p.halfspace.to_json() if p.halfspace else None for p in dec.parts],
                "constant": [dec.constant_part.real, dec.constant_part.imag],
                "exactness": {"routed": routed, "occurring": occurring, "ok": routed == occurring},
            }
        )
    else:
        worst = _telescoping_error(dec, args.degree)
        manifest.update(
            {
                "wedges": [
                    [p.wedge[0].to_json(), p.wedge[1].to_json()] if p.wedge else None
                    for p in dec.parts
                ],
                "halfspaces": [h.to_json() for h in dec.halfspaces],
                "exactness": {"worst_rel_err": worst, "ok": worst <= 1e-12},
            }
        )
    manifest_path = os.path.join(args.target, "manifest.json")
    _emit(manifest, manifest_path)
    return {"command": "decompose", "manifest": manifest_path}


def _cmd_slice_radius(args) -> dict:
    series = _load(args.series, SeriesSpec)
    return {
        "command": "slice-radius",
        "config": {"degree": args.degree},
        "point": list(args.point),
        "value": _json_scalar(slice_radius(series, args.point, args.degree)),
    }


def _cmd_check(args) -> dict:
    series = _load(args.series, SeriesSpec)
    points = _parse_grid(args.grid, series.dimension)
    report = agreement_grid(series, points, args.degree, args.epsilon, args.margin)
    return {
        "command": "check",
        "config": {"degree": args.degree, "epsilon": args.epsilon, "margin": args.margin},
        "points": report.points,
        "decisive": report.decisive,
        "agreement": report.agreement,
        "mismatches": [list(m) for m in report.mismatches],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinhardt",
        description="Convergence-domain geometry of multivariate power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, epsilon=False, margin=False):
        p.add_argument("--degree", "-K", type=int, default=DEFAULT_MAX_DEGREE,
                       help="truncation degree (default 64)")
        if epsilon:
            p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                           help="membership margin band (default 0.05)")
        if margin:
            p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                           help="probe ratio margin (default 0.1)")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("probe", help="brute-force convergence probe at a point")
    p.add_argument("series")
    p.add_argument("--point", type=float, nargs="+", required=True)
    add_common(p, margin=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("domain", help="membership grid as CSV")
    p.add_argument("series")
    p.add_argument("--grid", required=True, help="lo:hi:count[,lo:hi:count...]")
    add_common(p, epsilon=True)
    p.set_defaults(func=_cmd_domain)

    p = sub.add_parser("cfunc", help="sample the direction functional")
    p.add_argument("series")
    p.add_argument("--directions", help="JSON file with a 'directions' list")
    p.add_argument("--grid-t", type=int, help="N=2 only: count of uniform directions")
    p.add_argument("--delta", type=float, help="window radius (default auto)")
    add_common(p)
    p.set_defaults(func=_cmd_cfunc)

    for name, flag, file_type, evaluate, help_text in (
        ("support", "--domain", HDomain, support_value, "support function of an H-domain"),
        ("envelope", "--samples", SampledFunction, convex_closure_value,
         "convex closure of sampled values"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(flag, dest="source", required=True)
        p.add_argument("--direction", type=float, nargs="+", required=True)
        p.add_argument("--out")
        p.set_defaults(func=_cmd_direction_value, file_type=file_type, evaluate=evaluate)

    p = sub.add_parser("construct", help="realizing series for an H-domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--per-row", type=int, default=8)
    p.add_argument("--out", dest="target", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("decompose", help="elementary or wedge decomposition")
    p.add_argument("series")
    p.add_argument("--mode", choices=["elementary", "simple"], required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--domain")
    p.add_argument("--estimate-domain", action="store_true")
    p.add_argument("--degree", "-K", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--out", dest="target", required=True, help="output directory")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("slice-radius", help="radius estimate of a ray slice")
    p.add_argument("series")
    p.add_argument("--point", type=float, nargs="+", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_slice_radius)

    p = sub.add_parser("check", help="estimator vs probe agreement grid")
    p.add_argument("series")
    p.add_argument("--grid", default="-1:1:11")
    add_common(p, epsilon=True, margin=True)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), getattr(args, "out", None))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyDomain, InfiniteSupport, NeedTwoDirections, SupportsOverlap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
