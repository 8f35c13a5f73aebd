"""Command-line frontend: deterministic JSON/CSV pipelines over series files.

Subcommands mirror the library: probe a point, map a membership grid to CSV,
sample the direction functional, evaluate support functions and convex
envelopes, construct a realizing series for an H-domain, decompose a series,
estimate slice radii, and cross-check the estimator against the brute-force
probe.  Runs are seedless and outputs carry the resolved configuration, so
identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 malformed input (files, flags or non-finite
numbers), an output path that cannot be written or an LP that overflowed
(naming the file of its region) or hit its iteration cap, 3 empty-domain
conditions.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from math import inf

from .construct import InfiniteSupport, band_radius, series_for_domain
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
    classify,
    direction_functional,
    slice_radius,
)
from .jsonfile import json_text
from .multiindex import Directions, SimplexDirection, uniform_directions_2d
from .oracle import DEFAULT_MARGIN, agreement_grid, check_probe_settings, probe
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


def _load_directions(path: str) -> Directions:
    data = _load_json(path)
    raw = data.get("directions") if isinstance(data, dict) else data
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{path} must hold a non-empty 'directions' list")
    try:
        return Directions(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid directions file: {exc}") from exc


def _same_dimension(path: str, dimension: int, other_path: str, other_dimension: int) -> None:
    """Two loaded files of one dimension, checked before any scan or LP reads them."""
    if dimension != other_dimension:
        raise InputError(
            f"{path} has dimension {dimension}, but {other_path} has dimension {other_dimension}"
        )


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
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(payload, out_path):
    """Write a JSON payload (dict) or CSV lines (list) to out_path or stdout."""
    if isinstance(payload, dict):
        text = json_text(payload)
    else:
        text = "\n".join(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each command returns its report, which main writes to --out or stdout; the
# commands whose --out names their data (construct, decompose) report to stdout.


def _report(args, **fields) -> dict:
    """A command's JSON report: its name, the config flags its subparser declared, then fields."""
    config = {name: getattr(args, name) for name in args.config}
    return {"command": args.command, "config": config, **fields}


def _cmd_probe(args) -> dict:
    series = _load(args.series, SeriesSpec)
    verdict = probe(series, args.point, args.degree, args.margin)
    return _report(
        args,
        point=list(args.point),
        result={
            "class": verdict.outcome.value,
            "tail_ratio": _json_scalar(verdict.tail_ratio),
            "partial": _json_scalar(verdict.partial),
        },
    )


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
        _same_dimension(args.directions, directions.dimension, args.series, series.dimension)
    elif args.grid_t:
        if series.dimension != 2:
            raise InputError("--grid-t applies to dimension 2 only; use --directions")
        directions = uniform_directions_2d(args.grid_t)
    else:
        raise InputError("cfunc needs --directions or --grid-t")
    delta = args.delta
    if delta is None:
        delta = band_radius(series.dimension, math.sqrt(args.degree))
    values = [direction_functional(series, alpha, delta, args.degree) for alpha in directions]
    payload = SampledFunction(directions, tuple(values)).to_json()
    payload["config"] = {"degree": args.degree, "delta": delta}
    return payload


def _cmd_direction_value(args) -> dict:
    """support and envelope: a file-backed function evaluated at one direction."""
    source = _load(args.source, args.file_type)
    try:
        alpha = SimplexDirection(tuple(args.direction))
    except ValueError as exc:
        raise InputError(f"--direction is not a simplex direction: {exc}") from exc
    _same_dimension("--direction", alpha.dimension, args.source, source.dimension)
    return _report(
        args, direction=list(alpha.coords), value=_json_scalar(args.evaluate(source, alpha))
    )


def _cmd_construct(args) -> dict:
    domain = _load(args.domain, HDomain)
    directions = _load_directions(args.directions)
    _same_dimension(args.directions, directions.dimension, args.domain, domain.dimension)
    series = series_for_domain(domain, directions, per_row=args.per_row)
    series.save(args.target)
    return _report(args, directions=len(directions), out=args.target)


def _cmd_decompose(args) -> dict:
    series = _load(args.series, SeriesSpec)
    directions = _load_directions(args.directions)
    _same_dimension(args.directions, directions.dimension, args.series, series.dimension)
    if args.mode == "elementary":
        dec = decompose_elementary(series, directions, args.degree)
    else:
        if args.domain:
            domain = _load(args.domain, HDomain)
            _same_dimension(args.domain, domain.dimension, args.series, series.dimension)
        elif args.estimate_domain:
            domain = estimate_domain(series, directions, args.degree)
        else:
            raise InputError("decompose --mode simple needs --domain or --estimate-domain")
        dec = decompose_simple(series, domain, directions, args.degree)
    part_files = []
    os.makedirs(args.target, exist_ok=True)  # not earlier: a run that fails leaves no directory
    for n, part in enumerate(dec.parts):
        name = f"part_{n:03d}.json"
        part.series.save(os.path.join(args.target, name))
        part_files.append(name)
    manifest = _report(
        args,
        mode=args.mode,
        directions=[list(d.coords) for d in directions],
        parts=part_files,
        exactness=dec.exactness(),
    )
    if args.mode == "elementary":
        manifest.update(
            offsets=[_json_scalar(p.level) for p in dec.parts],
            halfspaces=[p.halfspace.to_json() if p.halfspace else None for p in dec.parts],
            constant=[dec.constant_part.real, dec.constant_part.imag],
        )
    else:
        manifest.update(
            wedges=[
                [p.wedge[0].to_json(), p.wedge[1].to_json()] if p.wedge else None
                for p in dec.parts
            ],
            halfspaces=[h.to_json() for h in dec.halfspaces],
        )
    manifest_path = os.path.join(args.target, "manifest.json")
    _emit(manifest, manifest_path)
    return {"command": "decompose", "manifest": manifest_path}


def _cmd_slice_radius(args) -> dict:
    series = _load(args.series, SeriesSpec)
    value = slice_radius(series, args.point, args.degree)
    return _report(args, point=list(args.point), value=_json_scalar(value))


def _cmd_check(args) -> dict:
    series = _load(args.series, SeriesSpec)
    points = _parse_grid(args.grid, series.dimension)
    report = agreement_grid(series, points, args.degree, args.epsilon, args.margin)
    return _report(
        args,
        points=report.points,
        decisive=report.decisive,
        agreement=report.agreement,
        mismatches=[list(m) for m in report.mismatches],
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing mutates neither it nor its defaults."""
    parser = argparse.ArgumentParser(
        prog="reinhardt",
        description="Convergence-domain geometry of multivariate power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, epsilon=False, margin=False):
        """func, --degree, --epsilon and --margin as asked, and --out; all but --out are config."""
        config = ["degree"]
        p.add_argument("--degree", "-K", type=int, default=DEFAULT_MAX_DEGREE,
                       help="truncation degree (default 64)")
        if epsilon:
            config.append("epsilon")
            p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                           help="membership margin band (default 0.05)")
        if margin:
            config.append("margin")
            p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                           help="probe ratio margin (default 0.1)")
        p.add_argument("--out", help="output path (default stdout)")
        p.set_defaults(func=func, config=tuple(config))

    p = sub.add_parser("probe", help="brute-force convergence probe at a point")
    p.add_argument("series")
    p.add_argument("--point", type=float, nargs="+", required=True)
    add_common(p, _cmd_probe, margin=True)

    p = sub.add_parser("domain", help="membership grid as CSV")
    p.add_argument("series")
    p.add_argument("--grid", required=True, help="lo:hi:count[,lo:hi:count...]")
    add_common(p, _cmd_domain, epsilon=True)

    p = sub.add_parser("cfunc", help="sample the direction functional")
    p.add_argument("series")
    p.add_argument("--directions", help="JSON file with a 'directions' list")
    p.add_argument("--grid-t", type=int, help="N=2 only: count of uniform directions")
    p.add_argument("--delta", type=float, help="window radius (default: 2N/sqrt(K) in [0.02, 2])")
    add_common(p, _cmd_cfunc)

    for name, flag, file_type, evaluate, help_text in (
        ("support", "--domain", HDomain, support_value, "support function of an H-domain"),
        ("envelope", "--samples", SampledFunction, convex_closure_value,
         "convex closure of sampled values"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(flag, dest="source", required=True)
        p.add_argument("--direction", type=float, nargs="+", required=True)
        p.add_argument("--out")
        p.set_defaults(func=_cmd_direction_value, file_type=file_type, evaluate=evaluate, config=())

    p = sub.add_parser("construct", help="realizing series for an H-domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--per-row", type=int, default=8)
    p.add_argument("--out", dest="target", required=True)
    p.set_defaults(func=_cmd_construct, config=("per_row",))

    p = sub.add_parser("decompose", help="elementary or wedge decomposition")
    p.add_argument("series")
    p.add_argument("--mode", choices=["elementary", "simple"], required=True)
    p.add_argument("--directions", required=True)
    given = p.add_mutually_exclusive_group()
    given.add_argument("--domain")
    given.add_argument("--estimate-domain", action="store_true")
    p.add_argument("--degree", "-K", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--out", dest="target", required=True, help="output directory")
    p.set_defaults(func=_cmd_decompose, config=("degree",))

    p = sub.add_parser("slice-radius", help="radius estimate of a ray slice")
    p.add_argument("series")
    p.add_argument("--point", type=float, nargs="+", required=True)
    add_common(p, _cmd_slice_radius)

    p = sub.add_parser("check", help="estimator vs probe agreement grid")
    p.add_argument("series")
    p.add_argument("--grid", default="-1:1:11")
    add_common(p, _cmd_check, epsilon=True, margin=True)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "degree", 1) < 1:  # before any window radius is computed from K
        parser.error("max_degree must be >= 1")
    if args.command in ("probe", "check"):  # before the series is read
        try:
            check_probe_settings(args.degree, args.margin)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        _emit(args.func(args), getattr(args, "out", None))
    except (EmptyDomain, InfiniteSupport, NeedTwoDirections, SupportsOverlap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:  # only an LP's tableau raises it
        region = getattr(args, "source", None) or getattr(args, "domain", None) or args.series
        print(f"error: an LP over {region} overflowed: {exc}", file=sys.stderr)
        return 2
    # InputError; an unwritable output path; an LP that hit its iteration cap
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
