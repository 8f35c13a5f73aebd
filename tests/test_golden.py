"""Byte-for-byte golden gate over the command line.

Every case runs the CLI in-process from a scratch copy of tests/golden/inputs
with relative paths (the domain header and the construct/decompose stdout
embed the paths they were given) and compares its exit code, its stdout and
every file it wrote against tests/golden/expected/<case>/.

The corpus is fixed and keeps the numerical edge cases on purpose: overflowed
coefficients and probe sums, ray powers that overflow past repeated squaring,
a probe whose blocks all lie above K/2 (a NaN tail ratio, printed as null),
check points whose radius e^s is past the float range, an empty tail window,
a slice coefficient past the float range, a sum of members that underflowed,
members that cancel beside an underflowed one, a complex member below the
smallest normal float beside an underflowed one, a tie of logs 0.0 and -0.0 in
the direction functional, N=3 routing on lattice directions, and a wedge
decomposition whose realizing rows dwarf the series
(decompose_simple_domain_f0_absorption).  Every directory under expected/ is
a case.  A change that moves these bytes must say which and why; regenerate
the expected files of the named cases, or of every case when none is named,
with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from reinhardt import SeriesSpec
from reinhardt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

CASES = {
    "probe_f0_diverges": ["probe", "f0.json", "--point", "0.8", "0.8"],
    "probe_f0_converges": ["probe", "f0.json", "--point", "0.5", "0.5"],
    "probe_g3": ["probe", "g3.json", "--point", "0.3", "0.3", "0.3", "-K", "32"],
    "probe_f0_overflow": ["probe", "f0.json", "--point", "40", "40"],
    "probe_g3_overflow_zero": ["probe", "g3.json", "--point", "1e200", "1e200", "0", "-K", "32"],
    "probe_upper_blocks_nan": ["probe", "upper_blocks.json", "--point", "0.5", "0.5", "-K", "32"],
    "probe_wedge_real_diverges": ["probe", "wedge_real.json", "--point", "0.9", "0.9"],
    "probe_wedge_real_converges": ["probe", "wedge_real.json", "--point", "0.5", "0.5"],
    "probe_sw40_twice": ["probe", "sw40_twice.json", "--point", "1e17", "1e17"],
    "domain_f0": ["domain", "f0.json", "--grid=-1:1:5"],
    "domain_g3": ["domain", "g3.json", "--grid=-1:1:3", "-K", "32"],
    "domain_wedge_real": ["domain", "wedge_real.json", "--grid=-1:1:5"],
    "domain_sw40": ["domain", "sw40.json", "--grid=0:50:2"],
    "domain_sum_underflow": ["domain", "sw40_twice.json", "--grid=0:50:2"],
    "domain_sum_cancel_underflow": ["domain", "sum_cancel.json", "--grid=0:50:2"],
    "domain_sum_complex_underflow": [
        "domain", "sum_complex_underflow.json", "--grid=-1:1:3", "-K", "32",
    ],
    "domain_g3_k48": ["domain", "g3.json", "--grid=-1:0.4:3", "-K", "48"],
    "domain_poly_empty_window": ["domain", "poly.json", "--grid=-1:1:3"],
    "check_f0": ["check", "f0.json", "--grid=-1:1:3"],
    "check_g3": ["check", "g3.json", "--grid=-1:1:3", "-K", "32"],
    "check_wedge_real": ["check", "wedge_real.json", "--grid=-1:1:3", "--epsilon", "0.1"],
    "check_f0_radius_overflow": ["check", "f0.json", "--grid=-1:800:3"],
    "cfunc_f0": ["cfunc", "f0.json", "--grid-t", "21"],
    "cfunc_wedge_real": ["cfunc", "wedge_real.json", "--grid-t", "11", "--delta", "0.05"],
    "cfunc_zero_tie": [
        "cfunc", "zero_tie.json", "--directions", "dirs_axis.json", "--delta", "0.5",
    ],
    "support_wedge": ["support", "--domain", "wedge.json", "--direction", "0.3", "0.7"],
    "support_triangle": ["support", "--domain", "triangle.json", "--direction", "0.37", "0.63"],
    "envelope": ["envelope", "--samples", "samples.json", "--direction", "0.25", "0.75"],
    "construct_wedge": [
        "construct", "--domain", "wedge.json", "--directions", "dirs25.json",
        "--per-row", "8", "--out", "out/wedge_real.json",
    ],
    "construct_triangle": [
        "construct", "--domain", "triangle.json", "--directions", "dirs11.json",
        "--per-row", "4", "--out", "out/triangle_real.json",
    ],
    "slice_radius_f0": ["slice-radius", "f0.json", "--point", "1.0", "0.5"],
    "slice_radius_wedge_real": ["slice-radius", "wedge_real.json", "--point", "1.0", "0.5"],
    "slice_radius_overflow": ["slice-radius", "big.json", "--point", "1", "1", "-K", "1"],
    "decompose_elementary_f0": [
        "decompose", "f0.json", "--mode", "elementary", "--directions", "dirs11.json",
        "-K", "32", "--out", "out/parts",
    ],
    "decompose_elementary_overflow": [
        "decompose", "overflow.json", "--mode", "elementary", "--directions", "dirs5.json",
        "-K", "8", "--out", "out/parts",
    ],
    "decompose_elementary_ray_overflow": [
        "decompose", "ray_overflow.json", "--mode", "elementary", "--directions", "dirs5.json",
        "-K", "128", "--out", "out/parts",
    ],
    "decompose_elementary_g3_lattice": [
        "decompose", "g3.json", "--mode", "elementary", "--directions", "dirs_n3_lattice.json",
        "-K", "16", "--out", "out/parts",
    ],
    "decompose_simple_estimate_f0": [
        "decompose", "f0.json", "--mode", "simple", "--directions", "dirs11.json",
        "--estimate-domain", "-K", "32", "--out", "out/parts",
    ],
    "decompose_simple_domain_wedge_real": [
        "decompose", "wedge_real.json", "--mode", "simple", "--directions", "dirs5.json",
        "--domain", "triangle.json", "-K", "32", "--out", "out/parts",
    ],
    "decompose_simple_domain_f0_absorption": [
        "decompose", "f0.json", "--mode", "simple", "--directions", "dirs5.json",
        "--domain", "box_caps_minus1.json", "-K", "64", "--out", "out/parts",
    ],
}


def run_case(argv) -> dict:
    """Exit code, stdout and written files of one in-process CLI run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(INPUTS, work, dirs_exist_ok=True)
        os.chdir(work)
        out = Path("out")
        out.mkdir()
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            produced = {
                "exit_code": f"{code}\n".encode(),
                "stdout": stdout.getvalue().encode("utf-8"),
            }
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    produced[path.as_posix()] = path.read_bytes()
        finally:
            os.chdir(cwd)
    return produced


def read_expected(name: str) -> dict:
    root = EXPECTED / name
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    produced = run_case(CASES[name])
    expected = read_expected(name)
    assert sorted(produced) == sorted(expected)
    for key in expected:
        assert produced[key] == expected[key], f"{name}: {key} differs"


def test_every_expected_directory_is_a_case():
    # a directory no case names would never be compared
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)


def test_every_expected_part_file_loads_and_holds_no_nan():
    parts = sorted(EXPECTED.rglob("part_*.json"))
    assert parts
    for path in parts:
        assert "NaN" not in path.read_text(), path
        SeriesSpec.load(path)


def regenerate(names) -> None:
    """Rewrite the expected files of the named cases; all of them when none is named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    if not names:
        shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in names or sorted(CASES):
        shutil.rmtree(EXPECTED / name, ignore_errors=True)
        for key, data in run_case(CASES[name]).items():
            target = EXPECTED / name / key
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
