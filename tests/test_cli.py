import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from reinhardt import FullGeometric, RayGeometric, SeriesSpec
from reinhardt.cli import main
from conftest import LN2


@pytest.fixture()
def files(tmp_path, full_geom, f_zero, wedge_domain):
    fg = tmp_path / "full_geom.json"
    full_geom.save(fg)
    f0 = tmp_path / "f0.json"
    f_zero.save(f0)
    wedge = tmp_path / "wedge.json"
    wedge_domain.save(wedge)
    dirs = tmp_path / "dirs.json"
    dirs.write_text(
        json.dumps({"directions": [[i / 10, 1 - i / 10] for i in range(11)]})
    )
    return {"full_geom": str(fg), "f0": str(f0), "wedge": str(wedge), "dirs": str(dirs)}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_probe_json(capsys, files):
    code, out = run(capsys, ["probe", files["full_geom"], "--point", "0.5", "0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["class"] == "converges"
    assert data["config"] == {"degree": 64, "margin": 0.1}
    assert abs(data["result"]["partial"] - 4.0) < 1e-6


def test_domain_csv_grid(capsys, files):
    code, out = run(
        capsys,
        ["domain", files["full_geom"], "--grid=-1:1:3,-1:1:3"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("degree=64" in h and "epsilon=0.05" in h for h in header)
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 9
    # row-major order: first axis slowest
    assert rows[0].startswith("-1.0,-1.0,inside")
    first = rows[0].split(",")
    assert float(first[3]) == pytest.approx(-1.0, abs=1e-12)


def test_domain_deterministic(capsys, files):
    _, out1 = run(capsys, ["domain", files["f0"], "--grid=-1:1:5"])
    _, out2 = run(capsys, ["domain", files["f0"], "--grid=-1:1:5"])
    assert out1 == out2


def test_cfunc_grid_t(capsys, files):
    code, out = run(
        capsys,
        ["cfunc", files["f0"], "--grid-t", "21", "--delta", "0.02"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["directions"]) == 21
    assert data["config"]["delta"] == 0.02
    mid = data["directions"].index([0.5, 0.5])
    assert abs(data["values"][mid] + LN2 / 2) < 0.02
    off = data["directions"].index([0.2, 0.8])
    assert data["values"][off] == 0.0


def test_cfunc_zero_delta_exits_2(capsys, files):
    code = main(["cfunc", files["f0"], "--grid-t", "5", "--delta", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "window radius must lie in (0, 2]" in captured.err


def test_cfunc_default_radius_is_at_most_2(tmp_path, capsys):
    # 2N/sqrt(K) = 2.25 for N = 9 at the default K = 64; the default is capped at 2
    series = tmp_path / "ray9.json"
    SeriesSpec(9, RayGeometric((1,) * 9, 0.5)).save(series)
    dirs = tmp_path / "dirs9.json"
    dirs.write_text(json.dumps({"directions": [[1 / 9] * 9]}))
    code, out = run(capsys, ["cfunc", str(series), "--directions", str(dirs)])
    assert code == 0
    assert json.loads(out)["config"] == {"degree": 64, "delta": 2.0}


def test_estimated_domain_radius_at_a_low_truncation_is_at_most_2(tmp_path, capsys):
    # estimate_domain's radius 2N/K = 3 for N = 3 at K = 2; it is capped at 2
    code, _ = run(capsys, [
        "decompose", str(GOLDEN_INPUTS / "g3.json"), "--mode", "simple", "--estimate-domain",
        "--directions", str(GOLDEN_INPUTS / "dirs_n3_lattice.json"), "-K", "2",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_support_scalar(capsys, files):
    code, out = run(
        capsys,
        ["support", "--domain", files["wedge"], "--direction", "0.3", "0.7"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-0.3 * LN2, abs=1e-9)


def test_envelope_scalar(tmp_path, capsys, files):
    samples = tmp_path / "samples.json"
    samples.write_text(
        json.dumps(
            {
                "directions": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]],
                "values": [0.0, -LN2 / 2, 0.0],
            }
        )
    )
    code, out = run(
        capsys,
        ["envelope", "--samples", str(samples), "--direction", "0.25", "0.75"],
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-LN2 / 4, abs=1e-9)


def test_construct_then_check_round_trip(tmp_path, capsys, files):
    out_spec = tmp_path / "constructed.json"
    code, _ = run(
        capsys,
        [
            "construct",
            "--domain", files["wedge"],
            "--directions", files["dirs"],
            "--per-row", "8",
            "--out", str(out_spec),
        ],
    )
    assert code == 0
    series = SeriesSpec.load(out_spec)
    assert series.dimension == 2
    code, out = run(
        capsys,
        ["check", str(out_spec), "--grid=-1:1:11", "--epsilon", "0.1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["decisive"] > 0
    assert report["agreement"] >= 0.95


def test_decompose_elementary_writes_manifest(tmp_path, capsys, files):
    out_dir = tmp_path / "parts"
    code, _ = run(
        capsys,
        [
            "decompose", files["f0"],
            "--mode", "elementary",
            "--directions", files["dirs"],
            "--out", str(out_dir),
        ],
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exactness"]["ok"] is True
    assert len(manifest["parts"]) == 11
    assert all((out_dir / name).exists() for name in manifest["parts"])
    mid = manifest["directions"].index([0.5, 0.5])
    assert abs(manifest["offsets"][mid] - LN2 / 2) < 0.02


def test_decompose_simple_writes_wedges(tmp_path, capsys, files):
    out_dir = tmp_path / "simple"
    code, _ = run(
        capsys,
        [
            "decompose", files["full_geom"],
            "--mode", "simple",
            "--directions", files["dirs"],
            "--domain", files["wedge"],
            "--out", str(out_dir),
        ],
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["wedges"][0] is None
    assert all(w is not None for w in manifest["wedges"][1:])
    assert manifest["exactness"]["ok"] is True


def test_decompose_simple_estimate_domain(tmp_path, capsys, files):
    out_dir = tmp_path / "simple_est"
    code, _ = run(
        capsys,
        [
            "decompose", files["f0"],
            "--mode", "simple",
            "--directions", files["dirs"],
            "--estimate-domain",
            "--out", str(out_dir),
        ],
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exactness"]["ok"] is True
    mid = manifest["directions"].index([0.5, 0.5])
    # estimated supporting level at the diagonal is the wedge face -ln2/2
    assert abs(manifest["halfspaces"][mid]["offset"] + LN2 / 2) < 0.02


def test_slice_radius_cli(capsys, files):
    code, out = run(
        capsys, ["slice-radius", files["full_geom"], "--point", "0.5", "0.5"]
    )
    assert code == 0
    value = json.loads(out)["value"]
    peak = max(((k + 1) / 2**k) ** (1.0 / k) for k in range(32, 65))
    assert value == pytest.approx(1.0 / peak, rel=1e-9)


def test_finite_terms_whose_sum_overflows_read_divergence(capsys, files):
    # at (1e154, 1e154) every term is finite, and the degree-2 block is past the range
    code, out = run(capsys, ["probe", files["full_geom"], "--point", "1e154", "1e154", "-K", "32"])
    assert code == 0
    assert json.loads(out)["result"] == {
        "class": "diverges", "tail_ratio": "inf", "partial": "inf"
    }
    # exp(354.5) is about 1e154: one such grid point no longer aborts the run
    code, out = run(capsys, ["check", files["full_geom"], "--grid=354.5:354.6:2", "-K", "32"])
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 4 and report["decisive"] == 4 and report["agreement"] == 1.0


def test_a_coefficient_whose_magnitude_overflows_is_read(tmp_path, capsys):
    from reinhardt import ExplicitTable

    big = tmp_path / "big.json"
    SeriesSpec(2, ExplicitTable({(1, 0): complex(1.7e308, 1.7e308)})).save(big)
    code, out = run(capsys, ["domain", str(big), "--grid=-1:1:2"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 4


def test_a_slice_coefficient_whose_magnitude_overflows_gives_radius_zero(tmp_path, capsys):
    from reinhardt import ExplicitTable

    big = tmp_path / "big.json"
    SeriesSpec(2, ExplicitTable({(1, 0): complex(1.7e308, 1.7e308)})).save(big)
    code = main(["slice-radius", str(big), "--point", "1", "1", "-K", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["value"] == 0.0


def test_members_that_cancel_beside_an_underflowed_member_read_outside(tmp_path, capsys):
    from reinhardt import ExplicitTable, SumRule, SupportWeighted

    big = complex(1.7e308, 1.7e308)
    path = tmp_path / "sum_cancel.json"
    slot = SupportWeighted([(0.5, 0.5)], [40.0], per_row=1, base=40)
    rule = SumRule([ExplicitTable({(20, 20): big}), ExplicitTable({(20, 20): -big}), slot])
    SeriesSpec(2, rule).save(path)
    code, out = run(capsys, ["domain", str(path), "--grid=0:50:2"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert rows[0] == "0.0,0.0,inside,-40.0" and rows[-1] == "50.0,50.0,outside,10.0"


def test_a_check_point_whose_radius_overflows_is_probed_as_inconclusive(capsys, files):
    # e^800 is past the float range: those points count, but only the estimator decides them
    code, out = run(capsys, ["check", files["f0"], "--grid=-1:800:3"])
    assert code == 0
    data = json.loads(out)
    assert (data["points"], data["decisive"], data["mismatches"]) == (9, 4, [])


def test_input_errors_exit_2(tmp_path, capsys, files):
    missing = str(tmp_path / "nope.json")
    code = main(["probe", missing, "--point", "0.5", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope.json" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["probe", str(bad), "--point", "0.5", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err

    code = main(["domain", files["full_geom"], "--grid=-1:1:200,-1:1:200"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--grid" in err


def test_grid_cap_is_checked_before_any_axis_is_built(capsys, files):
    # 10^9 points per axis would exhaust memory if the axes were built first
    code = main(["domain", files["full_geom"], "--grid=0:1:1000000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{10**18} points" in err


def test_infinite_support_exits_3(tmp_path, capsys, files):
    from reinhardt import HalfSpace, HDomain

    slab = tmp_path / "slab.json"
    HDomain(2, (HalfSpace((1.0, 0.0), -1.0),)).save(slab)
    dirs = tmp_path / "axis.json"
    dirs.write_text(json.dumps({"directions": [[0.0, 1.0]]}))
    code = main(
        [
            "construct",
            "--domain", str(slab),
            "--directions", str(dirs),
            "--out", str(tmp_path / "x.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "infinite support" in err


def test_probe_deterministic_bytes(capsys, files):
    _, a = run(capsys, ["probe", files["f0"], "--point", "0.8", "0.8"])
    _, b = run(capsys, ["probe", files["f0"], "--point", "0.8", "0.8"])
    assert a == b
    assert json.loads(a)["result"]["class"] == "diverges"


@pytest.mark.parametrize(
    "argv",
    [
        ["domain", "f0", "--grid=nan:nan:2"],
        ["domain", "f0", "--grid=-1:1:3", "--epsilon", "nan"],
        ["probe", "f0", "--point", "nan", "0.5"],
        ["probe", "f0", "--point", "inf", "0.5"],
        ["check", "f0", "--grid=0:inf:2"],
    ],
)
def test_non_finite_numbers_exit_2(capsys, files, argv):
    argv = [files[a] if a in files else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "rule",
    [
        {"kind": "ray_geometric", "direction": [1, 1], "ratio": [math.nan, 0.0]},
        {"kind": "explicit_table", "indices": [[1, 0], [4, 4]], "values": [1.0, math.nan]},
    ],
)
def test_nan_coefficients_exit_2(capsys, tmp_path, rule):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dimension": 2, "rule": rule}))  # json writes NaN
    code = main(["domain", str(path), "--grid=0:0:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "NaN" in captured.err


def test_sum_of_opposite_infinities_exits_2(capsys, tmp_path):
    member = {"kind": "explicit_table", "indices": [[4, 4]]}
    rule = {"kind": "sum", "members": [{**member, "values": [[math.inf, 0.0]]},
                                       {**member, "values": [[-math.inf, 0.0]]}]}
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps({"dimension": 2, "rule": rule}))  # json writes Infinity
    # (4, 4) lies in the tail window at K = 8 and below it at K = 18
    for argv in (["domain", str(path), "--grid=0:0:1"], ["cfunc", str(path), "--grid-t", "3"]):
        for degree in ("8", "18"):
            code = main(argv + ["-K", degree])
            captured = capsys.readouterr()
            assert code == 2, (argv, degree)
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "index (4, 4)" in captured.err


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize(
    "argv",
    [
        ["slice-radius", "f0", "--point", "1", "0.5", "-K", "0"],
        ["slice-radius", "f0", "--point", "1", "0.5", "-K", "-3"],
        ["cfunc", "f0", "--grid-t", "3", "-K", "0"],
        ["cfunc", "f0", "--grid-t", "3", "-K", "-4"],
        ["decompose", "f0", "--mode", "simple", "--directions", "dirs", "--estimate-domain",
         "-K", "0", "--out", "out"],
    ],
)
def test_truncation_below_one_exits_2(tmp_path, capsys, files, argv):
    argv = [files.get(a, str(tmp_path / a) if a == "out" else a) for a in argv]
    # the -K value is refused before any radius is computed from it
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: max_degree must be >= 1\n")
    assert "Traceback" not in captured.err


PROBE_SETTINGS = [
    (["-K", "16"], "max_degree must be >= 32"),
    (["-K", "31", "--margin", "0.7"], "max_degree must be >= 32"),
    (["--margin", "0.5"], "margin must lie in (0, 0.5)"),
    (["-K", "32", "--margin", "0"], "margin must lie in (0, 0.5)"),
    (["--margin", "nan"], "margin must lie in (0, 0.5)"),
]


def refused_before_reading(capsys, argv, message):
    # the series file does not exist, so a refusal after reading it would name the file
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("settings, message", PROBE_SETTINGS)
def test_probe_refuses_its_settings_before_reading_the_series(tmp_path, capsys, settings, message):
    argv = ["probe", str(tmp_path / "absent.json"), "--point", "0.5", "0.5", *settings]
    refused_before_reading(capsys, argv, message)


@pytest.mark.parametrize("settings, message", PROBE_SETTINGS)
def test_check_refuses_its_settings_before_reading_the_series(tmp_path, capsys, settings, message):
    argv = ["check", str(tmp_path / "absent.json"), "--grid=-1:1:3", *settings]
    refused_before_reading(capsys, argv, message)


def test_an_overflowed_window_reports_an_empty_region(tmp_path, capsys):
    # the (3, 3) coefficient overflows, so a window holding it has log +inf
    series, dirs = str(GOLDEN_INPUTS / "overflow.json"), str(GOLDEN_INPUTS / "dirs5.json")
    for argv, direction in (
        (["cfunc", series, "--directions", dirs], (0.0, 1.0)),
        (["decompose", series, "--mode", "simple", "--directions", dirs, "--estimate-domain",
          "--out", str(tmp_path / "parts")], (0.25, 0.75)),
    ):
        code = main(argv + ["-K", "8"])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == ""
        assert captured.err == (
            f"error: the sample at {direction} is -inf: the region is empty\n"
        )

    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"directions": [[0.0, 1.0], [1.0, 0.0]],
                                   "values": [0.0, "-inf"]}))
    code = main(["envelope", "--samples", str(samples), "--direction", "0.5", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {samples} is not a valid samples file: ")


def test_construct_per_row_0_names_only_per_row(tmp_path, capsys, files):
    code = main(["construct", "--domain", files["wedge"], "--directions", files["dirs"],
                 "--per-row", "0", "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: per_row must be >= 1\n"


def test_failed_decompose_runs_leave_no_directory(tmp_path, capsys, files):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"directions": [[0.5, 0.5]]}))
    dirs3 = tmp_path / "dirs3.json"
    dirs3.write_text(json.dumps({"directions": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}))
    overflow, dirs5 = str(GOLDEN_INPUTS / "overflow.json"), str(GOLDEN_INPUTS / "dirs5.json")
    simple = ["--mode", "simple", "--directions"]
    for code, argv in (
        (2, [files["f0"], *simple, files["dirs"]]),  # neither --domain nor --estimate-domain
        (2, [files["f0"], *simple, files["dirs"], "--domain", str(tmp_path / "nope.json")]),
        (2, [files["f0"], "--mode", "elementary", "--directions", str(dirs3)]),
        (3, [files["f0"], *simple, str(one), "--estimate-domain"]),
        (3, [overflow, *simple, dirs5, "--estimate-domain", "-K", "8"]),
    ):
        out = tmp_path / "parts"
        assert main(["decompose", *argv, "--out", str(out)]) == code, argv
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists(), argv


def test_one_parser_serves_every_call(capsys, files):
    from reinhardt.cli import _parser

    configs = []
    for argv in (["probe", files["f0"], "--point", "0.5", "0.5", "-K", "40"],
                 ["check", files["f0"], "--grid=-1:1:2"],
                 ["probe", files["f0"], "--point", "0.5", "0.5"]):
        configs.append(json.loads(run(capsys, argv)[1])["config"])
    # the defaults a parse sets are not carried into the next parse
    assert configs == [{"degree": 40, "margin": 0.1},
                       {"degree": 64, "epsilon": 0.05, "margin": 0.1},
                       {"degree": 64, "margin": 0.1}]
    assert _parser.cache_info().misses == 1 and _parser() is _parser()


@pytest.mark.parametrize(
    "argv, out, error",
    [
        (["decompose", "f0", "--mode", "elementary", "--directions", "dirs"], "afile",
         "File exists"),
        (["construct", "--domain", "wedge", "--directions", "dirs"], "nodir/x.json",
         "No such file or directory"),
        (["domain", "f0", "--grid=-1:1:2"], "nodir/x.csv", "No such file or directory"),
    ],
)
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, files, argv, out, error):
    # an existing file where decompose makes its directory, or a missing parent directory
    (tmp_path / "afile").write_text("kept\n")
    code = main([files.get(a, a) for a in argv] + ["--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and error in captured.err
    assert "Traceback" not in captured.err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert not (tmp_path / "nodir").exists()


def test_decompose_takes_one_domain_source(tmp_path, capsys, files):
    with pytest.raises(SystemExit) as exit_:
        main(["decompose", files["f0"], "--mode", "simple", "--directions", files["dirs"],
              "--domain", files["wedge"], "--estimate-domain", "--out", str(tmp_path / "parts")])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "parts").exists()


BAD_DIRECTION_FILES = {
    "within_1e-10": ([[0.0, 1.0], [0.5, 0.5], [0.5 + 4e-11, 0.5 - 4e-11]],
                     "directions must be pairwise distinct"),
    "mixed_dimensions": ([[0.0, 1.0], [0.2, 0.3, 0.5]], "directions have mixed dimensions"),
    "off_the_simplex": ([[0.0, 1.0], [0.5, 0.6]],
                        "simplex coordinates must sum to 1, got (0.5, 0.6)"),
}


@pytest.mark.parametrize("bad", sorted(BAD_DIRECTION_FILES))
@pytest.mark.parametrize("command", ["cfunc", "construct", "decompose"])
def test_an_invalid_directions_file_is_refused_when_it_loads(
    tmp_path, capsys, monkeypatch, files, command, bad
):
    import reinhardt.cli
    import reinhardt.construct
    import reinhardt.decompose

    def refuse(*args, **kwargs):
        raise AssertionError("a series was scanned or an LP ran before the directions loaded")

    for module in (reinhardt.cli, reinhardt.decompose):
        monkeypatch.setattr(module, "direction_functional", refuse)
    monkeypatch.setattr(reinhardt.construct, "support_value", refuse)
    monkeypatch.setattr(SeriesSpec, "coefficient_table", refuse)
    directions, message = BAD_DIRECTION_FILES[bad]
    path = tmp_path / f"{bad}.json"
    path.write_text(json.dumps({"directions": directions}))
    out = tmp_path / "out"
    argv = {
        "cfunc": ["cfunc", files["f0"], "--out", str(out)],
        "construct": ["construct", "--domain", files["wedge"], "--out", str(out)],
        "decompose": ["decompose", files["f0"], "--mode", "simple", "--estimate-domain",
                      "--out", str(out)],
    }[command]
    code = main(argv + ["--directions", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path} is not a valid directions file: {message}\n"
    assert not out.exists()


def test_a_direction_set_is_checked_once_per_run(tmp_path, capsys, monkeypatch, files):
    from reinhardt.multiindex import Directions

    checks = []
    build = Directions.__new__

    def counting(cls, values):
        dirs = build(cls, values)
        if dirs is not values and len(dirs) > 1:  # a new set of two or more: a full check
            checks.append(len(dirs))
        return dirs

    monkeypatch.setattr(Directions, "__new__", counting)
    dirs = tmp_path / "dirs25.json"
    dirs.write_text(json.dumps({"directions": [[i / 24, 1 - i / 24] for i in range(25)]}))
    code = main(["decompose", files["f0"], "--mode", "simple", "--estimate-domain",
                 "--directions", str(dirs), "--out", str(tmp_path / "parts")])
    capsys.readouterr()
    assert code == 0
    # the file's set is checked when it loads and passed down every layer unchecked
    assert checks == [25]


def _three_dimensional_files(tmp_path):
    dirs3 = tmp_path / "dirs3.json"
    dirs3.write_text(json.dumps({"directions": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]}))
    box3 = tmp_path / "box3.json"
    box3.write_text(json.dumps({"dimension": 3, "halfspaces": [
        {"normal": normal, "offset": 0.0}
        for normal in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    ]}))
    return str(dirs3), str(box3)


@pytest.mark.parametrize("case", [
    "cfunc", "construct", "construct_domain",
    "decompose_elementary", "decompose_estimate", "decompose_domain",
])
def test_files_of_two_dimensions_are_refused_when_they_load(
    tmp_path, capsys, monkeypatch, files, case
):
    import reinhardt.convex

    def refuse(*args, **kwargs):
        raise AssertionError("a series was scanned or an LP ran before the check")

    monkeypatch.setattr(SeriesSpec, "coefficient_table", refuse)
    monkeypatch.setattr(reinhardt.convex, "lp_maximize", refuse)
    dirs3, box3 = _three_dimensional_files(tmp_path)
    f0, dirs, wedge, out = files["f0"], files["dirs"], files["wedge"], str(tmp_path / "out")
    argv, first, second = {
        "cfunc": (["cfunc", f0, "--directions", dirs3], dirs3, f0),
        "construct": (["construct", "--domain", wedge, "--directions", dirs3], dirs3, wedge),
        "construct_domain": (["construct", "--domain", box3, "--directions", dirs], dirs, box3),
        "decompose_elementary": (
            ["decompose", f0, "--mode", "elementary", "--directions", dirs3], dirs3, f0
        ),
        "decompose_estimate": (
            ["decompose", f0, "--mode", "simple", "--estimate-domain", "--directions", dirs3],
            dirs3, f0,
        ),
        "decompose_domain": (
            ["decompose", f0, "--mode", "simple", "--domain", box3, "--directions", dirs], box3, f0
        ),
    }[case]
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    dims = {f0: 2, dirs: 2, wedge: 2, dirs3: 3, box3: 3}
    assert captured.err == (
        f"error: {first} has dimension {dims[first]}, but {second} has dimension {dims[second]}\n"
    )
    assert not Path(out).exists()


@pytest.mark.parametrize("field, value, kind", [
    ("dimension", 2.7, "series"),
    ("dimension", True, "series"),
    ("dimension", 2.7, "H-domain"),
    ("base", 8.5, "series"),
    ("per_row", True, "series"),
    ("stride", 1.5, "series"),
])
def test_an_integer_field_holding_another_type_is_refused(
    tmp_path, capsys, files, field, value, kind
):
    if kind == "H-domain":
        data = json.loads(Path(files["wedge"]).read_text())
        argv = ["support", "--domain", "--direction", "0.5", "0.5"]
    else:
        data = {"dimension": 2, "label": "", "rule": {
            "kind": "support_weighted",
            "support": {"directions": [[0.5, 0.5]], "values": [0.0]},
            "family": {"base": 8, "per_row": 4, "stride": 1},
        }}
        argv = ["domain", "--grid=-1:1:2"]
    if field == "dimension":
        data["dimension"] = value
    else:
        data["rule"]["family"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(argv[:2] + [str(path)] + argv[2:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is not a valid {kind} file: {field} must be an integer, got {value!r}\n"
    )


SUPPORT_WEIGHTED = {"dimension": 2, "label": "", "rule": {
    "kind": "support_weighted",
    "support": {"directions": [[0.5, 0.5]], "values": [0.0]},
    "family": {"base": 8, "per_row": 4, "stride": 1},
}}
SERIES_ARGV = ["domain", "FILE", "--grid=-1:1:2"]


@pytest.mark.parametrize("case", [
    "halfspace_normal", "halfspace_offset", "support_values", "support_scale",
    "ray_ratio", "table_values", "samples_values",
])
def test_a_number_field_holding_a_bool_or_a_string_is_refused(tmp_path, capsys, case):
    domain = {"dimension": 2, "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.5}]}
    bad_domain = {"dimension": 2, "halfspaces": [{"normal": [True, False], "offset": "0.5"}]}
    scaled = json.loads(json.dumps(SUPPORT_WEIGHTED))
    scaled["rule"]["scale"] = "2"
    true_weight = json.loads(json.dumps(SUPPORT_WEIGHTED))
    true_weight["rule"]["support"]["values"] = [True]
    kind, data, argv, error = {
        "halfspace_normal": (
            "H-domain", bad_domain, ["support", "--domain", "FILE", "--direction", "1", "0"],
            "coordinate must be a number, got True",
        ),
        "halfspace_offset": (
            "H-domain", {**domain, "halfspaces": [{"normal": [1.0, 0.0], "offset": "0.5"}]},
            ["support", "--domain", "FILE", "--direction", "1", "0"],
            "half-space offset must be a number, got '0.5'",
        ),
        "support_values": (
            "series", true_weight, SERIES_ARGV, "support weight must be a number, got True",
        ),
        "support_scale": ("series", scaled, SERIES_ARGV, "scale must be a number, got '2'"),
        "ray_ratio": (
            "series",
            {"dimension": 2, "rule": {"kind": "ray_geometric", "direction": [1, 1], "ratio": True}},
            SERIES_ARGV, "ratio must be a number, got True",
        ),
        "table_values": (
            "series",
            {"dimension": 2, "rule": {
                "kind": "explicit_table", "indices": [[1, 0]], "values": [[True, False]],
            }},
            SERIES_ARGV, "coefficient must be a number, got True",
        ),
        "samples_values": (
            "samples", {"directions": [[1.0, 0.0], [0.0, 1.0]], "values": ["1.5", False]},
            ["envelope", "--samples", "FILE", "--direction", "0.5", "0.5"],
            "sampled value must be a number, got '1.5'",
        ),
    }[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path} is not a valid {kind} file: {error}\n"


def test_an_lp_whose_tableau_overflows_exits_2(tmp_path, capsys):
    from reinhardt import HalfSpace, HDomain, SampledFunction

    # {s1 <= -1.7e308, s2 <= 1.7e308, s3 <= 0, (s1 + s2)/2 <= -1.7e308}: the
    # support at (0.3, 0.6, 0.1) is finite, at a vertex outside the float range
    normals = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0))
    offsets = (-1.7e308, 1.7e308, 0.0, -1.7e308)
    path = tmp_path / "huge.json"
    HDomain(3, tuple(HalfSpace(a, c) for a, c in zip(normals, offsets))).save(path)
    samples = tmp_path / "huge_samples.json"
    SampledFunction(normals, offsets).save(samples)
    for argv, region in ((["support", "--domain", str(path)], path),
                         (["envelope", "--samples", str(samples)], samples)):
        code = main(argv + ["--direction", "0.3", "0.6", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: an LP over {region} overflowed: overflow encountered")


def _huge_files(tmp_path):
    """{s1 <= -1.7e308, s2 <= 1.7e308, (s1 + s2)/2 <= -1.7e308} as a domain and as samples."""
    from reinhardt import HalfSpace, HDomain, SampledFunction

    normals = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
    offsets = (-1.7e308, 1.7e308, -1.7e308)
    domain = HDomain(2, tuple(HalfSpace(a, c) for a, c in zip(normals, offsets)))
    path = tmp_path / "huge.json"
    domain.save(path)
    samples = tmp_path / "huge_samples.json"
    SampledFunction(normals, offsets).save(samples)
    return domain, [["support", "--domain", str(path)], ["envelope", "--samples", str(samples)]]


def test_a_vertex_past_the_float_range_is_answered_at_n2(tmp_path, capsys):
    from conftest import exact_support

    # the vertex (-5.1e308, 1.7e308) lies outside the float range; the value
    # at (0.3, 0.7) is 0.4 * 1.7e308 - 0.6 * 1.7e308, about -3.4e307
    domain, commands = _huge_files(tmp_path)
    exact = exact_support(domain, (0.3, 0.7))
    for argv in commands:
        code, out = run(capsys, argv + ["--direction", "0.3", "0.7"])
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(value)), argv


def test_support_and_envelope_answer_at_n2_without_an_lp(tmp_path, capsys, monkeypatch, files):
    import reinhardt.convex

    def refuse(*args, **kwargs):
        raise AssertionError("an N = 2 support value ran the simplex")

    monkeypatch.setattr(reinhardt.convex, "lp_maximize", refuse)
    _, commands = _huge_files(tmp_path)
    for argv in commands + [["support", "--domain", files["wedge"]]]:
        code, out = run(capsys, argv + ["--direction", "0.3", "0.7"])
        assert code == 0, argv
        assert math.isfinite(json.loads(out)["value"]), argv


def test_a_direction_of_another_dimension_is_named(tmp_path, capsys, monkeypatch, files):
    import reinhardt.convex

    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran before the check")

    monkeypatch.setattr(reinhardt.convex, "lp_maximize", refuse)
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"directions": [[0.0, 1.0], [1.0, 0.0]], "values": [0.0, 0.0]}))
    for argv, path in ((["support", "--domain", files["wedge"]], files["wedge"]),
                       (["envelope", "--samples", str(samples)], str(samples))):
        code = main(argv + ["--direction", "0.2", "0.3", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --direction has dimension 3, but {path} has dimension 2\n"


@pytest.mark.parametrize("argv, error", [
    (["domain", "f0", "--grid=-1:1:2,-1:1:2,-1:1:2"],
     "--grid has 3 axes but the input has dimension 2"),
    (["domain", "f0", "--grid=-1:1"], "--grid axis '-1:1' is not lo:hi:count"),
    (["check", "f0", "--grid=-1:one:2"],
     "--grid axis '-1:one:2': could not convert string to float: 'one'"),
    (["domain", "f0", "--grid=-1:1:0"], "--grid axis '-1:1:0' needs count >= 1"),
    (["cfunc", "f0"], "cfunc needs --directions or --grid-t"),
    (["cfunc", "g3", "--grid-t", "5"], "--grid-t applies to dimension 2 only; use --directions"),
    (["support", "--domain", "wedge", "--direction", "0.5", "0.6"],
     "--direction is not a simplex direction: simplex coordinates must sum to 1, got (0.5, 0.6)"),
])
def test_a_bad_flag_exits_2_with_its_message(tmp_path, capsys, files, argv, error):
    g3 = tmp_path / "g3.json"
    SeriesSpec(3, FullGeometric()).save(g3)
    files = {**files, "g3": str(g3)}
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"



def _empty_directions(tmp_path, monkeypatch, files):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"directions": []}))
    return (["cfunc", files["f0"], "--directions", str(path)],
            f"{path} must hold a non-empty 'directions' list")


def _iteration_cap(tmp_path, monkeypatch, files):
    import reinhardt.convex
    from reinhardt import HalfSpace, HDomain

    # at N = 3 support values come from the simplex (at N = 2 the hull answers)
    path = tmp_path / "box3.json"
    HDomain(3, tuple(HalfSpace(a, 0.0) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))).save(path)
    monkeypatch.setattr(reinhardt.convex, "_ITERATION_CAP", 0)
    return (["support", "--domain", str(path), "--direction", "0.2", "0.3", "0.5"],
            "simplex iteration cap exceeded")


@pytest.mark.parametrize("case", [_empty_directions, _iteration_cap])
def test_cli_input_checks_exit_2_with_their_message(tmp_path, capsys, monkeypatch, files, case):
    argv, message = case(tmp_path, monkeypatch, files)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"
