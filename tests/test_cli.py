"""Command-line surface: subcommands, config echo, exit codes, file outputs."""

import json
import os

import numpy as np
import pytest

from strongmax import (
    GridSpec,
    RectangleFamily,
    ScalarField,
    make_constant_weight,
    maximal_field,
    read_field_binary,
    read_field_csv,
    write_field_binary,
)
from strongmax.cli import main
from strongmax.harness import GENERATORS

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_INPUT = os.path.join(DATA, "point_mass_3.csv")
GOLDEN_OUTPUT = os.path.join(DATA, "maximal_3cube_pointmass.csv")


def _strip_stamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "_timestamp" not in ln)


# ---------------------------------------------------------------------------
# argument handling


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["maximal", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizee": 4}))
    assert main(["maximal", "--config", str(cfg), "--out", str(tmp_path)]) == 2


COMMANDS = ["maximal", "cover", "weaktype", "eta"]


@pytest.mark.parametrize("command", COMMANDS)
def test_unknown_config_key_exits_2_on_every_command(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizee": 4}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "config_echo.json").exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("maximal", {"factors": 5}),
        ("maximal", {"extents": [1, [2, 3]]}),
        ("maximal", {"input": 5}),
        ("maximal", {"weight": 3}),
        ("weaktype", {"p_values": 2.0}),
        ("weaktype", {"sizes": 8}),
        ("cover", {"rects": 3}),
        ("cover", {"cross": 1.5}),
        # sizes and factors list integers; a float entry used to be truncated
        ("weaktype", {"sizes": [4.5], "trials": 1, "p_values": [2.0]}),
        ("weaktype", {"sizes": [True], "trials": 1}),
        ("maximal", {"size": 4, "factors": [1.5, 1.5]}),
        ("maximal", {"size": 4, "factors": [False, 2]}),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out" / "config_echo.json").exists()


def test_config_float_list_takes_any_number(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": [4], "trials": 1, "p_values": [2]}))
    assert main(["weaktype", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "config_echo.json").read_text())["p_values"] == [2]


@pytest.mark.parametrize(
    "argv, code",
    [
        *[([command, "--weight", "constant:-1"], 2) for command in COMMANDS],
        (["maximal", "--size", "4", "--weight", "power:1.0,1.0@-1.5,-1.5"], 3),
        (["weaktype", "--sizes", "4", "--trials", "1", "--weight", "power:1.0,1.0@-1.5,-1.5"], 3),
        # non-finite parameters are usage errors, not invariant violations
        *[([command, "--weight", "constant:inf"], 2) for command in COMMANDS],
        (["maximal", "--weight", "power:1.0,nan"], 2),
        (["maximal", "--weight", "power:1.0,1.0@inf,0.0"], 2),
        (["eta", "--weight", "power:nan,1.0@0.0,-inf"], 2),
    ],
)
def test_failed_run_leaves_no_echo(tmp_path, argv, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert not (tmp_path / "config_echo.json").exists()


def test_missing_input_file_exits_2(tmp_path):
    assert main(["maximal", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


def _assert_input_error(capsys, argv, path):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("keep", [4, 10, 30, -3])
def test_truncated_binary_input_exits_2(tmp_path, capsys, keep):
    # cut inside the dimension, inside the extents, and inside the payload
    full = tmp_path / "full.bin"
    write_field_binary(ScalarField.point_mass(GridSpec.cube(1, 3), (1, 1, 1)), full)
    path = tmp_path / "cut.bin"
    path.write_bytes(full.read_bytes()[:keep])
    _assert_input_error(capsys, ["maximal", "--input", str(path), "--out", str(tmp_path)], path)


@pytest.mark.parametrize("text", ["", "u1,v1,t,value\n0,0,1\n"])
def test_malformed_csv_input_exits_2(tmp_path, capsys, text):
    path = tmp_path / "field.csv"
    path.write_text(text)
    _assert_input_error(capsys, ["maximal", "--input", str(path), "--out", str(tmp_path)], path)


@pytest.mark.parametrize(
    "weight",
    [
        # the power rule overflows on the grid, the perturbation of a finite
        # constant overflows, and a finite constant overflows the kernel's
        # box sums
        "power:400.0,1.0",
        "perturbed:0.5:1|constant:1.7e308",
        "constant:1e308",
    ],
)
def test_overflowing_weight_exits_2(tmp_path, capsys, weight):
    argv = ["maximal", "--size", "8", "--weight", weight, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    assert not (tmp_path / "config_echo.json").exists()


def test_overflowing_input_field_exits_2(tmp_path, capsys):
    # finite cells whose weighted sum overflows: a range error, not NaN
    path = tmp_path / "huge.bin"
    g = GridSpec.cube(1, 4)
    write_field_binary(ScalarField(g, np.full(g.shape, 1e308)), path)
    assert main(["maximal", "--input", str(path), "--out", str(tmp_path)]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "maximal.csv").exists()


def test_degenerate_weight_exits_3(tmp_path):
    # positive on the extents, zero on the expansion ring
    code = main([
        "maximal", "--size", "4", "--weight", "power:1.0,1.0@-1.5,-1.5",
        "--generator", "dense", "--out", str(tmp_path),
    ])
    assert code == 3


# ---------------------------------------------------------------------------
# maximal


def test_maximal_golden_run(tmp_path):
    out = tmp_path / "run"
    code = main([
        "maximal", "--input", GOLDEN_INPUT, "--weight", "constant",
        "--family", "full", "--out", str(out),
    ])
    assert code == 0
    with open(out / "maximal.csv", "rb") as got, open(GOLDEN_OUTPUT, "rb") as want:
        assert got.read() == want.read()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_value"] == 1.0
    assert summary["argmax_point"] == [1, 1, 1]
    assert "_timestamp" in summary


def test_maximal_argmax_rectangle_flag(tmp_path):
    out = tmp_path / "run"
    code = main([
        "maximal", "--input", GOLDEN_INPUT, "--weight", "constant",
        "--family", "full", "--argmax-rect", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["argmax_rectangle"] == [[1, 1], [1, 1], [1, 1]]
    assert summary["argmax_rectangle_value"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--size", "8", "--argmax-rect", "--gen-seed", "2"],
        ["--size", "6", "--generator", "dense", "--weight", "power:1.0,1.0", "--argmax-rect"],
    ],
)
def test_argmax_rectangle_value_is_max_value(tmp_path, argv):
    # the summary's two views of the peak must be one number, bit for bit
    assert main(["maximal", *argv, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["argmax_rectangle_value"] == summary["max_value"]


@pytest.mark.parametrize("argv", [["--size", "11", "--weight", "power:8,8"], ["--size", "6", "--weight", "power:10,10"]])
def test_wide_range_weights_run(tmp_path, argv):
    # the weight prefix's inclusion-exclusion cancels to volumes <= 0 on
    # small boxes under these weights, which exited 3; the kernel sums
    # such boxes directly
    assert main(["maximal", *argv, "--argmax-rect", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["argmax_rectangle_value"] == summary["max_value"]


def test_maximal_generator_matches_library(tmp_path):
    out = tmp_path / "gen"
    code = main([
        "maximal", "--size", "5", "--mu", "1", "--generator", "point",
        "--gen-seed", "3", "--weight", "power:1.0,1.0", "--family", "dyadic",
        "--format", "bin", "--out", str(out),
    ])
    assert code == 0
    got = read_field_binary(out / "maximal.bin", mu=1)
    g = GridSpec.cube(1, 5, mu=1)
    rng = np.random.default_rng([3, 0x3FA])
    f = GENERATORS["point"](g, rng)
    from strongmax import parse_weight

    want = maximal_field(f, parse_weight(g, "power:1.0,1.0"), RectangleFamily(g, dyadic_only=True))
    np.testing.assert_array_equal(got.values, want.values)


def test_maximal_json_format(tmp_path):
    out = tmp_path / "j"
    code = main([
        "maximal", "--size", "3", "--generator", "dense", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "maximal.json").read_text())
    assert payload["grid"]["n"] == 1
    assert len(payload["values"]) == 27


def test_maximal_echo_rerun_is_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = [
        "maximal", "--input", GOLDEN_INPUT, "--weight", "constant",
        "--family", "full", "--out", str(first),
    ]
    assert main(args) == 0
    assert main(["maximal", "--config", str(first / "config_echo.json"), "--out", str(second)]) == 0
    assert (first / "maximal.csv").read_bytes() == (second / "maximal.csv").read_bytes()
    assert (first / "config_echo.json").read_bytes() == (second / "config_echo.json").read_bytes()
    assert _strip_stamp((first / "summary.json").read_text()) == _strip_stamp(
        (second / "summary.json").read_text()
    )


# ---------------------------------------------------------------------------
# cover


def test_cover_run_and_files(tmp_path):
    out = tmp_path / "cov"
    code = main([
        "cover", "--size", "8", "--count", "60", "--seed", "4",
        "--weight", "power:1.0,1.0", "--slices", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "covering_report.json").read_text())
    assert report["count_input"] == 60
    assert report["comparability_ratio"] >= 1.0
    audit = (out / "selection_audit.csv").read_text().strip().splitlines()
    assert len(audit) == 61
    chosen = (out / "chosen_rectangles.csv").read_text().strip().splitlines()
    assert len(chosen) == report["count_chosen"] + 1
    ratios = json.loads((out / "slice_ratios.json").read_text())
    assert len(ratios) == 8


def test_cover_rects_file_input(tmp_path):
    g = GridSpec.cube(1, 6, mu=1)
    from strongmax import Rectangle
    from strongmax.covering import export_rectangles_csv

    rects = [
        Rectangle.from_bounds([(0, 1), (0, 1), (0, 1)], (1, 1)),
        Rectangle.from_bounds([(3, 4), (3, 4), (3, 4)], (1, 1)),
    ]
    path = tmp_path / "rects.csv"
    export_rectangles_csv(rects, path, g)
    out = tmp_path / "cov"
    code = main(["cover", "--size", "6", "--rects", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "covering_report.json").read_text())
    assert report["count_input"] == 2
    assert report["count_chosen"] == 2
    assert report["indicator_ratio"] == 1.0


def test_empty_rects_file_exits_2(tmp_path, capsys):
    path = tmp_path / "rects.csv"
    path.write_text("")
    _assert_input_error(capsys, ["cover", "--size", "6", "--rects", str(path), "--out", str(tmp_path)], path)


def test_short_rects_row_exits_2(tmp_path, capsys):
    path = tmp_path / "rects.csv"
    path.write_text("u1_lo,u1_hi,v1_lo,v1_hi,t_lo,t_hi\n0,1,0,1,0,1\n3,4,3,4,3\n")
    _assert_input_error(capsys, ["cover", "--size", "6", "--rects", str(path), "--out", str(tmp_path)], path)


@pytest.mark.parametrize("batch", [["--count", "0"], ["--count", "-3"], ["--rects", "header_only.csv"]])
def test_empty_cover_batch_exits_2(tmp_path, monkeypatch, capsys, batch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "header_only.csv").write_text("u1_lo,u1_hi,v1_lo,v1_hi,t_lo,t_hi\n")
    assert main(["cover", "--size", "6", *batch, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cover_echo_rerun_is_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["cover", "--size", "8", "--count", "40", "--seed", "1", "--out", str(first)]) == 0
    assert main(["cover", "--config", str(first / "config_echo.json"), "--out", str(second)]) == 0
    assert _strip_stamp((first / "covering_report.json").read_text()) == _strip_stamp(
        (second / "covering_report.json").read_text()
    )
    assert (first / "selection_audit.csv").read_bytes() == (second / "selection_audit.csv").read_bytes()


# ---------------------------------------------------------------------------
# weaktype


def test_weaktype_run_and_files(tmp_path):
    out = tmp_path / "wk"
    code = main([
        "weaktype", "--sizes", "4,6", "--trials", "2", "--p-values", "1.5,2.0",
        "--generator", "sparse", "--weight", "power:1.0,1.0", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert len(report["rows"]) == 2 * 2 * 2
    assert {r["grid_size"] for r in report["rows"]} == {4, 6}
    for row in report["rows"]:
        assert row["weak_quantity"] <= row["strong_ratio"] * (1 + 1e-12)
    csv_lines = (out / "bound_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 8


def test_weaktype_echo_rerun_is_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = ["weaktype", "--sizes", "4", "--trials", "2", "--p-values", "2.0",
            "--generator", "dense", "--out", str(first)]
    assert main(args) == 0
    assert main(["weaktype", "--config", str(first / "config_echo.json"), "--out", str(second)]) == 0
    assert _strip_stamp((first / "bound_report.json").read_text()) == _strip_stamp(
        (second / "bound_report.json").read_text()
    )
    assert (first / "bound_report.csv").read_bytes() == (second / "bound_report.csv").read_bytes()


# ---------------------------------------------------------------------------
# eta


def test_eta_exhaustive_constant_weight(tmp_path):
    out = tmp_path / "eta"
    code = main(["eta", "--size", "2", "--weight", "constant", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "eta_report.json").read_text())
    assert report["exhaustive"] is True
    assert report["rectangle_count"] == 27
    # least comparable member is the full 8-cell cube: keep 5 of 8
    assert report["global_eta"] == 0.625


def test_eta_subset_samples_dominate(tmp_path):
    out = tmp_path / "eta"
    code = main([
        "eta", "--size", "3", "--weight", "perturbed:0.5:2", "--subset-samples", "20",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "eta_report.json").read_text())
    assert report["mc_global"] >= report["global_eta"] - 1e-12
    rows = (out / "eta_report.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + report["rectangle_count"]


def test_eta_echo_rerun_is_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = ["eta", "--size", "3", "--weight", "power:2.0,0.5", "--budget", "100",
            "--seed", "9", "--out", str(first)]
    assert main(args) == 0
    assert main(["eta", "--config", str(first / "config_echo.json"), "--out", str(second)]) == 0
    assert _strip_stamp((first / "eta_report.json").read_text()) == _strip_stamp(
        (second / "eta_report.json").read_text()
    )
    assert (first / "eta_report.csv").read_bytes() == (second / "eta_report.csv").read_bytes()
