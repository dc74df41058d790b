"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_checks.py

Each oracle must agree with maximal_field_reference on tiny grids, and
each check must reject an output nudged just past its bound.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from strongmax import cli, covering, heisenberg  # noqa: E402
from strongmax.harness import TrialRow  # noqa: E402
from strongmax.lattice import GridSpec, RectangleFamily, ScalarField  # noqa: E402
from strongmax.weights import eta_survey, make_power_weight  # noqa: E402


def _int_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.integers(-9, 10, size=grid.shape).astype(np.float64))


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


@pytest.mark.parametrize(
    "n, size, dyadic, exponents",
    [
        (1, 5, False, (1.0, 1.0)),
        (1, 5, True, (1.0, 1.0)),
        (1, 5, False, (0.0, 0.0)),
        (2, 3, True, (1.0, 1.0, 1.0, 1.0)),
    ],
)
def test_direct_summation_matches_reference(n, size, dyadic, exponents):
    grid = GridSpec.cube(n, size, 1)
    family = RectangleFamily(grid, dyadic_only=dyadic)
    f = _int_field(grid, 11)
    ref = heisenberg.maximal_field_reference(f, make_power_weight(grid, exponents), family).values
    for x in itertools.product(range(size), repeat=grid.d):
        assert checks.direct_maximal(f.values, grid.mu, dyadic, exponents, x) == ref[x]
    assert checks.field_bounds(f.values, ref, exact=True) == []


@pytest.mark.parametrize("n, size", [(1, 5), (2, 3)])
def test_group_form_matches_reference(n, size):
    grid = GridSpec.cube(n, size, 1)
    family = RectangleFamily(grid, dyadic_only=n == 2)
    f = _int_field(grid, 12)
    ref = heisenberg.maximal_field_reference(f, make_power_weight(grid, (0.0,) * 2 * n), family).values
    for x in itertools.product(range(size), repeat=grid.d):
        assert heisenberg.maximal_group_form(f, x, family) == ref[x]


def test_direct_summation_sees_the_twist():
    grid = GridSpec.cube(1, 5, 1)
    f = _int_field(grid, 13)
    twisted = [checks.direct_maximal(f.values, 1, False, (1.0, 1.0), x) for x in itertools.product(range(5), repeat=3)]
    flat = [checks.direct_maximal(f.values, 0, False, (1.0, 1.0), x) for x in itertools.product(range(5), repeat=3)]
    assert twisted != flat


def test_field_bounds_reject_nudges():
    f = np.array([[[1.0, -3.0], [0.0, 2.0]]])
    mf = np.array([[[2.0, 3.0], [1.0, 2.0]]])
    assert checks.field_bounds(f, mf, exact=True) == []
    low = mf.copy()
    low[0, 0, 1] = _down(3.0)
    assert checks.field_bounds(f, low, exact=True)
    high = mf.copy()
    high[0, 1, 0] = _up(3.0)
    assert checks.field_bounds(f, high, exact=True)
    slack = checks.ROUND_REL * 3.0
    inside = mf.copy()
    inside[0, 0, 1] = 3.0 - 0.5 * slack
    assert checks.field_bounds(f, inside, exact=False) == []
    past = mf.copy()
    past[0, 0, 1] = 3.0 - 2.0 * slack
    assert checks.field_bounds(f, past, exact=False)
    past[0, 0, 1] = 3.0 + 2.0 * slack
    assert checks.field_bounds(f, past, exact=False)


def test_values_match_rejects_nudges():
    assert checks.values_match(0.75, 0.75, True, 1.0, "x") == []
    assert checks.values_match(_up(0.75), 0.75, True, 1.0, "x")
    slack = checks.ROUND_REL * 2.0
    assert checks.values_match(0.75 + 0.5 * slack, 0.75, False, 2.0, "x") == []
    assert checks.values_match(0.75 + 2.0 * slack, 0.75, False, 2.0, "x")


def test_survey_rows_reject_nudges():
    ok = TrialRow(8, 0, 2.0, 1.25 * (1 + 0.5e-12), 1.25)
    assert checks.survey_rows([ok]) == []
    assert checks.survey_rows([TrialRow(8, 0, 2.0, 1.25 * (1 + 2e-12), 1.25)])
    assert checks.survey_rows([TrialRow(8, 0, 2.0, float("nan"), 1.25)])


def _maximal_run(tmp_path):
    out = tmp_path / "m"
    assert cli.main(["maximal", "--size", "4", "--argmax-rect", "--gen-seed", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = np.loadtxt(out / "maximal.csv", delimiter=",", skiprows=1)
    grid = GridSpec.cube(1, 4, 1)
    from strongmax.harness import GENERATORS

    f = GENERATORS["point"](grid, np.random.default_rng([1, 0x3FA]))
    return summary, rows[:, -1].reshape(grid.shape), f.values


def test_maximal_outputs_reject_nudges(tmp_path):
    summary, mf, f = _maximal_run(tmp_path)
    assert checks.maximal_outputs(summary, mf, f) == []
    assert checks.argmax_value({"max_value": 0.5, "argmax_rectangle_value": 0.5}) == []
    assert checks.argmax_value({"max_value": 0.5, "argmax_rectangle_value": _up(0.5)})
    nudged = dict(summary, max_value=_up(summary["max_value"]))
    assert checks.maximal_outputs(nudged, mf, f)
    hi = summary["argmax_rectangle"][0][1]
    moved = dict(summary, argmax_rectangle=[[hi + 1, hi + 1]] + summary["argmax_rectangle"][1:])
    assert checks.maximal_outputs(moved, mf, f)
    assert checks.maximal_outputs(summary, mf, f * 0 + 2 * np.abs(f).max())


def _cover_case():
    grid = GridSpec.cube(1, 8, 1)
    w = make_power_weight(grid, (0.0, 0.0))
    report, sel = covering.covering_experiment(grid, w, count=60, seed=5)
    ordered = [r.bounds for r in sel.rectangles]
    audit = [(r.index, r.chosen, r.witness_m, r.overlap_fraction) for r in sel.rows]
    chosen = [r.bounds for r in sel.chosen()]
    slices = covering.slice_union_ratios(sel, w)
    return grid, ordered, report.to_json_dict(), audit, chosen, slices


def test_covering_outputs_reject_nudges():
    grid, ordered, report, audit, chosen, slices = _cover_case()
    assert checks.covering_outputs(grid.shape, ordered, report, audit, chosen, slices) == []
    i = next(k for k, row in enumerate(audit) if row[3] > 0)
    tampered = list(audit)
    tampered[i] = audit[i][:3] + (_up(audit[i][3]),)
    assert checks.covering_outputs(grid.shape, ordered, report, tampered, chosen, slices)
    flipped = list(audit)
    flipped[i] = (audit[i][0], not audit[i][1]) + audit[i][2:]
    assert checks.covering_outputs(grid.shape, ordered, report, flipped, chosen, slices)
    low = dict(report, comparability_ratio=_down(1.0))
    assert checks.covering_outputs(grid.shape, ordered, low, audit, chosen, slices)
    low_slice = [dict(slices[0], ratio=_down(1.0))] + slices[1:]
    assert checks.covering_outputs(grid.shape, ordered, report, audit, chosen, low_slice)
    assert checks.covering_outputs(grid.shape, ordered, report, audit, chosen[:-1], slices)


def test_eta_outputs_reject_nudges():
    grid = GridSpec.cube(1, 4, 1)
    w = make_power_weight(grid, (1.0, 1.0))
    report = json.loads(json.dumps(eta_survey(w, grid, rectangle_budget=64, subset_samples=8, seed=3).to_json_dict()))
    assert checks.eta_outputs(report, (1.0, 1.0), 2) == []
    rows = report["rows"]
    i = next(k for k, row in enumerate(rows) if row["eta_exact"] < 1)

    def with_row(**change):
        return dict(report, rows=rows[:i] + [dict(rows[i], **change)] + rows[i + 1 :])

    assert checks.eta_outputs(with_row(eta_exact=_up(rows[i]["eta_exact"])), (1.0, 1.0), 2)
    assert checks.eta_outputs(with_row(eta_mc=rows[i]["eta_exact"] - 2e-12), (1.0, 1.0), 2)
    assert checks.eta_outputs(with_row(eta_mc=rows[i]["eta_exact"] - 0.5e-12), (1.0, 1.0), 2) == []
    assert checks.eta_outputs(with_row(eta_exact=_up(1.0)), (1.0, 1.0), 2)


def test_tracer_wraps_consumer_bindings_and_restores(tmp_path):
    from tracer import Tracer

    original = heisenberg.maximal_field
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.maximal_field is not original
        assert cli.main(["maximal", "--size", "4", "--argmax-rect", "--out", str(tmp_path)]) == 0
    finally:
        tracer.remove()
    assert cli.maximal_field is original and heisenberg.maximal_field is original
    names = [span[0] for span in tracer.spans]
    parent = {i: tracer.spans[span[3]][0] for i, span in enumerate(tracer.spans) if span[3] >= 0}
    assert names[0] == "cli.main"
    assert parent[names.index("cli.maximal")] == "cli.main"
    assert parent[names.index("heisenberg.maximal_field")] == "cli.maximal"
    assert parent[names.index("weights.expanded_spatial")] == "heisenberg.maximal_field"
    assert parent[names.index("lattice.rectangles_containing")] == "heisenberg.argmax_rectangle"
    times, calls = tracer.self_times()
    assert calls["heisenberg.write_field"] == 1
    assert all(t >= 0 for t in times.values())
    grid = GridSpec.cube(1, 4, 1)
    assert tracer.work["heisenberg.maximal_field"] == grid.cell_count * RectangleFamily(grid).count_containing()
