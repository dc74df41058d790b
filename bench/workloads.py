"""The four workloads: inputs drawn from the run's seed, one round of
operations timed as a whole, and the checks of every output.

A workload object has `ops` (operations per round), `prepare(i)` (untimed
inputs of round i), `run(inputs)` (the timed round) and
`check(inputs, outputs)` returning (failed operations, problems).  Every
round attempts the same operations, so the failed share is the same in
every run.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import checks
from strongmax import cli, harness, heisenberg, lattice, weights
from strongmax.lattice import GridSpec, RectangleFamily, ScalarField

OUT_DIR = Path(__file__).resolve().parent / "out"


def _int_field(grid: GridSpec, rng: np.random.Generator) -> ScalarField:
    return ScalarField(grid, rng.integers(-9, 10, size=grid.shape).astype(np.float64))


def _points(grid: GridSpec, rng: np.random.Generator, k: int) -> list[tuple[int, ...]]:
    return [tuple(int(rng.integers(0, w)) for w in grid.shape) for _ in range(k)]


class SurveyDyadic:
    """harness.run_experiment over sizes 8/16/24, dyadic family,
    power:1.0,1.0; one trial per size per round, the generator cycling
    through all four."""

    sizes = (8, 16, 24)
    ops = len(sizes)
    weight = "power:1.0,1.0"
    exponents = (1.0, 1.0)
    generators = ("point", "sparse", "dense", "boxes")
    integer_valued = {"sparse", "boxes"}
    points_per_field = 2

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def prepare(self, i: int):
        cfg = harness.ExperimentConfig(
            n=1,
            mu=1,
            grid_sizes=self.sizes,
            weight=self.weight,
            generator=self.generators[i % len(self.generators)],
            trials=1,
            dyadic=True,
            seed=int(self.rng.integers(0, 2**31)),
        )
        return cfg, self.rng.integers(0, 2**31)

    def run(self, inputs):
        cfg, _ = inputs
        # keep each (input, maximal field) pair for the checks; the
        # recorder wraps whatever the harness holds, traced or not
        inner = harness.maximal_field
        fields = []

        def record(f, *args, **kwargs):
            mf = inner(f, *args, **kwargs)
            fields.append((f, mf))
            return mf

        harness.maximal_field = record
        try:
            report = harness.run_experiment(cfg)
        finally:
            harness.maximal_field = inner
        return report, fields

    def check(self, inputs, outputs):
        cfg, point_seed = inputs
        report, fields = outputs
        rng = np.random.default_rng(point_seed)
        exact = cfg.generator in self.integer_valued
        problems = checks.survey_rows(report.rows)
        if len(report.rows) != len(self.sizes) * len(cfg.p_values) or len(fields) != len(self.sizes):
            problems.append(f"{len(report.rows)} rows and {len(fields)} fields for {len(self.sizes)} trials")
        for f, mf in fields:
            problems += checks.field_bounds(f.values, mf.values, exact)
            scale = float(np.abs(f.values).max())
            for x in _points(f.grid, rng, self.points_per_field):
                want = checks.direct_maximal(f.values, cfg.mu, True, self.exponents, x)
                problems += checks.values_match(float(mf.values[x]), want, exact, scale, f"{cfg.generator} size {f.grid.shape[0]} at {x}")
        return 0, problems


class FieldFull:
    """maximal_field as the `maximal` defaults set it up: n=1, full family,
    constant weight, integer fields of size 11; checked against
    maximal_group_form at seeded points."""

    ops = 1
    size = 11
    points_per_field = 4

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.grid = GridSpec.cube(1, self.size, 1)
        self.weight = weights.parse_weight(self.grid, "constant")
        self.family = RectangleFamily(self.grid)

    def prepare(self, i: int):
        return _int_field(self.grid, self.rng), _points(self.grid, self.rng, self.points_per_field)

    def run(self, inputs):
        return heisenberg.maximal_field(inputs[0], self.weight, self.family)

    def check(self, inputs, mf):
        f, points = inputs
        problems = checks.field_bounds(f.values, mf.values, exact=True)
        for x in points:
            want = heisenberg.maximal_group_form(f, x, self.family)
            problems += checks.values_match(float(mf.values[x]), want, True, 0.0, f"group form at {x}")
        return 0, problems


class FieldN2:
    """maximal_field with n=2, dyadic family, power:1.0,1.0,1.0,1.0,
    integer fields of size 5; checked by direct summation at seeded
    points."""

    ops = 1
    size = 5
    exponents = (1.0, 1.0, 1.0, 1.0)
    points_per_field = 3

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.grid = GridSpec.cube(2, self.size, 1)
        self.weight = weights.parse_weight(self.grid, "power:1.0,1.0,1.0,1.0")
        self.family = RectangleFamily(self.grid, dyadic_only=True)

    def prepare(self, i: int):
        return _int_field(self.grid, self.rng), _points(self.grid, self.rng, self.points_per_field)

    def run(self, inputs):
        return heisenberg.maximal_field(inputs[0], self.weight, self.family)

    def check(self, inputs, mf):
        f, points = inputs
        problems = checks.field_bounds(f.values, mf.values, exact=True)
        for x in points:
            want = checks.direct_maximal(f.values, self.grid.mu, True, self.exponents, x)
            problems += checks.values_match(float(mf.values[x]), want, True, 0.0, f"direct sum at {x}")
        return 0, problems


def _read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class DeskCli:
    """cli.main in-process, writing under bench/out: `maximal --size 8
    --argmax-rect`, `cover --size 32 --count 2000 --slices` and
    `eta --size 8 --subset-samples 64`.

    The `maximal` input is fixed, not drawn from the run's seed: on the
    point-mass field of --gen-seed 2 the fast path's maximum is one ulp
    below the value argmax_rectangle sums literally, so that operation
    fails in every run, and on other seeds only sometimes.  It is counted
    in `failed`; every other output of it is still checked.
    """

    ops = 3
    maximal_gen_seed = 2
    maximal_size = 8
    cover_size = 32
    eta_size = 8
    eta_exponents = (1.0, 1.0)

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        OUT_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="desk-", dir=OUT_DIR))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def prepare(self, i: int):
        d = self.root / f"round{i}"
        cover_seed, eta_seed = (int(s) for s in self.rng.integers(0, 2**31, size=2))
        argv = [
            ["maximal", "--size", str(self.maximal_size), "--argmax-rect",
             "--gen-seed", str(self.maximal_gen_seed), "--out", str(d / "maximal")],
            ["cover", "--size", str(self.cover_size), "--count", "2000", "--slices",
             "--seed", str(cover_seed), "--out", str(d / "cover")],
            ["eta", "--size", str(self.eta_size), "--subset-samples", "64",
             "--seed", str(eta_seed), "--out", str(d / "eta")],
        ]
        return d, cover_seed, argv

    def run(self, inputs):
        return [cli.main(argv) for argv in inputs[2]]

    def check(self, inputs, codes):
        d, cover_seed, _ = inputs
        failed, problems = 0, []
        if codes[0] != 0:
            failed += 1
        else:
            summary = _read_json(d / "maximal" / "summary.json")
            grid = GridSpec.cube(1, self.maximal_size, 1)
            # the field cmd_maximal generates for --gen-seed, rebuilt
            f = harness.GENERATORS["point"](grid, np.random.default_rng([self.maximal_gen_seed, 0x3FA]))
            rows = np.asarray(_read_csv(d / "maximal" / "maximal.csv"), dtype=np.float64)
            if rows.shape != (grid.cell_count, grid.d + 1) or not np.array_equal(
                rows[:, :-1], np.indices(grid.shape).reshape(grid.d, -1).T
            ):
                problems.append("maximal.csv does not list the grid cells in C order")
            else:
                problems += checks.maximal_outputs(summary, rows[:, -1].reshape(grid.shape), f.values)
            if checks.argmax_value(summary):
                failed += 1
        if codes[1] != 0:
            failed += 1
        else:
            grid = GridSpec.cube(1, self.cover_size, 1)
            # covering_experiment's batch for --seed, in selection order
            # (stable, by decreasing t length)
            rng = np.random.default_rng([cover_seed & 0xFFFFFFFF, 0xC0FE])
            batch = [lattice.random_rectangle(grid, rng) for _ in range(2000)]
            ordered = [r.bounds for r in sorted(batch, key=lambda r: -r.t_len)]
            audit = [(int(a), bool(int(b)), int(c), float(e)) for a, b, c, e in _read_csv(d / "cover" / "selection_audit.csv")]
            chosen = [
                [(int(row[2 * a]), int(row[2 * a + 1])) for a in range(grid.d)]
                for row in _read_csv(d / "cover" / "chosen_rectangles.csv")
            ]
            problems += checks.covering_outputs(
                grid.shape,
                ordered,
                _read_json(d / "cover" / "covering_report.json"),
                audit,
                chosen,
                _read_json(d / "cover" / "slice_ratios.json"),
            )
        if codes[2] != 0:
            failed += 1
        else:
            problems += checks.eta_outputs(_read_json(d / "eta" / "eta_report.json"), self.eta_exponents, 2)
        shutil.rmtree(d, ignore_errors=True)
        return failed, problems


WORKLOADS = {
    "survey-dyadic": SurveyDyadic,
    "field-full": FieldFull,
    "field-n2": FieldN2,
    "desk-cli": DeskCli,
}
