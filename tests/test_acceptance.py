"""End-to-end acceptance checks, one test per numbered criterion.

Each test ends by recording a one-line verdict that the terminal summary
hook in conftest.py prints after the run. Tolerances follow the exactness
rules used throughout the suite: quantities built from integer samples
and dyadic-rational weights must agree bitwise across independent code
paths, while anything involving irrational weights gets 1e-12 relative
slack. Criterion 6 is the long one (about ten minutes of trials); the
rest finish in seconds.
"""

import itertools
import math
import time

import numpy as np

from conftest import record_criterion
from strongmax import GridSpec, Rectangle, RectangleFamily, ScalarField, cli
from strongmax.covering import covering_experiment, overlap_counts, replay_selection
from strongmax.harness import (
    GENERATORS,
    ExperimentConfig,
    run_experiment,
    strong_ratio,
    trial_seed,
    weak_type_quantity,
)
from strongmax.heisenberg import (
    maximal_field,
    maximal_field_reference,
    maximal_group_form,
    untwisted_maximal_field,
)
from strongmax.lattice import enumerate_rectangles
from strongmax.weights import (
    WeightField,
    eta_survey,
    hash_uniform,
    make_constant_weight,
    make_perturbed_weight,
    make_power_weight,
    parse_weight,
)


def _int_field(grid, seed, stream):
    rng = np.random.default_rng([seed, stream])
    return ScalarField(grid, rng.integers(0, 10, size=grid.shape).astype(np.float64))


def _int_hash_weight(grid, seed=5):
    # integer-valued positive weights keep products with integer fields
    # exactly representable, so cross-path checks can demand equality
    def rule(coords):
        return 1.0 + np.floor(3.0 * (hash_uniform(seed, coords) + 1.0))

    return WeightField(grid, rule, f"inthash:{seed}")


def test_criterion_1_group_form_matches_twisted_form():
    t0 = time.perf_counter()
    grid = GridSpec.cube(1, 7, 1)
    fam = RectangleFamily(grid)
    w = make_constant_weight(grid)
    points = list(itertools.product(range(7), repeat=3))
    checked = 0
    for seed in (0, 1, 2):
        f = _int_field(grid, seed, 0xACC1)
        mf = maximal_field(f, w, fam)
        for x in points:
            # integer samples: both paths form the same exact float sums
            assert maximal_group_form(f, x, fam) == mf.values[x]
            checked += 1
    rng = np.random.default_rng([3, 0xACC1])
    f = ScalarField(grid, rng.random(grid.shape))
    mf = maximal_field(f, w, fam)
    for x in points:
        a = maximal_group_form(f, x, fam)
        b = float(mf.values[x])
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    record_criterion(
        1,
        "PASS",
        f"group vs twisted form at {checked} points on the 7-cube "
        f"(3 integer fields exact, 1 real field within 1e-12), {elapsed:.1f}s",
    )


def test_criterion_2_fast_evaluator_matches_reference():
    t0 = time.perf_counter()
    grid = GridSpec.cube(1, 5, 1)
    fam = RectangleFamily(grid)
    weights = [
        (make_constant_weight(grid), True),
        (make_power_weight(grid, (1.0, 1.0)), True),
        (make_perturbed_weight(grid, amplitude=0.5, seed=2), False),
    ]
    pairs = 0
    for seed in range(10):
        f = _int_field(grid, seed, 0xACC2)
        for w, dyadic_exact in weights:
            ref = maximal_field_reference(f, w, fam)
            fast = maximal_field(f, w, fam)
            if dyadic_exact:
                np.testing.assert_array_equal(fast.values, ref.values)
            else:
                np.testing.assert_allclose(fast.values, ref.values, rtol=1e-12, atol=0.0)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    record_criterion(
        2,
        "PASS",
        f"prefix evaluator vs literal-sum reference on {pairs} (field, weight) "
        f"pairs at 5^3 (dyadic weights exact, perturbed within 1e-12), {elapsed:.1f}s",
    )


def _subset_minimum(w, r, threshold):
    # independent oracle: scan every subset of the just-over-threshold
    # size with itertools; supersets only add weight, so this is the
    # exact minimum weight fraction over qualifying sub-collections
    cells = w.rectangle_cell_weights(r).tolist()
    k = int(math.floor(r.volume * threshold)) + 1
    if k >= r.volume:
        return 1.0
    total = math.fsum(cells)
    best = min(sum(combo) for combo in itertools.combinations(cells, k))
    return best / total


def test_criterion_3_eta_matches_subset_oracle():
    t0 = time.perf_counter()
    grid = GridSpec(n=1, extents=((0, 15), (0, 0), (0, 0)), mu=0)
    rects = list(enumerate_rectangles(grid))
    assert len(rects) == 136
    compared = 0
    for a in (-0.5, 0.0, 1.0, 2.0):
        w = make_power_weight(grid, (a, 0.0))
        survey = eta_survey(w, grid, rectangle_budget=512, subset_samples=40, seed=11)
        assert survey.exhaustive and survey.rectangle_count == 136
        for row, r in zip(survey.rows, rects):
            assert row.eta_mc >= row.eta_exact - 1e-12
            u_len = r.bounds[0][1] - r.bounds[0][0] + 1
            if u_len > 12:
                continue
            oracle = _subset_minimum(w, r, survey.threshold)
            if a == -0.5:
                # irrational cell weights: summation order may differ
                assert abs(row.eta_exact - oracle) <= 1e-12
            else:
                assert row.eta_exact == oracle
            compared += 1
        assert survey.global_eta == min(row.eta_exact for row in survey.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    record_criterion(
        3,
        "PASS",
        f"exact eta vs exhaustive subset minimum on {compared} (rectangle, weight) "
        f"pairs, Monte Carlo bound dominates on all 4x136 rows, {elapsed:.1f}s",
    )


def test_criterion_4_selection_replay_clean():
    grid = GridSpec.cube(1, 16, 1)
    w = make_constant_weight(grid)
    for seed in range(20):
        _, sel = covering_experiment(grid, w, p=2.0, count=200, seed=seed)
        assert replay_selection(sel, grid) == []
    record_criterion(
        4,
        "PASS",
        "independent replay of the selection audit is clean for "
        "20 seeds x 200 rectangles on 16^3",
    )


def test_criterion_5_covering_ratio_stability():
    sizes = (8, 16, 24)
    weight_texts = ("constant", "power:1.0,1.0", "perturbed:0.5:7")
    natural_disjoint = 0
    worst_spread = 0.0
    for text in weight_texts:
        maxima = {"comparability_ratio": [], "indicator_ratio": []}
        for size in sizes:
            grid = GridSpec.cube(1, size, 1)
            w = parse_weight(grid, text)
            comp, ind = [], []
            for seed in range(20):
                rep, sel = covering_experiment(grid, w, p=2.0, count=200, seed=seed)
                assert math.isfinite(rep.comparability_ratio)
                assert math.isfinite(rep.indicator_ratio)
                assert rep.comparability_ratio >= 1.0
                assert rep.indicator_ratio >= 1.0
                if overlap_counts(sel.chosen(), grid).max() <= 1:
                    # pairwise-disjoint keepers: the indicator ratio must
                    # collapse to exactly 1, whatever the weight
                    natural_disjoint += 1
                    assert rep.indicator_ratio == 1.0
                comp.append(rep.comparability_ratio)
                ind.append(rep.indicator_ratio)
            maxima["comparability_ratio"].append(max(comp))
            maxima["indicator_ratio"].append(max(ind))
        for vals in maxima.values():
            spread = max(vals) / min(vals)
            worst_spread = max(worst_spread, spread)
            assert spread < 2.0
    assert natural_disjoint >= 1

    # constructed disjoint batch with an irrational weight, same collapse
    grid = GridSpec.cube(1, 8, 1)
    w = make_perturbed_weight(grid, amplitude=0.5, seed=7)
    apart = [
        Rectangle.from_bounds(((0, 1), (0, 1), (0, 1)), grid.factors),
        Rectangle.from_bounds(((4, 5), (4, 5), (4, 5)), grid.factors),
        Rectangle.from_bounds(((6, 7), (0, 1), (4, 5)), grid.factors),
    ]
    rep, sel = covering_experiment(grid, w, p=2.0, rects=apart)
    assert len(sel.chosen()) == 3
    assert rep.indicator_ratio == 1.0
    record_criterion(
        5,
        "PASS",
        f"ratios finite and >= 1 over 3 weights x 3 sizes x 20 seeds, "
        f"max spread across sizes {worst_spread:.3f} < 2, "
        f"{natural_disjoint} naturally disjoint runs all at ratio exactly 1",
    )


def test_criterion_6_weak_type_survey():
    t0 = time.perf_counter()
    sizes = (8, 16, 24)
    p_values = (1.5, 2.0, 3.0)
    row_count = 0
    worst_spread = 0.0
    for gen in sorted(GENERATORS):
        cfg = ExperimentConfig(
            grid_sizes=sizes,
            p_values=p_values,
            trials=50,
            generator=gen,
            weight="power:1.0,1.0",
            dyadic=True,
            seed=20260822,
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.weak_quantity <= row.strong_ratio * (1 + 1e-12)
            row_count += 1
        for p in p_values:
            maxima = []
            for size in sizes:
                vals = [
                    r.weak_quantity
                    for r in report.rows
                    if r.grid_size == size and r.p == p
                ]
                assert len(vals) == 50
                maxima.append(max(vals))
            spread = max(maxima) / min(maxima)
            worst_spread = max(worst_spread, spread)
            assert spread < 2.0

    # scale invariance spot checks: tripling the field or scaling the
    # weight by 7 must leave both quantities put, to relative 1e-12
    cfg = ExperimentConfig(
        grid_sizes=(8,), trials=1, weight="power:1.0,1.0", dyadic=True, seed=20260822
    )
    worst_dev = 0.0
    for gen in sorted(GENERATORS):
        grid = GridSpec.cube(1, 8, 1)
        w = parse_weight(grid, "power:1.0,1.0")
        fam = RectangleFamily(grid, dyadic_only=True)
        rng = np.random.default_rng(trial_seed(cfg, 8, 0))
        f = GENERATORS[gen](grid, rng)
        f3 = ScalarField(grid, 3.0 * f.values)
        w7 = w.scaled(7.0)
        mf = maximal_field(f, w, fam)
        variants = [(f3, w, maximal_field(f3, w, fam)), (f, w7, maximal_field(f, w7, fam))]
        for p in p_values:
            base_weak = weak_type_quantity(f, w, p, mf=mf)
            base_strong = strong_ratio(f, w, p, mf=mf)
            for ff, ww, m in variants:
                dev_w = abs(weak_type_quantity(ff, ww, p, mf=m) - base_weak)
                dev_s = abs(strong_ratio(ff, ww, p, mf=m) - base_strong)
                worst_dev = max(worst_dev, dev_w / base_weak, dev_s / base_strong)
    assert worst_dev <= 1e-12
    elapsed = time.perf_counter() - t0
    record_criterion(
        6,
        "PASS",
        f"{row_count} trial rows, 0 weak>strong violations, max size-spread "
        f"{worst_spread:.3f} < 2, scale-invariance deviation {worst_dev:.1e}, "
        f"{elapsed / 60:.1f} min",
    )


def test_criterion_7_zero_twist_matches_untwisted():
    grid = GridSpec.cube(1, 5, 0)
    fam = RectangleFamily(grid)
    weights = [
        make_constant_weight(grid),
        make_power_weight(grid, (1.0, 1.0)),
        _int_hash_weight(grid),
    ]
    pairs = 0
    for seed in range(5):
        f = _int_field(grid, seed, 0xACC7)
        for w in weights:
            twisted = maximal_field(f, w, fam)
            plain = untwisted_maximal_field(f, w, fam)
            np.testing.assert_array_equal(twisted.values, plain.values)
            pairs += 1
    record_criterion(
        7,
        "PASS",
        f"zero-twist field equals the independently coded untwisted operator "
        f"bitwise on {pairs} (field, weight) pairs at 5^3",
    )


def _bytes_modulo_timestamp(path):
    data = path.read_bytes()
    if path.suffix == ".json":
        return b"\n".join(ln for ln in data.split(b"\n") if b"_timestamp" not in ln)
    return data


def test_criterion_8_cli_echo_reruns(tmp_path):
    jobs = {
        "maximal": [
            "--size", "5", "--mu", "1", "--generator", "dense", "--gen-seed", "3",
            "--weight", "power:1.0,1.0", "--family", "dyadic", "--format", "csv",
        ],
        "cover": [
            "--size", "12", "--count", "60", "--seed", "4", "--p", "2.0",
            "--weight", "perturbed:0.5:7", "--slices",
        ],
        "weaktype": [
            "--sizes", "4,6", "--trials", "2", "--p-values", "1.5,2.0",
            "--generator", "sparse", "--seed", "9", "--weight", "power:1.0,1.0",
        ],
        "eta": ["--size", "2", "--subset-samples", "8", "--seed", "5"],
    }
    files = 0
    for cmd, flags in jobs.items():
        first = tmp_path / f"{cmd}_a"
        second = tmp_path / f"{cmd}_b"
        first.mkdir()
        second.mkdir()
        assert cli.main([cmd, *flags, "--out", str(first)]) == 0
        assert cli.main([cmd, "--config", str(first / "config_echo.json"), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()) and names
        for name in names:
            assert _bytes_modulo_timestamp(first / name) == _bytes_modulo_timestamp(
                second / name
            ), (cmd, name)
            files += 1
    record_criterion(
        8,
        "PASS",
        f"all 4 subcommands re-run from their config echo, {files} output "
        f"files byte-identical modulo timestamps",
    )
