"""Norms, ladders, weak-type quantities, generators, and experiment runs."""


import numpy as np
import pytest

from strongmax import (
    DomainError,
    ExperimentConfig,
    GridSpec,
    RangeError,
    RectangleFamily,
    ScalarField,
    gen_box_indicators,
    gen_dense_uniform,
    gen_point_masses,
    gen_sparse_signs,
    lambda_ladder,
    lp_norm,
    make_constant_weight,
    make_power_weight,
    maximal_field,
    run_experiment,
    strong_ratio,
    weak_type_quantity,
    worker_count,
)
from strongmax.harness import GENERATORS, trial_seed


def _grid(size=4):
    return GridSpec.cube(1, size, mu=1)


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_example():
    g = _grid(2)
    vals = np.zeros(g.shape)
    vals[0, 0, 0] = 2.0
    vals[0, 0, 1] = 1.0
    vals[0, 1, 0] = 1.0
    vals[1, 0, 0] = -1.0
    f = ScalarField(g, vals)
    w = make_constant_weight(g)
    # sum of |f|^2 is 4 + 1 + 1 + 1
    assert lp_norm(f, w, 2.0) == pytest.approx(np.sqrt(7.0), rel=1e-15)


def test_lp_norm_weighted_and_invalid_p():
    g = GridSpec(n=1, extents=((0, 1), (0, 0), (0, 0)), factors=(1, 1), mu=1)
    w = make_power_weight(g, (1.0, 0.0))
    f = ScalarField.constant(g, 1.0)
    # weights 0.5 and 1.5 on the two cells
    assert lp_norm(f, w, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert lp_norm(f, w, 1.0) == 2.0  # plain weighted mass
    with pytest.raises(RangeError):
        lp_norm(f, w, 0.5)


# ---------------------------------------------------------------------------
# ladders


def test_lambda_ladder_shape_and_bracketing():
    g = _grid(3)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    mf = maximal_field(f, make_constant_weight(g), fam)
    lad = lambda_ladder(mf, rungs=16)
    assert lad.shape == (16,)
    assert np.all(np.diff(lad) > 0)
    top = float(mf.values.max())
    assert lad[-1] < top
    assert top - lad[-1] < 1e-8 * top  # close enough to catch the final jump
    positive = mf.values[mf.values > 0]
    assert lad[0] <= positive.min()


def test_lambda_ladder_single_level():
    g = _grid(3)
    fam = RectangleFamily(g)
    f = ScalarField.constant(g, 2.0)
    mf = maximal_field(f, make_constant_weight(g), fam)
    lad = lambda_ladder(mf, rungs=8)
    assert np.all(lad < 2.0)
    assert np.all(lad > 2.0 * (1 - 1e-6))


def test_lambda_ladder_rejects_zero_field():
    g = _grid(3)
    fam = RectangleFamily(g)
    mf = maximal_field(ScalarField.zeros(g), make_constant_weight(g), fam)
    with pytest.raises(DomainError):
        lambda_ladder(mf)


# ---------------------------------------------------------------------------
# weak-type quantities


def test_weak_type_point_mass_frozen_value():
    # untwisted center mass on the 3-cube: every point sees a 2x2x2 box
    # holding it and the mass, so the level set at 1/9 is the whole grid
    # and the quantity at that single rung is (1/9) * 27^(1/2); a nonzero
    # twist would shear some of those boxes out of reach
    g = GridSpec.cube(1, 3, mu=0)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    w = make_constant_weight(g)
    mf = maximal_field(f, w, fam)
    assert np.all(mf.values > 1.0 / 9.0)
    got = weak_type_quantity(f, w, 2.0, ladder=[1.0 / 9.0], mf=mf)
    assert got == pytest.approx(np.sqrt(27.0) / 9.0, rel=1e-15)


def test_weak_type_constant_field_approaches_one():
    g = _grid(4)
    fam = RectangleFamily(g)
    f = ScalarField.constant(g, 1.0)
    w = make_constant_weight(g)
    got = weak_type_quantity(f, w, 2.0, mf=maximal_field(f, w, fam))
    # the top rung sits a bracket below the single level
    assert 1.0 - 1e-8 < got < 1.0


def test_weak_type_ladder_above_the_maximum():
    g = _grid(3)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    w = make_constant_weight(g)
    assert weak_type_quantity(f, w, 2.0, ladder=[5.0], mf=maximal_field(f, w, fam)) == 0.0


def test_weak_type_rejects_bad_inputs():
    g = _grid(3)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    w = make_constant_weight(g)
    mf = maximal_field(f, w, fam)
    with pytest.raises(RangeError):
        weak_type_quantity(f, w, 1.0, mf=mf)
    zero = ScalarField.zeros(g)
    with pytest.raises(DomainError):
        weak_type_quantity(zero, w, 2.0, ladder=[1.0], mf=maximal_field(zero, w, fam))
    with pytest.raises(RangeError):
        weak_type_quantity(f, w, 2.0, ladder=[-1.0], mf=mf)


def test_chebyshev_weak_below_strong():
    rng = np.random.default_rng(90)
    g = _grid(6)
    fam = RectangleFamily(g, dyadic_only=True)
    w = make_power_weight(g, (1.0, 1.0))
    for gen in GENERATORS.values():
        f = gen(g, rng)
        mf = maximal_field(f, w, fam)
        for p in (1.5, 2.0, 3.0):
            weak = weak_type_quantity(f, w, p, mf=mf)
            strong = strong_ratio(f, w, p, mf=mf)
            assert weak <= strong * (1 + 1e-12)


def test_strong_ratio_unit_example():
    g = _grid(4)
    fam = RectangleFamily(g)
    f = ScalarField.constant(g, 3.0)
    w = make_constant_weight(g)
    assert strong_ratio(f, w, 2.0, mf=maximal_field(f, w, fam)) == 1.0


def test_strong_ratio_at_least_one_near():
    rng = np.random.default_rng(91)
    g = _grid(5)
    fam = RectangleFamily(g)
    w = make_power_weight(g, (0.5, 1.0))
    f = ScalarField(g, rng.uniform(0, 3, size=g.shape))
    # the unit box at each point reproduces |f| up to rounding
    assert strong_ratio(f, w, 2.0, mf=maximal_field(f, w, fam)) >= 1.0 - 1e-12


def test_weak_homogeneity_and_weight_scale():
    rng = np.random.default_rng(92)
    g = _grid(5)
    fam = RectangleFamily(g)
    w = make_power_weight(g, (1.0, 1.0))
    f = ScalarField(g, rng.integers(0, 8, size=g.shape).astype(np.float64))
    tripled = ScalarField(g, 3.0 * f.values)
    scaled = w.scaled(7.0)
    mf = maximal_field(f, w, fam)
    mf_tripled = maximal_field(tripled, w, fam)
    mf_scaled = maximal_field(f, scaled, fam)
    for p in (1.5, 2.0):
        base_w = weak_type_quantity(f, w, p, mf=mf)
        base_s = strong_ratio(f, w, p, mf=mf)
        assert weak_type_quantity(tripled, w, p, mf=mf_tripled) == pytest.approx(base_w, rel=1e-12)
        assert strong_ratio(tripled, w, p, mf=mf_tripled) == pytest.approx(base_s, rel=1e-12)
        assert weak_type_quantity(f, scaled, p, mf=mf_scaled) == pytest.approx(base_w, rel=1e-12)
        assert strong_ratio(f, scaled, p, mf=mf_scaled) == pytest.approx(base_s, rel=1e-12)


# ---------------------------------------------------------------------------
# generators


def test_generators_are_deterministic_and_nonzero():
    g = _grid(6)
    for name, gen in GENERATORS.items():
        f1 = gen(g, np.random.default_rng(5))
        f2 = gen(g, np.random.default_rng(5))
        np.testing.assert_array_equal(f1.values, f2.values)
        assert np.any(f1.values != 0.0), name
        assert f1.grid == g


def test_generator_value_ranges():
    g = _grid(8)
    rng = np.random.default_rng(6)
    boxes = gen_box_indicators(g, rng)
    assert set(np.unique(boxes.values)) <= {0.0, 1.0}
    sparse = gen_sparse_signs(g, rng)
    assert set(np.unique(sparse.values)) <= {-1.0, 0.0, 1.0}
    dense = gen_dense_uniform(g, rng)
    assert np.all((dense.values >= 0.0) & (dense.values <= 1.0))
    points = gen_point_masses(g, rng)
    assert np.count_nonzero(points.values) <= 8


# ---------------------------------------------------------------------------
# experiment runs


def test_run_experiment_shape_and_determinism():
    cfg = ExperimentConfig(grid_sizes=(4, 6), trials=2, p_values=(1.5, 2.0),
                           weight="power:1.0,1.0", generator="sparse", seed=11)
    rep = run_experiment(cfg)
    assert len(rep.rows) == 2 * 2 * 2
    sizes = {r.grid_size for r in rep.rows}
    assert sizes == {4, 6}
    again = run_experiment(cfg)
    assert rep.rows == again.rows
    other = run_experiment(ExperimentConfig(grid_sizes=(4, 6), trials=2, p_values=(1.5, 2.0),
                                            weight="power:1.0,1.0", generator="sparse", seed=12))
    assert other.rows != rep.rows


def test_trial_seeds_are_distinct():
    cfg = ExperimentConfig(grid_sizes=(4, 8), trials=3, seed=7)
    seeds = {tuple(trial_seed(cfg, s, t)) for s in (4, 8) for t in range(3)}
    assert len(seeds) == 6


def test_report_aggregates_and_scaling():
    cfg = ExperimentConfig(grid_sizes=(4, 6), trials=3, p_values=(2.0,),
                           generator="dense", seed=3)
    rep = run_experiment(cfg)
    agg = rep.aggregates()
    for size in (4, 6):
        cell = agg[str(size)][repr(2.0)]
        rows = [r for r in rep.rows if r.grid_size == size]
        assert cell["max_weak"] == max(r.weak_quantity for r in rows)
        assert cell["max_strong"] == max(r.strong_ratio for r in rows)
    table = rep.scaling_table()
    assert len(table) == 1
    by_size = table[0]["max_weak_by_size"]
    assert set(by_size) == {"4", "6"}
    vals = list(by_size.values())
    assert table[0]["spread"] == max(vals) / min(vals)


def test_report_files(tmp_path):
    cfg = ExperimentConfig(grid_sizes=(4,), trials=2, p_values=(2.0,), seed=1)
    rep = run_experiment(cfg)
    cpath = tmp_path / "rep.csv"
    rep.write_csv(cpath)
    loaded = rep.to_json_dict()
    assert list(loaded["config"]["grid_sizes"]) == [4]
    assert len(loaded["rows"]) == 2
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("grid_size,")


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("STRONGMAX_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("STRONGMAX_WORKERS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("STRONGMAX_WORKERS", "junk")
    assert worker_count() == 1
    monkeypatch.setenv("STRONGMAX_WORKERS", "0")
    assert worker_count() == 1


def test_run_experiment_rows_do_not_depend_on_workers(monkeypatch):
    cfg = ExperimentConfig(n=1, grid_sizes=(4, 6), trials=3, dyadic=True, seed=5)
    monkeypatch.setenv("STRONGMAX_WORKERS", "1")
    serial = run_experiment(cfg).rows
    monkeypatch.setenv("STRONGMAX_WORKERS", "2")
    assert run_experiment(cfg).rows == serial


def test_dyadic_run_is_dominated_by_full():
    rng = np.random.default_rng(44)
    g = _grid(6)
    w = make_power_weight(g, (1.0, 1.0))
    f = ScalarField(g, rng.integers(0, 6, size=g.shape).astype(np.float64))
    full_fam = RectangleFamily(g)
    dyad_fam = RectangleFamily(g, dyadic_only=True)
    mf_full = maximal_field(f, w, full_fam)
    mf_dyad = maximal_field(f, w, dyad_fam)
    for p in (1.5, 2.0):
        assert strong_ratio(f, w, p, mf=mf_dyad) <= strong_ratio(f, w, p, mf=mf_full) + 1e-12
        shared = lambda_ladder(mf_full, 32)
        weak_dyad = weak_type_quantity(f, w, p, ladder=shared, mf=mf_dyad)
        weak_full = weak_type_quantity(f, w, p, ladder=shared, mf=mf_full)
        assert weak_dyad <= weak_full + 1e-12
