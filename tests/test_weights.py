"""Weight construction, descriptors, and the comparability statistic.

The subset oracle used below enumerates candidate subsets with
itertools.combinations, entirely apart from the partial-sort route the
library takes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmax import (
    DomainError,
    GridSpec,
    InvariantViolation,
    RangeError,
    Rectangle,
    RectangleFamily,
    ScalarField,
    WeightField,
    eta_survey,
    exact_eta,
    hash_uniform,
    make_constant_weight,
    make_perturbed_weight,
    make_power_weight,
    maximal_field,
    parse_weight,
    weights,
)


def _line_grid(width: int) -> GridSpec:
    # one useful axis; v and t collapsed to single cells
    return GridSpec(n=1, extents=((0, width - 1), (0, 0), (0, 0)), factors=(1, 1), mu=1)


# ---------------------------------------------------------------------------
# constructors


def test_constant_weight():
    g = GridSpec.cube(1, 3)
    w = make_constant_weight(g, 2.5)
    assert w.values.shape == (3, 3)
    assert np.all(w.values == 2.5)
    with pytest.raises(RangeError):
        make_constant_weight(g, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_parameters_are_range_errors(bad):
    # used to pass the sign checks and fail later as an invariant violation
    g = _line_grid(4)
    with pytest.raises(RangeError):
        make_constant_weight(g, bad)
    with pytest.raises(RangeError):
        make_power_weight(g, (1.0, bad))
    with pytest.raises(RangeError):
        make_power_weight(g, (1.0, 0.0), centers=(bad, 0.0))
    with pytest.raises(RangeError):
        make_constant_weight(g).scaled(bad)
    for text in [f"constant:{bad}", f"power:1.0,{bad}", f"power:1.0,1.0@{bad},0.0"]:
        with pytest.raises(RangeError):
            parse_weight(g, text)


def test_power_weight_profile():
    g = _line_grid(4)
    w = make_power_weight(g, (1.0, 0.0))
    # |c + 1/2| at c = 0..3
    np.testing.assert_array_equal(w.values[:, 0], [0.5, 1.5, 2.5, 3.5])


def test_power_weight_center_shift():
    g = _line_grid(4)
    w = make_power_weight(g, (1.0, 0.0), centers=(2.0, 0.0))
    np.testing.assert_array_equal(w.values[:, 0], [1.5, 0.5, 0.5, 1.5])


def test_power_weight_is_separable():
    g = GridSpec(n=1, extents=((0, 3), (0, 2), (0, 1)), factors=(1, 1), mu=1)
    w = make_power_weight(g, (1.0, 2.0))
    prof_u = np.abs(np.arange(4) + 0.5) ** 1.0
    prof_v = np.abs(np.arange(3) + 0.5) ** 2.0
    np.testing.assert_allclose(w.values, np.outer(prof_u, prof_v), rtol=1e-15)


def test_power_weight_exponent_range():
    g = _line_grid(4)
    make_power_weight(g, (-0.5, 0.0))  # integrable end of the range
    with pytest.raises(RangeError):
        make_power_weight(g, (-1.0, 0.0))
    with pytest.raises(DomainError):
        make_power_weight(g, (1.0,))  # one exponent per spatial axis


def test_perturbed_weight_bounds_and_determinism():
    g = GridSpec.cube(1, 5)
    w1 = make_perturbed_weight(g, amplitude=0.5, seed=11)
    w2 = make_perturbed_weight(g, amplitude=0.5, seed=11)
    np.testing.assert_array_equal(w1.values, w2.values)
    assert np.all(w1.values > 0.5 - 1e-12)
    assert np.all(w1.values < 1.5)
    w3 = make_perturbed_weight(g, amplitude=0.5, seed=12)
    assert np.any(w1.values != w3.values)
    flat = make_perturbed_weight(g, amplitude=0.0, seed=11)
    np.testing.assert_array_equal(flat.values, 1.0)
    with pytest.raises(RangeError):
        make_perturbed_weight(g, amplitude=1.0)


def test_hash_uniform_behaviour():
    coords = np.array([[0, 0], [0, 1], [5, -3], [0, 0]])
    r = hash_uniform(3, coords)
    assert r.shape == (4,)
    assert np.all((-1.0 <= r) & (r < 1.0))
    assert r[0] == r[3]  # function of the cell, not of call order
    np.testing.assert_array_equal(r, hash_uniform(3, coords))
    assert np.any(r != hash_uniform(4, coords))


@pytest.mark.parametrize(
    "rule",
    [
        lambda c: np.ones(c.shape[:-1] + (2,)),  # wrong shape
        lambda c: np.ones(c.shape[:-2]),  # wrong shape
        lambda c: np.where(c[..., 0] == 1, 0.0, 1.0),
        lambda c: np.where(c[..., 1] == 2, -1.0, 1.0),
        lambda c: np.where(c[..., 0] == 0, np.nan, 1.0),
        lambda c: np.where(c[..., 1] == 0, np.inf, 1.0),
    ],
)
def test_construction_rejects_bad_rule(rule):
    with pytest.raises(InvariantViolation):
        WeightField(GridSpec.cube(1, 3), rule, "bad")


def test_values_are_the_rule_on_the_extents():
    # every parse_weight form, and a scaled weight: values, the rule on
    # the extents mesh and the interior of the expansion agree bitwise
    g = GridSpec(n=1, extents=((-2, 3), (1, 4), (0, 2)), factors=(1, 1), mu=2)
    mesh = np.stack(np.meshgrid(np.arange(-2, 4), np.arange(1, 5), indexing="ij"), axis=-1)
    ws = [parse_weight(g, t) for t in ["constant:2.5", "power:0.5,1.5@0.25,2.0", "perturbed:0.4:7|power:1.0,-0.5@1.0,3.0"]]
    for w in ws + [w.scaled(3.0) for w in ws]:
        assert w.values.shape == (6, 4) and not w.values.flags.writeable
        np.testing.assert_array_equal(w.values, w.spatial_values_at(mesh))
        np.testing.assert_array_equal(w.expanded_spatial((2, 1))[2:8, 1:5], w.values)


# ---------------------------------------------------------------------------
# extension off the extents


def test_expanded_spatial_interior_is_verbatim():
    g = GridSpec.cube(1, 4, mu=1)
    for w in [
        make_constant_weight(g),
        make_power_weight(g, (1.0, 2.0)),
        make_perturbed_weight(g, amplitude=0.3, seed=2),
    ]:
        exp = w.expanded_spatial((2, 3))
        assert exp.shape == (4 + 4, 4 + 6)
        np.testing.assert_array_equal(exp[2:6, 3:7], w.values)
        assert np.all(exp > 0)
        np.testing.assert_array_equal(w.expanded_spatial((0, 0)), w.values)


def test_expanded_spatial_ring_follows_the_rule():
    g = GridSpec.cube(1, 3, mu=1)
    w = make_power_weight(g, (1.0, 1.0))
    exp = w.expanded_spatial((1, 1))
    # cell (-1, -1) has weight |-1 + 1/2|^1 on both axes
    assert exp[0, 0] == pytest.approx(0.25, rel=1e-15)


def test_expansion_rejects_degenerate_rule():
    g = _line_grid(4)
    # positive on the extents, zero at u = -2
    w = make_power_weight(g, (1.0, 0.0), centers=(-1.5, 0.0))
    with pytest.raises(InvariantViolation):
        w.expanded_spatial((3, 0))


def test_overflowing_rule_is_a_range_error():
    g = GridSpec.cube(1, 8)
    # the rule overflows float64 on the extents
    for text in ["power:400.0,1.0", "perturbed:0.5:1|constant:1.7e308"]:
        with pytest.raises(RangeError, match="overflows"):
            parse_weight(g, text)
    # finite on the extents, overflowing on the expansion ring
    w = parse_weight(g, "power:300.0,1.0")
    with pytest.raises(RangeError, match="overflows"):
        w.expanded_spatial((7, 7))


def test_rectangle_cell_weights_and_scaling():
    g = _line_grid(4)
    w = make_power_weight(g, (1.0, 0.0))
    r = Rectangle.from_bounds([(0, 3), (0, 0), (0, 0)], (1, 1))
    np.testing.assert_array_equal(np.sort(w.rectangle_cell_weights(r)), [0.5, 1.5, 2.5, 3.5])
    r2 = Rectangle.from_bounds([(1, 2), (0, 0), (0, 0)], (1, 1))
    assert w.rectangle_cell_weights(r2).sum() == 4.0
    doubled = w.scaled(2.0)
    np.testing.assert_array_equal(doubled.values, 2.0 * w.values)
    assert doubled.descriptor != w.descriptor
    with pytest.raises(RangeError):
        w.scaled(0.0)


# ---------------------------------------------------------------------------
# descriptors


def test_parse_weight_round_trips():
    g = GridSpec.cube(1, 4)
    for text in ["constant", "constant:3.0", "power:1.0,2.0", "power:1.0,0.0@2.0,0.0",
                 "perturbed:0.5:9", "perturbed:0.25:3|power:1.0,1.0"]:
        w = parse_weight(g, text)
        again = parse_weight(g, w.descriptor)
        np.testing.assert_array_equal(w.values, again.values)


def test_parse_weight_rejects_unknown():
    g = GridSpec.cube(1, 4)
    with pytest.raises(DomainError):
        parse_weight(g, "gaussian:1.0")
    with pytest.raises(DomainError):
        parse_weight(g, "perturbed:0.1:2:3")


# ---------------------------------------------------------------------------
# the comparability statistic


def test_eta_constant_weight_half():
    g = GridSpec.cube(1, 3)
    w = make_constant_weight(g)
    r = Rectangle.from_bounds([(0, 1), (0, 1), (0, 1)], (1, 1))
    # V = 8 cells, keep floor(8/2) + 1 = 5 of them
    assert exact_eta(w, r) == 5.0 / 8.0


def test_eta_weighted_example():
    g = _line_grid(4)
    w = WeightField(g, lambda c: (c[..., 0] + 1.0), "ramp")
    r = Rectangle.from_bounds([(0, 3), (0, 0), (0, 0)], (1, 1))
    # cells weigh 1, 2, 3, 4; keep the 3 lightest of 4: 6 / 10
    assert exact_eta(w, r) == 0.6
    # stricter quarter threshold keeps floor(4/4) + 1 = 2 cells
    assert exact_eta(w, r, threshold=0.25) == 0.3


def test_eta_degenerate_and_bad_inputs():
    g = GridSpec.cube(1, 3)
    w = make_constant_weight(g)
    cell = Rectangle.from_bounds([(0, 0)] * 3, (1, 1))
    assert exact_eta(w, cell) == 1.0
    pair = Rectangle.from_bounds([(0, 1), (0, 0), (0, 0)], (1, 1))
    assert exact_eta(w, pair) == 1.0  # k = 2 >= V
    with pytest.raises(RangeError):
        exact_eta(w, cell, threshold=0.0)
    with pytest.raises(RangeError):
        exact_eta(w, cell, threshold=1.0)


def _subset_oracle(w, r, threshold=0.5):
    # smallest weighted share over subsets barely past the cell threshold;
    # supersets only add weight, so size k = floor(V * threshold) + 1 suffices
    vals = [float(x) for x in w.rectangle_cell_weights(r)]
    V = len(vals)
    k = int(np.floor(V * threshold)) + 1
    if k >= V:
        return 1.0
    total = sum(vals)
    return min(sum(sub) for sub in itertools.combinations(vals, k)) / total


def test_eta_matches_subset_oracle():
    g = _line_grid(8)
    r = Rectangle.from_bounds([(1, 6), (0, 0), (0, 0)], (1, 1))
    for a in (-0.5, 0.0, 1.0, 2.0):
        w = make_power_weight(g, (a, 0.0))
        assert exact_eta(w, r) == pytest.approx(_subset_oracle(w, r), rel=1e-14)
    w = make_perturbed_weight(g, amplitude=0.7, seed=5)
    assert exact_eta(w, r) == pytest.approx(_subset_oracle(w, r), rel=1e-14)


def test_eta_scale_invariance():
    g = _line_grid(8)
    w = make_power_weight(g, (1.5, 0.0))
    r = Rectangle.from_bounds([(2, 7), (0, 0), (0, 0)], (1, 1))
    base = exact_eta(w, r)
    assert exact_eta(w.scaled(2.0), r) == base  # power-of-two scaling is lossless
    assert exact_eta(w.scaled(7.0), r) == pytest.approx(base, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(2, 9),
    lo=st.integers(0, 3),
    a=st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]),
    theta=st.sampled_from([0.25, 0.5, 0.75]),
)
def test_eta_range_property(width, lo, a, theta):
    g = _line_grid(12)
    hi = min(lo + width - 1, 11)
    w = make_power_weight(g, (a, 0.0))
    r = Rectangle.from_bounds([(lo, hi), (0, 0), (0, 0)], (1, 1))
    eta = exact_eta(w, r, threshold=theta)
    assert 0.0 < eta <= 1.0
    assert eta == pytest.approx(_subset_oracle(w, r, theta), rel=1e-13)


# ---------------------------------------------------------------------------
# surveys


def test_eta_survey_exhaustive_on_small_grids():
    g = GridSpec.cube(1, 2)
    w = make_constant_weight(g)
    rep = eta_survey(w, g, rectangle_budget=512)
    assert rep.exhaustive
    assert rep.rectangle_count == 27  # 3 intervals per axis
    assert rep.global_eta == min(row.eta_exact for row in rep.rows)
    # constant weight: the 8-cell cube is the least comparable member
    assert rep.global_eta == 5.0 / 8.0


def test_eta_survey_sampling_over_budget():
    g = GridSpec.cube(1, 4)
    w = make_power_weight(g, (1.0, 1.0))
    rep = eta_survey(w, g, rectangle_budget=20, seed=3)
    assert not rep.exhaustive
    assert rep.rectangle_count == 20
    again = eta_survey(w, g, rectangle_budget=20, seed=3)
    assert [r.bounds for r in rep.rows] == [r.bounds for r in again.rows]


def test_eta_survey_monte_carlo_dominates():
    g = GridSpec.cube(1, 3)
    w = make_perturbed_weight(g, amplitude=0.6, seed=8)
    rep = eta_survey(w, g, rectangle_budget=512, subset_samples=25, seed=1)
    assert rep.exhaustive
    for row in rep.rows:
        assert row.eta_mc is not None
        assert row.eta_mc >= row.eta_exact - 1e-12
    assert rep.mc_global >= rep.global_eta - 1e-12


def test_subset_sums_match_a_literal_loop_on_the_same_stream():
    # the loop draws the sizes, then per sample V raw 64-bit keys, and sums
    # the cells of the m smallest keys; only the summation order differs,
    # so V * eps bounds the relative gap
    vals = np.random.default_rng(3).random(23) + 0.5
    V, k, samples = 23, 12, 50
    got = weights._subset_sums(vals, k, samples, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    m = rng.integers(k, V + 1, size=samples)
    want = np.array([vals[np.argsort(rng.bit_generator.random_raw(V))[:mi]].sum() for mi in m])
    np.testing.assert_allclose(got, want, rtol=V * 2.0**-52, atol=0)


class _TiedKeys:
    """A Generator's `integers`, with raw keys from {0, 1, 2}, so most
    rows tie at their cut; one word of the real stream per key, so the
    keys do not depend on how the draws are split into calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random_raw(self, size):
        return self._rng.bit_generator.random_raw(size) % np.uint64(3)


@pytest.mark.parametrize("block_bytes", [None, 1])
def test_subset_sums_break_key_ties_in_stable_key_order(monkeypatch, block_bytes):
    # weights 2^i: a sum is the bit mask of its subset, exactly
    if block_bytes is not None:
        monkeypatch.setattr(weights, "_BLOCK_BYTES", block_bytes)
    vals = 2.0 ** np.arange(6)
    V, k, samples = 6, 2, 200
    sums = weights._subset_sums(vals, k, samples, _TiedKeys(5))
    ref = _TiedKeys(5)
    m = ref.integers(k, V + 1, size=samples)
    keys = ref.random_raw((samples, V))
    ranked = np.sort(keys, axis=1)
    tied = [i for i in range(samples) if m[i] < V and ranked[i, m[i] - 1] == ranked[i, m[i]]]
    assert len(tied) > samples // 4
    masks = sums.astype(np.int64)
    np.testing.assert_array_equal(masks, sums)
    assert [bin(x).count("1") for x in masks] == list(m)
    want = [vals[np.argsort(keys[i], kind="stable")[: m[i]]].sum() for i in range(samples)]
    np.testing.assert_array_equal(sums, want)


def test_subset_sampler_distribution_is_exact():
    # weights 2^i: a subset's sum is its bit mask, so every sum names one subset
    vals = 2.0 ** np.arange(5)
    V, k, samples = 5, 3, 3000
    sums = weights._subset_sums(vals, k, samples, np.random.default_rng(2024))
    masks = sums.astype(np.int64)
    np.testing.assert_array_equal(masks, sums)
    sizes = np.array([bin(x).count("1") for x in masks])
    assert sizes.min() >= k
    admissible = [m for m in range(1 << V) if bin(m).count("1") >= k]
    assert len(admissible) == 16
    observed = np.array([np.count_nonzero(masks == m) for m in admissible])
    assert observed.sum() == samples and np.all(observed > 0)
    # m uniform on [k, V], then a uniform m-subset
    p = np.array([1.0 / (V - k + 1) / math.comb(V, bin(m).count("1")) for m in admissible])
    assert p.sum() == pytest.approx(1.0)
    expected = samples * p
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 37.7  # 99.9% quantile of chi-square with 15 degrees of freedom


def test_eta_survey_monte_carlo_ignores_block_size_and_leaves_exact_columns(monkeypatch):
    g = GridSpec.cube(1, 5)
    w = make_perturbed_weight(g, amplitude=0.5, seed=4)
    kw = dict(rectangle_budget=40, seed=9)
    default = eta_survey(w, g, subset_samples=64, **kw)
    assert not default.exhaustive  # rectangles and subsets share one stream
    monkeypatch.setattr(weights, "_BLOCK_BYTES", 1)  # one row per block
    assert eta_survey(w, g, subset_samples=64, **kw) == default
    plain = eta_survey(w, g, subset_samples=0, **kw)
    assert [(r.bounds, r.volume, r.eta_exact) for r in plain.rows] == [
        (r.bounds, r.volume, r.eta_exact) for r in default.rows
    ]
    assert plain.global_eta == default.global_eta


def test_eta_report_files(tmp_path):
    g = GridSpec.cube(1, 2)
    w = make_power_weight(g, (1.0, 0.0))
    rep = eta_survey(w, g, rectangle_budget=512, subset_samples=5, seed=2)
    cpath = tmp_path / "eta.csv"
    rep.write_csv(cpath)
    loaded = rep.to_json_dict()
    assert loaded["global_eta"] == rep.global_eta
    assert loaded["rectangle_count"] == rep.rectangle_count
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 1 + rep.rectangle_count


def test_fields_compare_and_hash_by_identity():
    # equality on the values arrays would raise, so fields compare as objects
    g = GridSpec.cube(1, 3)
    w = make_constant_weight(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    mf = maximal_field(f, w, RectangleFamily(g))
    assert w == w
    assert w != make_constant_weight(g)
    assert len({w, f, mf}) == 3
