"""Group law, twisted maximal averages, and their cross-checks.

Three independent evaluation routes meet here: the prefix-sum fast path,
the literal-summation reference, and a pure-python oracle written with
value_at / sample and nothing else.  On integer data with dyadic-rational
weights all three must agree bitwise; float sums of such products are
order-independent.
"""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongmax import (
    DomainError,
    GridSpec,
    GroupPoint,
    RangeError,
    Rectangle,
    RectangleFamily,
    ScalarField,
    SHIFT_STANDARD,
    SHIFT_SWAPPED,
    WeightField,
    argmax_rectangle,
    group_identity,
    group_inverse,
    group_multiply,
    hash_uniform,
    make_constant_weight,
    make_perturbed_weight,
    make_power_weight,
    maximal_field,
    maximal_group_form,
    parse_weight,
    read_field_binary,
    read_field_csv,
    twisted_shift,
    untwisted_maximal_field,
    write_field_binary,
    write_field_csv,
)
from strongmax import heisenberg
from strongmax.harness import GENERATORS
from strongmax.heisenberg import maximal_field_reference

DATA = os.path.join(os.path.dirname(__file__), "data")


def _int_field(grid, rng, lo=0, hi=10):
    return ScalarField(grid, rng.integers(lo, hi, size=grid.shape).astype(np.float64))


def _int_hash_weight(grid, seed=5):
    # integer-valued positive weights; products with integer fields stay
    # exactly representable, so cross-path comparisons can demand equality
    def rule(coords):
        return 1.0 + np.floor(3.0 * (hash_uniform(seed, coords) + 1.0))

    return WeightField(grid, rule, f"inthash:{seed}")


# ---------------------------------------------------------------------------
# group law


def test_group_product_example():
    p = GroupPoint.from_coords((1, 2, 3))
    q = GroupPoint.from_coords((4, 5, 6))
    # t part: 3 + 6 + mu * (1*5 - 2*4)
    assert group_multiply(p, q, mu=1).coords() == (5, 7, 6)
    assert group_multiply(p, q, mu=2).coords() == (5, 7, 3)
    assert group_multiply(p, q, mu=0).coords() == (5, 7, 9)


def test_group_product_two_block_example():
    p = GroupPoint.from_coords((1, 0, 0, 1, 0))
    q = GroupPoint.from_coords((0, 1, 1, 0, 2))
    # u.eta = 1, v.xi = 1: the twist cancels
    assert group_multiply(p, q, mu=3).coords() == (1, 1, 1, 1, 2)


def test_group_inverse_is_negation():
    p = GroupPoint.from_coords((1, 2, 3))
    assert group_inverse(p).coords() == (-1, -2, -3)


def test_group_dimension_mismatch():
    with pytest.raises(DomainError):
        group_multiply(GroupPoint.from_coords((1, 2, 3)), GroupPoint.from_coords((1, 2, 3, 4, 5)), 1)
    with pytest.raises(DomainError):
        GroupPoint.from_coords((1, 2))  # even length cannot split as (u, v, t)


@given(
    coords=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    mu=st.integers(-3, 3),
)
def test_group_inverse_property(coords, mu):
    p = GroupPoint.from_coords(coords)
    e = group_identity(p.n)
    assert group_multiply(p, group_inverse(p), mu) == e
    assert group_multiply(group_inverse(p), p, mu) == e
    assert group_multiply(p, e, mu) == p
    assert group_multiply(e, p, mu) == p


@given(
    triple=st.lists(st.lists(st.integers(-20, 20), min_size=5, max_size=5), min_size=3, max_size=3),
    mu=st.integers(-3, 3),
)
def test_group_associativity(triple, mu):
    p, q, r = (GroupPoint.from_coords(c) for c in triple)
    left = group_multiply(group_multiply(p, q, mu), r, mu)
    right = group_multiply(p, group_multiply(q, r, mu), mu)
    assert left == right


def test_twisted_shift_examples():
    assert twisted_shift((2,), (3,), (1,), (4,), 1) == 5  # 2*4 - 3*1
    assert twisted_shift((2,), (3,), (1,), (4,), 1, convention=SHIFT_SWAPPED) == -10
    assert twisted_shift((2,), (3,), (1,), (4,), 0) == 0
    with pytest.raises(DomainError):
        twisted_shift((2,), (3,), (1, 1), (4,), 1)


# ---------------------------------------------------------------------------
# a pure-python oracle for the twisted averages


def _twisted_oracle(f, w, x, fam, convention=SHIFT_STANDARD):
    g = f.grid
    n = g.n
    u, v = x[:n], x[n : 2 * n]
    best = 0.0
    for r in fam.rectangles_containing(x):
        L = r.t_len
        num = 0.0
        den = 0.0
        for cell in itertools.product(*[range(lo, hi + 1) for lo, hi in r.bounds[:-1]]):
            xi, eta = cell[:n], cell[n:]
            wt = w.value_at(cell)
            den += wt * L
            if convention == SHIFT_STANDARD:
                shift = g.mu * (sum(a * b for a, b in zip(u, eta)) - sum(a * b for a, b in zip(v, xi)))
            else:
                shift = g.mu * (sum(a * b for a, b in zip(u, xi)) - sum(a * b for a, b in zip(v, eta)))
            for tau in range(r.t_lo, r.t_hi + 1):
                num += wt * abs(f.sample((*cell, tau + shift)))
        best = max(best, num / den)
    return best


def test_point_values_match_python_oracle():
    rng = np.random.default_rng(404)
    for mu in (0, 1, 2):
        g = GridSpec.cube(1, 3, mu=mu)
        fam = RectangleFamily(g)
        f = _int_field(g, rng)
        for w in [make_constant_weight(g), make_power_weight(g, (1.0, 1.0))]:
            mf = maximal_field(f, w, fam)
            for x in [(0, 0, 0), (1, 1, 1), (2, 0, 1), (1, 2, 2)]:
                assert mf.values[x] == _twisted_oracle(f, w, x, fam)


def test_point_values_match_python_oracle_swapped():
    rng = np.random.default_rng(405)
    g = GridSpec.cube(1, 3, mu=2)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_constant_weight(g)
    mf = maximal_field(f, w, fam, SHIFT_SWAPPED)
    for x in [(0, 1, 2), (2, 2, 0)]:
        assert mf.values[x] == _twisted_oracle(f, w, x, fam, SHIFT_SWAPPED)


# ---------------------------------------------------------------------------
# fast path against the literal-summation reference


def test_fast_equals_reference_exactly_on_integer_data():
    rng = np.random.default_rng(99)
    for mu in (0, 1, 2):
        g = GridSpec.cube(1, 4, mu=mu)
        fam = RectangleFamily(g)
        f = _int_field(g, rng)
        for w in [make_constant_weight(g), make_power_weight(g, (1.0, 1.0)), _int_hash_weight(g)]:
            fast = maximal_field(f, w, fam).values
            ref = maximal_field_reference(f, w, fam).values
            np.testing.assert_array_equal(fast, ref)


def test_fast_matches_reference_with_irrational_weights():
    rng = np.random.default_rng(100)
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_perturbed_weight(g, amplitude=0.5, seed=3)
    fast = maximal_field(f, w, fam).values
    ref = maximal_field_reference(f, w, fam).values
    np.testing.assert_allclose(fast, ref, rtol=1e-12)


def test_fast_path_error_stays_inside_prefix_envelope():
    """Real fields with +-1e12 spikes on 5% of cells next to N(0, 1) values,
    perturbed weights, mu = +-3.  Every prefix entry, and every partial sum
    it is built from, is a sum of non-negative terms at most
    S = sum(omega * |f|); each takes at most L t-additions, one product
    with omega and sum(W) spatial additions, each rounding by at most
    eps * S.  A numerator is a signed sum of 2^(2n+1) such entries, folded
    through partial sums of at most 2^(2n) * S, and the weighted volume is
    at least min(omega), so an average may be off by
    R = 2^(2n+1) * (L + 1 + sum(W) + 2^(2n)) + 1 units of eps * S / min(omega).
    R leaves out the rounding of the weighted volumes and of the
    reference's own sums; the worst error seen on these fields is under
    one unit."""
    eps = np.finfo(np.float64).eps
    cases = [
        (GridSpec.cube(1, 5, mu=3), False, SHIFT_STANDARD),
        (GridSpec.cube(1, 6, mu=-3), True, SHIFT_SWAPPED),
        (GridSpec.cube(2, 3, mu=3, factors=(2, 2)), False, SHIFT_STANDARD),
    ]
    for seed, (g, dyadic, convention) in enumerate(cases):
        rng = np.random.default_rng(seed + 4)
        vals = rng.normal(size=g.shape)
        spikes = rng.random(g.shape) < 0.05
        vals[spikes] = 1e12 * rng.choice([-1.0, 1.0], size=int(spikes.sum()))
        f = ScalarField(g, vals)
        w = make_perturbed_weight(g, make_power_weight(g, (1.0,) * (2 * g.n)), amplitude=0.5, seed=seed)
        fam = RectangleFamily(g, dyadic_only=dyadic)
        fast = maximal_field(f, w, fam, convention).values
        ref = maximal_field_reference(f, w, fam, convention).values
        S = float((w.values[..., None] * np.abs(vals)).sum())
        R = 2 ** (2 * g.n + 1) * (g.t_len + 1 + sum(g.spatial_shape) + 4**g.n) + 1
        tol = R * eps * S / w.expanded_spatial(fam.margins()).min()
        err = np.abs(fast - ref)
        assert err.max() <= tol, (g, err.max() / tol)
        # the bound is far below the spikes' averages, and an entry moved
        # just past it fails
        assert tol < 1e-9 * ref.max()
        worst = np.unravel_index(np.argmax(err), err.shape)
        nudged = fast.copy()
        nudged[worst] = ref[worst] + 1.01 * tol
        assert np.abs(nudged - ref).max() > tol


def test_overflowing_sums_are_range_errors():
    """Finite data whose weighted sums overflow float64 raise RangeError
    before any box is summed, instead of returning NaN cells."""
    g = GridSpec.cube(1, 4)
    fam = RectangleFamily(g)
    with pytest.raises(RangeError, match="overflow"):
        maximal_field(ScalarField(g, np.full(g.shape, 1e308)), make_constant_weight(g), fam)
    # a zero field still needs the weighted volumes
    with pytest.raises(RangeError, match="weighted volumes"):
        maximal_field(ScalarField.zeros(g), make_constant_weight(g, 1e308), fam)
    # the largest sums that pass stay finite
    f = ScalarField(g, np.full(g.shape, 1e300))
    assert np.all(np.isfinite(maximal_field(f, make_constant_weight(g), fam).values))
    # on one-axis factors no partial sum passes S: 64 cells of 1.5 * 2^1017
    # (S = 1.5 * 2^1023) run exactly, 64 of 2^1018 (S = 2^1024) do not
    f = ScalarField(g, np.full(g.shape, 1.5 * 2.0**1017))
    np.testing.assert_array_equal(maximal_field(f, make_constant_weight(g), fam).values, f.values)
    with pytest.raises(RangeError, match="overflow"):
        maximal_field(ScalarField(g, np.full(g.shape, 2.0**1018)), make_constant_weight(g), fam)


def test_fast_equals_reference_two_block_grid():
    rng = np.random.default_rng(23)
    g = GridSpec(
        n=2,
        extents=((0, 3), (0, 2), (0, 3), (0, 2), (-1, 2)),
        factors=(2, 2),
        mu=2,
    )
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_constant_weight(g)
    np.testing.assert_array_equal(
        maximal_field(f, w, fam).values, maximal_field_reference(f, w, fam).values
    )


def test_fast_path_chunking_is_inert(monkeypatch):
    cases = [
        (GridSpec.cube(1, 5, mu=1), {}),
        # dyadic t lengths 1, 2, 4 on a t extent of 6: cuts sized from 4, not 6
        (GridSpec(n=1, extents=((0, 3), (0, 3), (0, 5)), mu=1), {"dyadic_only": True}),
        (
            GridSpec(n=2, extents=((-2, 0), (-1, 1), (-2, 0), (-1, 1), (-3, -1)), factors=(2, 2), mu=2),
            {"max_sides": (2, 3), "max_t_len": 2},
        ),
    ]
    for g, family_kw in cases:
        rng = np.random.default_rng(31)
        fam = RectangleFamily(g, **family_kw)
        f = _int_field(g, rng)
        w = make_power_weight(g, (1.0,) * (2 * g.n))
        cols = np.arange(int(np.prod(g.spatial_shape)))
        nbox = heisenberg._box_tables(fam)[0].shape[0]
        # per column, the distinct windows its rectangles clip to
        sp = 2 * g.n
        windows = []
        for cell in np.ndindex(*g.spatial_shape):
            x = tuple(c + lo for c, lo in zip(cell, g.lows[:sp])) + (g.t_lo,)
            clipped = {
                tuple((max(lo, a), min(hi, b)) for (lo, hi), (a, b) in zip(r.bounds[:sp], g.extents[:sp]))
                for r in fam.rectangles_containing(x)
            }
            windows.append(len(clipped))

        def run(budget):
            monkeypatch.setattr(heisenberg, "_BLOCK_BYTES", budget)
            blocks = heisenberg._box_blocks(f, w, fam, cols, SHIFT_STANDARD)
            return maximal_field(f, w, fam).values, [(k, bv.shape) for k, _, bv, _ in blocks]

        # one block of every group per column, then a few groups per block
        whole, shapes = run(1 << 40)
        assert sorted(k for k, _ in shapes) == list(range(len(cols)))
        assert all(s[1] == windows[k] for k, s in shapes) and max(windows) < nbox
        tiny, shapes = run(1 << 10)
        assert 1 < max(s[1] for _, s in shapes) < max(windows)
        np.testing.assert_array_equal(whole, tiny)
        np.testing.assert_array_equal(whole, maximal_field_reference(f, w, fam).values)


def test_column_runs_change_no_bit(monkeypatch):
    """The fast path shears, gathers and sums the spatial prefix of a run of
    anchor columns at once, as many as their gathered windows and prefixes
    fit _BLOCK_BYTES.  Runs of one column, of every column and of a size
    that leaves a partial last run give fields bitwise those of the
    default budget and of maximal_field_reference, and argmax_rectangle
    reads the field's maximum at its peak: on an n = 1 dyadic family, on
    n = 2 with factors (1, 3), a negative origin and a capped family, and
    under the swapped convention at mu = -2."""
    cases = [
        (GridSpec.cube(1, 6, mu=1), {"dyadic_only": True}, SHIFT_STANDARD),
        (
            GridSpec(n=2, extents=((-2, 0), (-1, 1), (-2, -1), (-1, 0), (-3, 0)), factors=(1, 3), mu=1),
            {"max_sides": (2, 2), "max_t_len": 3},
            SHIFT_STANDARD,
        ),
        (GridSpec(n=1, extents=((-2, 3), (0, 4), (-1, 4)), mu=-2), {}, SHIFT_SWAPPED),
    ]
    rng = np.random.default_rng(1717)
    prefix_sums = heisenberg.prefix_sums
    for g, family_kw, convention in cases:
        fam = RectangleFamily(g, **family_kw)
        f = _int_field(g, rng, -4, 6)
        w = _int_hash_weight(g)
        want = maximal_field(f, w, fam, convention).values
        np.testing.assert_array_equal(want, maximal_field_reference(f, w, fam, convention).values)
        x = tuple(int(c) + lo for c, lo in zip(np.unravel_index(np.argmax(want), want.shape), g.lows))
        # one column's gathered windows and zero-bordered spatial prefix
        cols = int(np.prod(g.spatial_shape))
        n_c = g.t_len + 2 * fam.t_len_choices()[-1]
        per_column = 8 * n_c * (cols + int(np.prod(np.add(g.spatial_shape, 1))))
        partial = 5 if cols % 5 else 7
        for run in (1, cols, partial):
            seen = []

            def spy(values, axes, out=None):
                if np.ndim(values) == 2 * g.n + 2:
                    seen.append(len(values))
                return prefix_sums(values, axes, out)

            monkeypatch.setattr(heisenberg, "prefix_sums", spy)
            monkeypatch.setattr(heisenberg, "_BLOCK_BYTES", run * per_column)
            got = maximal_field(f, w, fam, convention).values
            assert seen == [run] * (cols // run) + [cols % run] * (cols % run > 0), (g, run)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert argmax_rectangle(f, w, x, fam, convention)[1] == want.max()
            monkeypatch.undo()


def test_fast_path_corner_tables_clip_at_both_ends():
    """Full families on multi-axis factors, negative origins and mu = -2:
    on every spatial axis some box corner falls below the extents and some
    above them, so the fast path's per-axis corner tables clip at both
    ends.  The field equals the reference bitwise under both conventions,
    and argmax_rectangle reads the field's value at the extents' corners."""
    rng = np.random.default_rng(41)
    grids = [
        GridSpec(n=1, extents=((-4, 0), (-3, 0), (-2, 1)), factors=(2,), mu=-2),
        GridSpec(n=2, extents=((-3, -1), (-1, 0), (-2, -1), (-3, -1), (-2, 0)), factors=(1, 3), mu=-2),
        GridSpec(n=2, extents=((-2, 0), (-3, -2), (-1, 0), (-3, -1), (-1, 1)), factors=(3, 1), mu=-2),
    ]
    for g in grids:
        fam = RectangleFamily(g)
        for i in range(len(g.factors)):
            corners = heisenberg._factor_options(fam, i)[2]
            for j, a in enumerate(g.factor_axes(i)):
                at = corners[..., j][None] + np.arange(g.shape[a])[:, None, None]
                assert at.min() < 0 and at.max() > g.shape[a], (g, a)
        f = _int_field(g, rng, -4, 6)
        w = _int_hash_weight(g)
        for convention in (SHIFT_STANDARD, SHIFT_SWAPPED):
            fast = maximal_field(f, w, fam, convention).values
            np.testing.assert_array_equal(fast, maximal_field_reference(f, w, fam, convention).values)
            for x in (g.lows, tuple(hi for _, hi in g.extents)):
                _, val = argmax_rectangle(f, w, x, fam, convention)
                assert val == fast[tuple(c - lo for c, lo in zip(x, g.lows))]


def test_fast_path_window_gather_clamps_at_both_ends():
    """mu = +-3 on negative origins: some shears put a cell's n_c-wide
    window of its padded t-prefix row (n_c zeros, the t_len + 1 prefixes,
    n_c copies of the total) before the row's start and some past its end,
    so the window start clip(shear + 1 - top + n_c, 0, t_len + 1 + n_c)
    clamps at both ends under both conventions.  The field equals the
    reference bitwise."""
    rng = np.random.default_rng(43)
    cases = [
        (GridSpec(n=1, extents=((-4, 0), (-3, 0), (-2, 1)), mu=3), {}),
        (GridSpec(n=1, extents=((-5, -1), (-4, 1), (-3, 2)), mu=-3), {"dyadic_only": True}),
        (GridSpec(n=2, extents=((-3, -1), (-2, 0), (-1, 0), (-3, -1), (-2, 0)), factors=(2, 2), mu=-3), {}),
        (GridSpec(n=2, extents=((-2, 0), (-3, -1), (-2, -1), (-1, 0), (-4, -2)), factors=(1, 3), mu=3), {}),
    ]
    for g, family_kw in cases:
        fam = RectangleFamily(g, **family_kw)
        top = fam.t_len_choices()[-1]
        n_c = g.t_len + 2 * top
        axes = [np.arange(lo, hi + 1) for lo, hi in g.extents[: 2 * g.n]]
        coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * g.n)
        f = _int_field(g, rng, -4, 6)
        w = _int_hash_weight(g)
        for convention in (SHIFT_STANDARD, SHIFT_SWAPPED):
            start = heisenberg._shear(g.mu, coords, coords, convention) + 1 - top + n_c
            assert start.min() < 0 and start.max() > g.t_len + 1 + n_c, (g, convention)
            fast = maximal_field(f, w, fam, convention).values
            np.testing.assert_array_equal(fast, maximal_field_reference(f, w, fam, convention).values)


def test_weight_window_folds_give_the_boxes_weighted_volumes(monkeypatch):
    """Every box's own weighted volume at every anchor, folded out of the
    weight prefix as the least-volume table folds it (_column_volumes),
    equals the direct sum of omega over the box, each box is in exactly
    one group, and each group's volume wv, which _box_blocks reads from
    the table, is the least of its boxes': on a dyadic family whose
    longest side (4) is below its cap (5, the margin being 4), on
    per-factor side caps and on multi-axis factors.  Integer-valued
    weights keep every sum exact; a small budget splits each column into
    several blocks and the table's build into several runs."""
    cases = [
        (GridSpec.cube(1, 5, mu=1), {"dyadic_only": True}),
        (GridSpec(n=1, extents=((-2, 2), (0, 3), (0, 2)), mu=-1), {"max_sides": (2, 3)}),
        (GridSpec(n=2, extents=((-1, 1), (0, 2), (0, 1), (-2, 0), (0, 1)), factors=(2, 2), mu=2), {}),
        (GridSpec(n=2, extents=((0, 1), (-1, 1), (0, 2), (0, 1), (0, 1)), factors=(1, 3), mu=-1), {"dyadic_only": True}),
    ]
    monkeypatch.setattr(heisenberg, "_BLOCK_BYTES", 1 << 10)
    for g, family_kw in cases:
        fam = RectangleFamily(g, **family_kw)
        margins = fam.margins()
        w = _int_hash_weight(g)
        w_exp = w.expanded_spatial(margins)
        prefix = heisenberg._weight_prefix(w, fam)
        lo_off, side_ax, _ = heisenberg._box_tables(fam)
        spatial = list(np.ndindex(*g.spatial_shape))
        f = _int_field(g, np.random.default_rng(9))
        seen = np.zeros((len(spatial), len(lo_off)), dtype=int)
        for k, (gs, groups), _, wv in heisenberg._box_blocks(f, w, fam, np.arange(len(spatial)), SHIFT_STANDARD):
            vol = heisenberg._column_volumes(fam, *prefix, spatial[k])
            counts = [len(starts) for _, starts in groups]
            for q, got in enumerate(wv, start=gs):
                members = [np.split(order, starts[1:])[p] for (order, starts), p in zip(groups, np.unravel_index(q, counts))]
                sums = []
                for opts in itertools.product(*members):
                    j = np.ravel_multi_index(opts, vol.shape)
                    lo = np.add(spatial[k], margins) + lo_off[j]
                    want = w_exp[tuple(slice(a, a + s) for a, s in zip(lo, side_ax[j]))].sum()
                    assert vol[opts] == want, (g, spatial[k], j)
                    sums.append(want)
                    seen[k, j] += 1
                assert got == min(sums), (g, spatial[k], q)
        assert np.all(seen == 1)


# ---------------------------------------------------------------------------
# group form against the twisted form


def test_group_form_equals_twisted_form():
    rng = np.random.default_rng(7)
    for mu in (0, 1, 2):
        g = GridSpec.cube(1, 3, mu=mu)
        fam = RectangleFamily(g)
        f = _int_field(g, rng)
        w = make_constant_weight(g)
        mf = maximal_field(f, w, fam)
        for x in itertools.product(range(3), repeat=3):
            assert maximal_group_form(f, x, fam) == mf.values[x]


def test_group_form_equals_twisted_form_two_blocks():
    rng = np.random.default_rng(8)
    g = GridSpec(n=2, extents=((0, 2),) * 4 + ((0, 2),), factors=(2, 2), mu=2)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_constant_weight(g)
    mf = maximal_field(f, w, fam)
    for x in [(0, 0, 0, 0, 0), (1, 2, 0, 1, 2), (2, 2, 2, 2, 2), (0, 1, 2, 1, 0)]:
        assert maximal_group_form(f, x, fam) == mf.values[x]


def test_group_form_accepts_points_off_the_extents():
    g = GridSpec.cube(1, 3, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    assert maximal_group_form(f, (5, 5, 5), fam) >= 0.0
    with pytest.raises(DomainError):
        argmax_rectangle(f, make_constant_weight(g), (5, 5, 5), fam)


# ---------------------------------------------------------------------------
# shift conventions


def test_swapped_convention_differs_when_twisted():
    rng = np.random.default_rng(55)
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_constant_weight(g)
    std = maximal_field(f, w, fam, SHIFT_STANDARD).values
    swp = maximal_field(f, w, fam, SHIFT_SWAPPED).values
    assert np.any(std != swp)


def test_conventions_coincide_without_twist():
    rng = np.random.default_rng(56)
    g = GridSpec.cube(1, 4, mu=0)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_power_weight(g, (1.0, 1.0))
    np.testing.assert_array_equal(
        maximal_field(f, w, fam, SHIFT_STANDARD).values,
        maximal_field(f, w, fam, SHIFT_SWAPPED).values,
    )


def test_unknown_convention_rejected():
    g = GridSpec.cube(1, 3)
    fam = RectangleFamily(g)
    f = ScalarField.zeros(g)
    with pytest.raises(DomainError):
        maximal_field(f, make_constant_weight(g), fam, "sideways")


# ---------------------------------------------------------------------------
# untwisted comparison operator


def test_untwisted_equals_twisted_at_mu_zero():
    rng = np.random.default_rng(60)
    g = GridSpec.cube(1, 5, mu=0)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    for w in [make_constant_weight(g), make_power_weight(g, (1.0, 1.0)), _int_hash_weight(g, 9)]:
        np.testing.assert_array_equal(
            maximal_field(f, w, fam).values, untwisted_maximal_field(f, w, fam).values
        )


def test_untwisted_differs_when_twisted():
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (2, 1, 3))
    w = make_constant_weight(g)
    assert np.any(maximal_field(f, w, fam).values != untwisted_maximal_field(f, w, fam).values)


# ---------------------------------------------------------------------------
# frozen small examples


def test_point_mass_center_three_cube():
    g = GridSpec.cube(1, 3, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (1, 1, 1))
    mf = maximal_field(f, make_constant_weight(g), fam)
    assert mf.values[1, 1, 1] == 1.0  # the single-cell box
    assert mf.values.max() == 1.0


def test_point_mass_corner_three_cube():
    g = GridSpec.cube(1, 3, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (0, 0, 0))
    mf = maximal_field(f, make_constant_weight(g), fam)
    assert mf.values[0, 0, 0] == 1.0
    # (1,1,1): cheapest reach is the 2x2x2 box over [0,1]^3
    assert mf.values[1, 1, 1] == 1.0 / 8.0
    # (2,2,2): only side-3 boxes span from the corner, t shear included
    assert mf.values[2, 2, 2] == 1.0 / 27.0


def test_golden_maximal_field():
    # expected output committed from the literal-summation reference
    f = read_field_csv(os.path.join(DATA, "point_mass_3.csv"), mu=1)
    expected = read_field_csv(os.path.join(DATA, "maximal_3cube_pointmass.csv"), mu=1)
    g = f.grid
    mf = maximal_field(f, make_constant_weight(g), RectangleFamily(g))
    np.testing.assert_array_equal(mf.values, expected.values)


def test_golden_maximal_field_bytes(tmp_path):
    f = read_field_csv(os.path.join(DATA, "point_mass_3.csv"), mu=1)
    g = f.grid
    mf = maximal_field(f, make_constant_weight(g), RectangleFamily(g))
    out = tmp_path / "maximal.csv"
    write_field_csv(mf, out)
    with open(os.path.join(DATA, "maximal_3cube_pointmass.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_argmax_rectangle_point_mass():
    g = GridSpec.cube(1, 3, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.point_mass(g, (0, 0, 0))
    w = make_constant_weight(g)
    rect, val = argmax_rectangle(f, w, (1, 1, 1), fam)
    assert val == 1.0 / 8.0
    assert rect.bounds == ((0, 1), (0, 1), (0, 1))
    mf = maximal_field(f, w, fam)
    assert val == mf.values[1, 1, 1]


def test_argmax_rectangle_tie_breaks_lexicographically():
    g = GridSpec.cube(1, 3, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.constant(g, 1.0)
    rect, val = argmax_rectangle(f, make_constant_weight(g), (1, 1, 1), fam)
    assert val == 1.0
    # ties at 1 need every sheared sample inside the extents; with base
    # (0, 0) the columns shear t by -1 and +1, so only t = [1, 1] works,
    # and that beats any base-(1, 1) candidate lexicographically
    assert rect.bounds == ((0, 1), (0, 1), (1, 1))


def _argmax_walk(f, w, x, fam, convention=SHIFT_STANDARD):
    """Literal walk over every rectangle through x, each summed from its
    sheared samples; the first in (base corner, t_lo, sides, t length)
    among the largest averages wins."""
    g = f.grid
    n, sp = g.n, 2 * g.n
    anchor = np.asarray(x[:sp], dtype=np.int64)
    best, best_key = None, None
    for r in fam.rectangles_containing(x):
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in r.bounds[:sp]]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        u_eta = np.tensordot(mesh[..., n:sp], anchor[:n], axes=(-1, 0))
        v_xi = np.tensordot(mesh[..., :n], anchor[n:sp], axes=(-1, 0))
        u_xi = np.tensordot(mesh[..., :n], anchor[:n], axes=(-1, 0))
        v_eta = np.tensordot(mesh[..., n:sp], anchor[n:sp], axes=(-1, 0))
        shear = g.mu * ((u_eta - v_xi) if convention == SHIFT_STANDARD else (u_xi - v_eta))
        tau = np.arange(r.t_lo, r.t_hi + 1, dtype=np.int64)
        pts = np.empty(mesh.shape[:-1] + (tau.shape[0], g.d), dtype=np.int64)
        pts[..., :sp] = mesh[..., None, :]
        pts[..., sp] = tau[None, :] + shear[..., None]
        w_cells = w.spatial_values_at(mesh)
        num = float((np.abs(f.sample_many(pts)).sum(axis=-1) * w_cells).sum())
        val = num / (float(w_cells.sum()) * r.t_len)
        key = tuple(lo for lo, _ in r.bounds[:sp]) + (r.t_lo,) + r.sides + (r.t_len,)
        if best is None or val > best[1] or (val == best[1] and key < best_key):
            best, best_key = (r, val), key
    return best


def _exact_sweep_cases(count, seed):
    """Seeded small geometries with integer data: n = 1 and 2, singleton or
    paired factors, full and dyadic families with capped t lengths,
    negative origins, mu in [-2, 2], both conventions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 3))
        factors = () if rng.random() < 0.5 else (2,) * n
        widths = rng.integers(2, 5, size=3) if n == 1 else 2 + (rng.random(5) < 0.3)
        lows = rng.integers(-3, 2, size=2 * n + 1)
        extents = tuple((int(lo), int(lo + wd - 1)) for lo, wd in zip(lows, widths))
        g = GridSpec(n=n, extents=extents, factors=factors, mu=int(rng.integers(-2, 3)))
        cap = int(rng.integers(1, g.t_len + 1)) if rng.random() < 0.5 else 0
        fam = RectangleFamily(g, dyadic_only=bool(rng.random() < 0.5), max_t_len=cap)
        if rng.random() < 0.4:
            # mostly-ones fields tie often, so the tie-break order is exercised
            f = ScalarField(g, (rng.random(g.shape) < 0.9).astype(np.float64))
        else:
            f = _int_field(g, rng, -4, 6)
        w = make_constant_weight(g) if rng.random() < 0.5 else make_power_weight(g, (1.0,) * (2 * n))
        convention = SHIFT_STANDARD if rng.random() < 0.5 else SHIFT_SWAPPED
        x = tuple(int(lo + rng.integers(0, wd)) for lo, wd in zip(lows, widths))
        yield f, w, fam, convention, x


def _factor_cases():
    """Fixed n = 2 geometries whose factors have one to four axes, so folds
    of 2, 4, 8 and 16 corners run, odd and even: full and dyadic families,
    mu = -2 and 3, both conventions."""
    rng = np.random.default_rng(77)
    extents = ((0, 2), (-1, 0), (1, 2), (-2, -1), (-1, 1))
    factor_sets = ((1, 3), (3, 1), (4,), (1, 1, 2))
    for factors, dyadic, mu, convention in itertools.product(
        factor_sets, (False, True), (-2, 3), (SHIFT_STANDARD, SHIFT_SWAPPED)
    ):
        g = GridSpec(n=2, extents=extents, factors=factors, mu=mu)
        fam = RectangleFamily(g, dyadic_only=dyadic)
        x = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in extents)
        yield _int_field(g, rng, -4, 6), make_power_weight(g, (1.0,) * 4), fam, convention, x


def _pruning_geometries():
    """Grids and families to force pruning on: full families with t
    extents of 5 to 12, n = 1 and 2, factor partitions, side and t caps,
    |mu| > 1 and negative origins."""
    G = GridSpec
    return [
        (G.cube(1, 7, mu=1), {}),
        (G(n=1, extents=((-3, 1), (-2, 2), (-3, 8)), factors=(2,), mu=-3), {}),
        (G(n=1, extents=((0, 5), (-1, 3), (-2, 7)), mu=2), {"max_sides": (3, 2), "max_t_len": 6}),
        (G(n=2, extents=((0, 1), (-1, 0), (0, 1), (0, 1), (-3, 2)), factors=(2, 2), mu=-2), {}),
        (G(n=2, extents=((0, 1), (0, 1), (-1, 0), (0, 1), (0, 7)), factors=(1, 3), mu=3), {"max_t_len": 5}),
        (G(n=1, extents=((0, 2), (0, 2), (0, 4)), mu=1), {}),
    ]


def _pruning_fields(g, rng):
    """Integer data, a point mass (whose zero boxes tie zero thresholds),
    every generator, and real data with +-1e12 spikes."""
    yield _int_field(g, rng, -4, 6)
    yield ScalarField.point_mass(g, tuple(lo + (hi - lo) // 2 for lo, hi in g.extents))
    for name in sorted(GENERATORS):
        yield GENERATORS[name](g, rng)
    vals = rng.normal(size=g.shape)
    spikes = rng.random(g.shape) < 0.05
    vals[spikes] = 1e12 * rng.choice([-1.0, 1.0], size=int(spikes.sum()))
    yield ScalarField(g, vals)


def _assert_pruning_is_inert(f, w, fam, convention=SHIFT_STANDARD):
    """maximal_field with pruning forced on equals, bit for bit (signed
    zeros too), maximal_field with every t length run for every box."""
    got = []
    for prunes in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heisenberg, "_prunes", lambda *_: prunes)
            got.append(maximal_field(f, w, fam, convention).values)
    np.testing.assert_array_equal(got[0].view(np.int64), got[1].view(np.int64))


def test_box_pruning_changes_no_bit():
    rng = np.random.default_rng(808)
    for g, family_kw in _pruning_geometries():
        fam = RectangleFamily(g, **family_kw)
        sp = 2 * g.n
        power = make_power_weight(g, (1.0,) * sp)
        weights = [make_constant_weight(g), _int_hash_weight(g), make_perturbed_weight(g, power, amplitude=0.5, seed=2)]
        for i, f in enumerate(_pruning_fields(g, rng)):
            w = weights[i % len(weights)]
            for convention in (SHIFT_STANDARD, SHIFT_SWAPPED):
                _assert_pruning_is_inert(f, w, fam, convention)
    # constant fields under perturbed weights: averages tie within an ulp,
    # and a bound without its rounding margin changes a bit on both
    for extents, mu, weight in [
        (((0, 1), (0, 1), (0, 5)), -1, "perturbed:0.5:207|power:0.621817608258702,1.0"),
        (((0, 3), (0, 3), (0, 4)), 0, "perturbed:0.5:219|power:0.8891682283772107,1.0"),
    ]:
        g = GridSpec(n=1, extents=extents, mu=mu)
        _assert_pruning_is_inert(ScalarField.constant(g, 1.0), parse_weight(g, weight), RectangleFamily(g))
    # subnormal data: averages that round on the subnormal grid escape the
    # relative margin, and some underflow to -0.0, which a box the bound
    # skipped would have left +0.0
    g = GridSpec(n=1, extents=((0, 5), (-1, 3), (-2, 7)), mu=2)
    fam = RectangleFamily(g, max_sides=(3, 2), max_t_len=6)
    f = ScalarField(g, np.random.default_rng(0).integers(0, 3, size=g.shape) * 1e-310)
    _assert_pruning_is_inert(f, make_power_weight(g, (1.0, 1.0)), fam, SHIFT_SWAPPED)
    # the same data scaled into the normal range still prunes
    runs = []
    evaluate = heisenberg._raise_on_intervals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heisenberg, "_prunes", lambda *_: True)
        mp.setattr(heisenberg, "_raise_on_intervals", lambda row, bv, *a: runs.append(bv.shape[1]) or evaluate(row, bv, *a))
        maximal_field(ScalarField(g, f.values * 2.0**1000), make_power_weight(g, (1.0, 1.0)), fam, SHIFT_SWAPPED)
        assert runs
        runs.clear()
        maximal_field(f, make_power_weight(g, (1.0, 1.0)), fam, SHIFT_SWAPPED)
        assert not runs
    # the selection: the benchmark's full family at size 11 prunes; its
    # n = 2 field, the dyadic survey's sizes and short t extents do not
    assert heisenberg._prunes(11, list(range(1, 12)))
    assert not heisenberg._prunes(5, [1, 2, 4])
    assert not heisenberg._prunes(4, [1, 2, 3, 4])
    assert not any(heisenberg._prunes(T, [1, 2, 4, 8, 16][: T.bit_length()]) for T in (8, 16, 24))


def test_fast_path_zeros_are_unsigned():
    """Subnormal integer fields on a capped n = 1 geometry: averages that
    underflow to -0.0 leave no cell with its sign bit set, on the
    per-length loop and on the pruned path, and the zero cells are the
    reference's."""
    g = GridSpec(n=1, extents=((0, 5), (-1, 3), (-2, 7)), mu=2)
    fam = RectangleFamily(g, max_sides=(3, 2), max_t_len=6)
    w = make_power_weight(g, (1.0, 1.0))
    for seed in range(10):
        f = ScalarField(g, np.random.default_rng(seed).integers(0, 3, size=g.shape) * 1e-310)
        zeros = maximal_field_reference(f, w, fam, SHIFT_SWAPPED).values == 0
        for prunes in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(heisenberg, "_prunes", lambda *_: prunes)
                fast = maximal_field(f, w, fam, SHIFT_SWAPPED).values
            assert not np.signbit(fast).any(), (seed, prunes)
            np.testing.assert_array_equal(fast == 0, zeros)


def test_box_pruning_skips_boxes_and_stays_in_memory():
    """On the benchmark's full-family field (n = 1, size 11, integer data)
    maximal_field's allocation peak exceeds the per-length loop's by at
    most the unit averages and their mask, (n_c - 1) * nb * 9 bytes for
    blocks of nb boxes, and most boxes are skipped."""
    g = GridSpec.cube(1, 11, mu=1)
    fam = RectangleFamily(g)
    f = _int_field(g, np.random.default_rng(3), -9, 10)
    w = make_constant_weight(g)
    want = maximal_field(f, w, fam).values
    # the widest block, of the central anchors' groups
    blocks = heisenberg._box_blocks(f, w, fam, np.arange(int(np.prod(g.spatial_shape))), SHIFT_STANDARD)
    nb = max(bv.shape[1] for _, _, bv, _ in blocks)
    n_c = g.t_len + 2 * fam.t_len_choices()[-1]

    def peak():
        tracemalloc.start()
        try:
            got = maximal_field(f, w, fam).values
            return tracemalloc.get_traced_memory()[1], got
        finally:
            tracemalloc.stop()

    pruned, got = peak()
    np.testing.assert_array_equal(got, want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heisenberg, "_prunes", lambda *_: False)
        forced, got = peak()
    np.testing.assert_array_equal(got, want)
    assert pruned - forced <= (n_c - 1) * nb * 9, (pruned, forced)

    # the lengths past 1 run on under 5% of the (column, box) pairs
    runs = []
    evaluate = heisenberg._raise_on_intervals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heisenberg, "_raise_on_intervals", lambda row, bv, *a: runs.append(bv.shape[1]) or evaluate(row, bv, *a))
        np.testing.assert_array_equal(maximal_field(f, w, fam).values, want)
    boxes = heisenberg._box_tables(fam)[0].shape[0]
    assert 0 < sum(runs) < 0.05 * boxes * int(np.prod(g.spatial_shape))


def test_box_pruning_keeps_a_box_that_wins_only_over_two_slices():
    """At anchor u = 1 the unit maxima belong to the box {1} (500 at every t
    but 3) and at t = 3 to {0, 1} (500 + 3d, d = 2^-31), whose longer
    averages are lower.  The box {1, 2} leads at no t (500 - d at t = 2,
    500 + 2d at t = 3) but averages 500 + d/2 over both, so its slice at
    t = 3 must keep it against thresholds of 500, though it tops no slice
    and beats them by under 2e-12 relative.  Every sum here is exact."""
    g = GridSpec(n=1, extents=((0, 2), (0, 0), (0, 5)), mu=1)
    fam = RectangleFamily(g, max_sides=(2, 1))
    d = 2.0**-31
    vals = np.zeros(g.shape)
    vals[1, 0, :] = 500.0
    vals[1, 0, 3] = 0.0
    vals[2, 0, 2], vals[2, 0, 3], vals[0, 0, 3] = 500.0 - 2 * d, 1000.0 + 4 * d, 1000.0 + 6 * d
    f, w = ScalarField(g, vals), make_constant_weight(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heisenberg, "_prunes", lambda *_: True)
        fast = maximal_field(f, w, fam).values
    assert fast[1, 0, 2] == 500.0 + d / 2
    np.testing.assert_array_equal(fast, maximal_field_reference(f, w, fam).values)


def _pruning_argmax_cases():
    """Small pruning geometries with integer data for the literal walk."""
    rng = np.random.default_rng(515)
    grids = [
        (GridSpec(n=1, extents=((-1, 1), (0, 2), (-2, 6)), mu=-2), {}, SHIFT_STANDARD),
        (GridSpec(n=1, extents=((0, 2), (-2, -1), (0, 11)), factors=(2,), mu=3), {"max_t_len": 8}, SHIFT_SWAPPED),
    ]
    for g, family_kw, convention in grids:
        fam = RectangleFamily(g, **family_kw)
        assert heisenberg._prunes(g.t_len, fam.t_len_choices())
        for f in (_int_field(g, rng, -4, 6), ScalarField.point_mass(g, g.lows)):
            x = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in g.extents)
            yield f, make_power_weight(g, (1.0, 1.0)), fam, convention, x


def test_argmax_rectangle_matches_literal_walk_and_field():
    cases = itertools.chain(_exact_sweep_cases(60, 2024), _factor_cases(), _pruning_argmax_cases())
    for f, w, fam, convention, x in cases:
        rect, val = argmax_rectangle(f, w, x, fam, convention)
        want_rect, want_val = _argmax_walk(f, w, x, fam, convention)
        assert (rect, val) == (want_rect, want_val), (fam.describe(), f.grid, convention, x)
        fast = maximal_field(f, w, fam, convention).values
        np.testing.assert_array_equal(fast, maximal_field_reference(f, w, fam, convention).values)
        assert val == fast[tuple(c - lo for c, lo in zip(x, f.grid.lows))]


def _every_box_field(f, w, fam, convention):
    """maximal_field's values with every box averaged at its own weighted
    volume: each block's window sums handed to every member box of their
    group, each divided by the box's volume as the least-volume table
    folds it (_column_volumes), the maximum over every interval through
    every t, then + 0.0 as in the fast path."""
    g = f.grid
    T, lens = g.t_len, fam.t_len_choices()
    top = lens[-1]
    out = np.zeros((int(np.prod(g.spatial_shape)), T))
    prefix = heisenberg._weight_prefix(w, fam)
    for k, (gs, groups), bv, _ in heisenberg._box_blocks(f, w, fam, np.arange(len(out)), convention):
        vol = heisenberg._column_volumes(fam, *prefix, np.unravel_index(k, g.spatial_shape))
        labels = []
        for order, starts in groups:
            label = np.empty(len(order), dtype=np.intp)
            for q, members in enumerate(np.split(order, starts[1:])):
                label[members] = q
            labels.append(label)
        owner = np.ravel_multi_index(np.meshgrid(*labels, indexing="ij"), [len(s) for _, s in groups]).ravel() - gs
        box = np.flatnonzero((owner >= 0) & (owner < bv.shape[1]))
        sums, vols = bv[:, owner[box]], vol.reshape(-1)[box]
        for Lt in lens:
            lo = np.arange(top - Lt, top + T - 1)
            best = ((sums[lo + Lt] - sums[lo]) / (vols * Lt)).max(axis=1)
            for t in range(T):
                out[k, t] = max(out[k, t], best[t : t + Lt].max())
    return (out + 0.0).reshape(g.shape)


def test_window_groups_change_no_bit():
    """Boxes of an anchor that clip to one window of the extents are folded
    once, at their least weighted volume.  On narrow extents (widths 2 to
    4, so most boxes overhang one end or both), factors (2, 2), (1, 3) and
    singletons, negative origins and |mu| = 3: with integer-hash weights
    the fast path equals the reference bitwise and argmax_rectangle the
    literal walk; with a real weight spanning about 1e-12 .. 1e3 it equals
    every box averaged at its own volume, bit for bit, and
    argmax_rectangle reads the field's value at x.  A group's boxes are
    nested, so in exact arithmetic its first (smallest) box has the least
    volume; the folds of that real weight cancel, and on the third grid
    under the standard convention cells change if each group takes its
    first box's volume instead of the least."""
    G = GridSpec
    cases = [
        (G(n=2, extents=((-3, -1), (-2, -1), (-1, 1), (-4, -3), (-2, 1)), factors=(2, 2), mu=3), {}, 11),
        (G(n=2, extents=((-2, -1), (-1, 1), (-3, -2), (0, 2), (-3, 0)), factors=(1, 3), mu=-3), {}, 11),
        (G(n=2, extents=((-1, 1), (0, 2), (-2, -1), (1, 3), (2, 3)), mu=3), {}, 476),
        (G(n=1, extents=((-4, -2), (-2, 1), (-3, 1)), factors=(2,), mu=-3), {}, 11),
        (G(n=1, extents=((-3, 0), (-5, -3), (-2, 3)), mu=3), {"max_sides": (4, 2), "max_t_len": 4}, 11),
    ]
    rng = np.random.default_rng(1515)
    for g, family_kw, seed in cases:
        fam = RectangleFamily(g, **family_kw)
        f = _int_field(g, rng, -4, 6)
        real = ScalarField(g, np.exp(rng.uniform(-7, 7, size=g.shape)))
        x = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in g.extents)
        at = tuple(c - lo for c, lo in zip(x, g.lows))
        wide = WeightField(g, lambda c: 10.0 ** (7.5 * (hash_uniform(seed, c) + 1.0) - 12.0), f"wide:{seed}")
        for convention in (SHIFT_STANDARD, SHIFT_SWAPPED):
            w = _int_hash_weight(g)
            fast = maximal_field(f, w, fam, convention).values
            np.testing.assert_array_equal(fast, maximal_field_reference(f, w, fam, convention).values)
            assert argmax_rectangle(f, w, x, fam, convention) == _argmax_walk(f, w, x, fam, convention)
            for data in (f, real):
                fast = maximal_field(data, wide, fam, convention).values
                want = _every_box_field(data, wide, fam, convention)
                np.testing.assert_array_equal(fast.view(np.int64), want.view(np.int64))
                assert argmax_rectangle(data, wide, x, fam, convention)[1] == fast[at]


def _wide_weight(g, seed):
    # positive weights spanning about 1e-12 .. 1e3
    return WeightField(g, lambda c: 10.0 ** (7.5 * (hash_uniform(seed, c) + 1.0) - 12.0), f"wide:{seed}")


def _envelope(f, w, fam):
    """The error bound of test_fast_path_error_stays_inside_prefix_envelope:
    R units of eps * S / min(omega)."""
    g = f.grid
    S = float((w.values[..., None] * np.abs(f.values)).sum())
    R = 2 ** (2 * g.n + 1) * (g.t_len + 1 + sum(g.spatial_shape) + 4**g.n) + 1
    return R * np.finfo(np.float64).eps * S / w.expanded_spatial(fam.margins()).min()


def test_wide_range_weights_match_the_reference():
    """Weights of wide range: 1e-12 .. 1e3 on a full family over narrow
    n = 2 extents with constant data, and power:10,10 on the field that
    `maximal --size 6` generates.  On both, the inclusion-exclusion of the
    weight prefix cancels to a volume <= 0 on some box, which raised
    InvariantViolation.  Such volumes are summed directly: every least
    volume of the table is within 2^-19 of its group's least direct sum,
    the field stays inside the prefix envelope of the reference, and
    argmax_rectangle reads the field's maximum."""
    pinned = GridSpec(n=2, extents=((-4, -2), (-4, -2), (-3, -1), (-4, -3), (-3, -1)), mu=0)
    size6 = GridSpec.cube(1, 6, mu=1)
    cases = [
        (ScalarField.constant(pinned, 1.0), _wide_weight(pinned, 164)),
        (GENERATORS["point"](size6, np.random.default_rng([0, 0x3FA])), parse_weight(size6, "power:10,10")),
    ]
    for f, w in cases:
        g = f.grid
        sp = 2 * g.n
        fam = RectangleFamily(g)
        w_exp, pw = heisenberg._weight_prefix(w, fam)
        # every box's direct sum, and its plain inclusion-exclusion over pw
        boxes = [clip[4] for clip in heisenberg._clip_groups(fam)]
        direct = np.empty([len(side) for _, side, _ in boxes])
        plain = np.empty(direct.shape)
        for pick in np.ndindex(*direct.shape):
            lo = np.concatenate([box[0][j] for box, j in zip(boxes, pick)]) + fam.margins()
            side = np.asarray([boxes[i][1][pick[i]] for i in g.factor_of_axis])
            direct[pick] = w_exp[tuple(slice(a, a + s) for a, s in zip(lo, side))].sum()
            plain[pick] = sum(
                (-1) ** (sp - sum(high)) * pw[tuple(lo + np.multiply(high, side))]
                for high in itertools.product((0, 1), repeat=sp)
            )
        assert plain.min() <= 0
        for i, (_, _, first) in enumerate(boxes):
            direct = np.minimum.reduceat(direct, first, axis=i)
        W = heisenberg._least_volumes(fam, w_exp, pw)
        assert np.all(np.abs(W - direct) <= 2.0**-19 * direct), g
        fast = maximal_field(f, w, fam).values
        ref = maximal_field_reference(f, w, fam).values
        assert np.abs(fast - ref).max() <= _envelope(f, w, fam)
        x = tuple(int(c) + lo for c, lo in zip(np.unravel_index(np.argmax(fast), fast.shape), g.lows))
        assert argmax_rectangle(f, w, x, fam)[1] == fast.max()


def test_least_volume_table_is_built_in_budgeted_runs(monkeypatch):
    """n = 2, full family, size 4: its table of every box's volume would
    hold 22^4 floats (1.9 MB).  With _BLOCK_BYTES at 512 KiB the
    least-volume table is built one first-factor window at a time, and
    its allocations peak within 3 budgets above the table's own bytes
    (an unbudgeted build peaks near 4.8 MB); the table and the field are
    bitwise those of the default budget, under a real weight whose
    volumes round."""
    g = GridSpec.cube(2, 4, mu=1)
    fam = RectangleFamily(g)
    w = make_perturbed_weight(g, make_power_weight(g, (1.0,) * 4), amplitude=0.5, seed=4)
    f = _int_field(g, np.random.default_rng(12), -9, 10)
    prefix = heisenberg._weight_prefix(w, fam)
    want, field = heisenberg._least_volumes(fam, *prefix), maximal_field(f, w, fam).values
    budget = 1 << 19
    monkeypatch.setattr(heisenberg, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        W = heisenberg._least_volumes(fam, *prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(W.view(np.int64), want.view(np.int64))
    assert peak <= W.nbytes + 3 * budget, (peak, W.nbytes)
    np.testing.assert_array_equal(maximal_field(f, w, fam).values.view(np.int64), field.view(np.int64))


@st.composite
def _kernel_geometries(draw):
    """Narrow grids: n = 1 and 2, factor partitions, negative origins,
    |mu| <= 3; full, dyadic and capped families."""
    n = draw(st.integers(1, 2))
    factors = draw(st.sampled_from([(), (2,)] if n == 1 else [(), (2, 2), (1, 3), (3, 1), (4,), (1, 1, 2)]))
    widths = [draw(st.integers(1, 3 if n == 1 else 2)) for _ in range(2 * n)] + [draw(st.integers(1, 4))]
    extents = tuple((lo, lo + wd - 1) for lo, wd in zip(draw(st.lists(st.integers(-4, 2), min_size=len(widths), max_size=len(widths))), widths))
    g = GridSpec(n=n, extents=extents, factors=factors, mu=draw(st.integers(-3, 3)))
    kind = draw(st.sampled_from(["full", "dyadic", "capped"]))
    if kind != "capped":
        return g, {"dyadic_only": kind == "dyadic"}
    caps = tuple(draw(st.integers(1, g.cube_cap(i))) for i in range(len(g.factors)))
    return g, {"max_sides": caps, "max_t_len": draw(st.integers(1, g.t_len))}


@settings(max_examples=40, deadline=None)
@given(
    case=_kernel_geometries(),
    convention=st.sampled_from([SHIFT_STANDARD, SHIFT_SWAPPED]),
    weight_seed=st.integers(0, 999),
    wide=st.booleans(),
    data_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@example(
    case=(GridSpec(n=2, extents=((-4, -2), (-4, -2), (-3, -1), (-4, -3), (-3, -1)), mu=0), {}),
    convention=SHIFT_STANDARD,
    weight_seed=164,
    wide=True,
    data_seed=None,
)
def test_fast_path_equals_reference_on_random_geometries(case, convention, weight_seed, wide, data_seed):
    """With an integer-hash weight the fast path equals the reference
    bitwise; with a weight spanning 1e-12 .. 1e3 it stays inside the
    prefix envelope.  argmax_rectangle reads the field's value at a drawn
    point.  Data are integers in [-4, 5], or the constant 1 when
    data_seed is None."""
    g, family_kw = case
    fam = RectangleFamily(g, **family_kw)
    rng = np.random.default_rng(data_seed)
    f = ScalarField.constant(g, 1.0) if data_seed is None else _int_field(g, rng, -4, 6)
    w = _wide_weight(g, weight_seed) if wide else _int_hash_weight(g, weight_seed)
    fast = maximal_field(f, w, fam, convention).values
    ref = maximal_field_reference(f, w, fam, convention).values
    if wide:
        assert np.abs(fast - ref).max() <= _envelope(f, w, fam)
    else:
        np.testing.assert_array_equal(fast, ref)
    x = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in g.extents)
    assert argmax_rectangle(f, w, x, fam, convention)[1] == fast[tuple(c - lo for c, lo in zip(x, g.lows))]


# ---------------------------------------------------------------------------
# operator identities


def test_constant_field_has_unit_maximal_values():
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = ScalarField.constant(g, 1.0)
    mf = maximal_field(f, make_constant_weight(g), fam)
    np.testing.assert_array_equal(mf.values, 1.0)
    mfw = maximal_field(f, make_power_weight(g, (1.0, 1.0)), fam)
    np.testing.assert_allclose(mfw.values, 1.0, rtol=1e-12)
    assert np.all(mfw.values <= 1.0 + 1e-12)


def test_power_of_two_homogeneity_is_exact():
    rng = np.random.default_rng(70)
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_power_weight(g, (1.0, 1.0))
    base = maximal_field(f, w, fam).values
    doubled = maximal_field(ScalarField(g, 2.0 * f.values), w, fam).values
    np.testing.assert_array_equal(doubled, 2.0 * base)
    halved = maximal_field(ScalarField(g, 0.5 * f.values), w, fam).values
    np.testing.assert_array_equal(halved, 0.5 * base)


def test_general_homogeneity():
    rng = np.random.default_rng(71)
    g = GridSpec.cube(1, 4, mu=2)
    fam = RectangleFamily(g)
    f = ScalarField(g, rng.uniform(-2, 2, size=g.shape))
    w = make_perturbed_weight(g, amplitude=0.4, seed=1)
    base = maximal_field(f, w, fam).values
    scaled = maximal_field(ScalarField(g, 3.0 * f.values), w, fam).values
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


def test_weight_scaling_cancels():
    rng = np.random.default_rng(72)
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    w = make_power_weight(g, (1.0, 2.0))
    np.testing.assert_allclose(
        maximal_field(f, w.scaled(7.0), fam).values,
        maximal_field(f, w, fam).values,
        rtol=1e-12,
    )


def test_sublinearity_and_monotonicity():
    rng = np.random.default_rng(73)
    g = GridSpec.cube(1, 4, mu=1)
    fam = RectangleFamily(g)
    w = make_constant_weight(g)
    a = _int_field(g, rng, -5, 6)
    b = _int_field(g, rng, -5, 6)
    ma = maximal_field(a, w, fam).values
    mb = maximal_field(b, w, fam).values
    msum = maximal_field(ScalarField(g, a.values + b.values), w, fam).values
    assert np.all(msum <= ma + mb + 1e-12)
    small = ScalarField(g, np.abs(a.values))
    big = ScalarField(g, np.abs(a.values) + np.abs(b.values))
    assert np.all(
        maximal_field(small, w, fam).values <= maximal_field(big, w, fam).values + 1e-12
    )


def test_dyadic_family_is_dominated():
    rng = np.random.default_rng(74)
    g = GridSpec.cube(1, 5, mu=1)
    f = _int_field(g, rng)
    w = make_power_weight(g, (1.0, 1.0))
    full = maximal_field(f, w, RectangleFamily(g)).values
    dyad = maximal_field(f, w, RectangleFamily(g, dyadic_only=True)).values
    assert np.all(dyad <= full)
    assert np.any(dyad < full)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), mu=st.integers(-2, 2))
def test_equivalence_property_random_grids(seed, mu):
    rng = np.random.default_rng(seed)
    g = GridSpec.cube(1, 3, mu=mu)
    fam = RectangleFamily(g)
    f = _int_field(g, rng)
    mf = maximal_field(f, make_constant_weight(g), fam)
    x = tuple(int(c) for c in rng.integers(0, 3, size=3))
    assert maximal_group_form(f, x, fam) == mf.values[x]


# ---------------------------------------------------------------------------
# field files


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    g = GridSpec(n=1, extents=((-1, 2), (0, 3), (-2, 0)), factors=(1, 1), mu=2)
    f = ScalarField(g, rng.uniform(-3, 3, size=g.shape))
    p = tmp_path / "field.csv"
    write_field_csv(f, p)
    back = read_field_csv(p, mu=2)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_field_binary_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    g = GridSpec(n=2, extents=((0, 2), (0, 1), (0, 2), (0, 1), (-1, 1)), factors=(2, 2), mu=1)
    f = ScalarField(g, rng.uniform(-1, 1, size=g.shape))
    p = tmp_path / "field.bin"
    write_field_binary(f, p)
    back = read_field_binary(p, mu=1, factors=(2, 2))
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_field_file_errors(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DomainError):
        read_field_binary(p)
    q = tmp_path / "bad.csv"
    # inferred extents span 2x1x2 cells but only two rows are present
    q.write_text("u1,v1,t,value\n0,0,0,1.0\n1,0,1,2.0\n")
    with pytest.raises(DomainError):
        read_field_csv(q)


def test_incomplete_csv_rejected(tmp_path):
    g = GridSpec.cube(1, 2)
    f = ScalarField.zeros(g)
    p = tmp_path / "field.csv"
    write_field_csv(f, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
    with pytest.raises(DomainError):
        read_field_csv(p)
