"""Grid, rectangle, prefix-sum and enumeration tests.

Frozen values are either asserted from the definitions directly or
recomputed here by brute force (full enumeration, np.cumsum) so the
numpy paths have an independent check.
"""

import hashlib
import json

import numpy as np
import pytest

from strongmax import (
    DomainError,
    GridSpec,
    Rectangle,
    RectangleFamily,
    ScalarField,
    count_rectangles,
    enumerate_rectangles,
    grid_from_config,
    grid_to_config,
    load_grid_config,
    random_rectangle,
)
from strongmax.lattice import prefix_sums


# ---------------------------------------------------------------------------
# grids


def test_cube_grid_shape():
    g = GridSpec.cube(1, 3)
    assert g.d == 3
    assert g.extents == ((0, 2), (0, 2), (0, 2))
    assert g.factors == (1, 1)
    assert g.mu == 1
    assert g.shape == (3, 3, 3)
    assert g.cell_count == 27
    assert g.t_axis == 2


def test_grid_factor_bookkeeping():
    g = GridSpec(n=2, extents=((0, 3), (0, 3), (0, 2), (0, 2), (-1, 1)), factors=(2, 2), mu=2)
    assert g.factor_starts == (0, 2)
    assert list(g.factor_axes(0)) == [0, 1]
    assert list(g.factor_axes(1)) == [2, 3]
    assert g.factor_of_axis == (0, 0, 1, 1)
    # cube cap is the tightest extent width within the factor
    assert g.cube_cap(0) == 4
    assert g.cube_cap(1) == 3
    assert g.spatial_shape == (4, 4, 3, 3)
    assert g.t_len == 3


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(n=0, extents=((0, 1),), factors=(), mu=1)
    with pytest.raises(DomainError):
        GridSpec(n=1, extents=((0, 1), (1, 0), (0, 1)), factors=(1, 1), mu=1)
    with pytest.raises(DomainError):
        GridSpec(n=1, extents=((0, 1),) * 3, factors=(1,), mu=1)  # factors must sum to 2n
    with pytest.raises(DomainError):
        GridSpec.cube(1, 2**31)  # shear offsets would leave the exact-integer range


def test_grid_contains():
    g = GridSpec.cube(1, 3)
    assert g.contains((0, 0, 0)) and g.contains((2, 2, 2))
    assert not g.contains((3, 0, 0))
    assert not g.contains((0, -1, 0))


def test_grid_config_round_trip(tmp_path):
    g = GridSpec(n=2, extents=((0, 3), (0, 3), (0, 2), (0, 2), (-1, 1)), factors=(2, 2), mu=3)
    assert grid_from_config(grid_to_config(g)) == g
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(grid_to_config(g)))
    assert load_grid_config(p) == g
    # integer extents shorthand: cube of that size
    assert grid_from_config({"n": 1, "extents": 3, "mu": 1}) == GridSpec.cube(1, 3)


@pytest.mark.parametrize("factors", [5, "2", [1.5, 1.5], [True, 1], [1, None]])
def test_grid_config_rejects_malformed_factors(tmp_path, factors):
    # a non-list used to raise TypeError, float entries were truncated
    cfg = {"n": 1, "extents": 3, "factors": factors}
    with pytest.raises(DomainError):
        grid_from_config(cfg)
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(DomainError):
        load_grid_config(p)


# ---------------------------------------------------------------------------
# rectangles


def test_rectangle_volume_and_bounds():
    r = Rectangle.from_bounds([(1, 2), (0, 1), (4, 6)], (1, 1))
    assert r.sides == (2, 2)
    assert r.t_len == 3
    assert r.volume == 12
    assert r.bounds == ((1, 2), (0, 1), (4, 6))


def test_rectangle_cube_condition():
    # axes of one factor must share their side
    with pytest.raises(DomainError):
        Rectangle.from_bounds([(0, 1), (0, 2), (0, 0)], (2,))
    r = Rectangle.from_bounds([(0, 1), (2, 3), (0, 0)], (2,))
    assert r.cubes == (((0, 2), 2),)
    assert r.spatial_cells == 4


def test_rectangle_membership_and_slices():
    g = GridSpec.cube(1, 4)
    r = Rectangle.from_bounds([(1, 2), (0, 3), (2, 3)], (1, 1))
    assert r.within(g)
    assert r.contains((1, 0, 2)) and not r.contains((0, 0, 2))
    assert r.slices(g) == (slice(1, 3), slice(0, 4), slice(2, 4))
    shifted = Rectangle.from_bounds([(3, 4), (0, 1), (0, 1)], (1, 1))
    assert not shifted.within(g)
    with pytest.raises(DomainError):
        shifted.slices(g)
    assert shifted.clipped_slices(g) == (slice(3, 4), slice(0, 2), slice(0, 2))
    far = Rectangle.from_bounds([(7, 8), (0, 1), (0, 1)], (1, 1))
    assert far.clipped_slices(g) is None


@pytest.mark.parametrize("bad", [True, 1.0, np.float64(1)])
def test_rectangle_and_grid_reject_non_integers(bad):
    # exact ints pass _as_int at once; bools and floats must not
    with pytest.raises(DomainError, match="must be an integer"):
        Rectangle((((bad,), 1), ((0,), 1)), 0, 0)
    with pytest.raises(DomainError, match="must be an integer"):
        Rectangle((((0,), bad), ((0,), 1)), 0, 0)
    with pytest.raises(DomainError, match="must be an integer"):
        Rectangle((((0,), 1), ((0,), 1)), bad, 2)
    with pytest.raises(DomainError, match="must be an integer"):
        GridSpec(n=bad, extents=((0, 1),) * 3)
    with pytest.raises(DomainError, match="must be an integer"):
        GridSpec(n=1, extents=((0, 1), (bad, 2), (0, 1)))
    with pytest.raises(DomainError, match="must be an integer"):
        GridSpec(n=1, extents=((0, 1),) * 3, mu=bad)
    r = Rectangle((((np.int64(2),), np.int32(3)), ((0,), 1)), np.int16(1), 4)
    assert r.bounds == ((2, 4), (0, 0), (1, 4))
    assert all(type(x) is int for b in r.bounds for x in b)


def test_rectangle_rejects_empty_intervals():
    with pytest.raises(DomainError):
        Rectangle.from_bounds([(1, 0), (0, 0), (0, 0)], (1, 1))
    with pytest.raises(DomainError):
        Rectangle.from_bounds([(0, 0), (0, 0), (3, 1)], (1, 1))


# ---------------------------------------------------------------------------
# enumeration and counting


def test_rectangle_count_three_cube():
    # three independent axes, six intervals each
    g = GridSpec.cube(1, 3)
    rects = list(enumerate_rectangles(g))
    assert len(rects) == 216
    assert count_rectangles(g) == 216
    assert len(set(rects)) == 216
    assert all(r.within(g) for r in rects)


def test_rectangle_count_matches_enumeration_on_mixed_grids():
    for g in [
        GridSpec.cube(1, 4),
        GridSpec(n=1, extents=((0, 2), (0, 3), (-1, 2)), factors=(1, 1), mu=1),
        GridSpec(n=2, extents=((0, 2), (0, 2), (0, 1), (0, 1), (0, 1)), factors=(2, 2), mu=1),
    ]:
        assert count_rectangles(g) == len(list(enumerate_rectangles(g)))
        assert count_rectangles(g, dyadic_only=True) == len(
            list(enumerate_rectangles(g, dyadic_only=True))
        )


def test_enumeration_containing_filter():
    g = GridSpec(n=1, extents=((0, 2), (0, 3), (-1, 1)), factors=(1, 1), mu=1)
    x = (1, 2, 0)
    whole = list(enumerate_rectangles(g))
    holding = list(enumerate_rectangles(g, containing=x))
    assert holding == [r for r in whole if r.contains(x)]
    with pytest.raises(DomainError):
        list(enumerate_rectangles(g, containing=(9, 9, 9)))


def test_enumeration_cube_condition_on_two_factor_axes():
    g = GridSpec(n=2, extents=((0, 2), (0, 2), (0, 1), (0, 1), (0, 0)), factors=(2, 2), mu=1)
    for r in enumerate_rectangles(g):
        (b0, s0), (b1, s1) = r.cubes
        assert len(b0) == 2 and len(b1) == 2
        widths0 = {hi - lo + 1 for lo, hi in r.bounds[:2]}
        widths1 = {hi - lo + 1 for lo, hi in r.bounds[2:4]}
        assert widths0 == {s0} and widths1 == {s1}


# ---------------------------------------------------------------------------
# prefix sums


def test_prefix_sums_add_as_cumsum_does():
    """prefix_sums' slab-wise adds give np.cumsum's sums bit for bit, on
    real data with signed zeros, over a subset of the axes and into a
    caller's zero-bordered buffer."""
    rng = np.random.default_rng(72)
    vals = rng.normal(size=(4, 3, 5, 2)) * np.exp(rng.uniform(-30, 30, size=(4, 3, 5, 2)))
    vals[rng.random(vals.shape) < 0.2] = -0.0
    for axes in ([0, 1, 2, 3], [1, 3], [2], [3, 0]):
        want = vals
        for ax in axes:
            want = np.cumsum(want, axis=ax)
        want = np.pad(want, [(int(ax in axes), 0) for ax in range(vals.ndim)])
        got = prefix_sums(vals, axes)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        out = np.zeros(want.shape)
        assert prefix_sums(vals, axes, out=out) is out
        np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# fields


def test_scalar_field_sampling():
    g = GridSpec.cube(1, 3)
    f = ScalarField.point_mass(g, (1, 2, 0), height=3.5)
    assert f.sample((1, 2, 0)) == 3.5
    assert f.sample((0, 0, 0)) == 0.0
    assert f.sample((5, 5, 5)) == 0.0  # zero off the extents
    coords = np.array([[1, 2, 0], [5, 5, 5], [-1, 0, 0], [2, 2, 2]])
    np.testing.assert_array_equal(f.sample_many(coords), [3.5, 0.0, 0.0, 0.0])


def test_scalar_field_shape_check():
    g = GridSpec.cube(1, 3)
    with pytest.raises(DomainError):
        ScalarField(g, np.zeros((2, 2, 2)))


def test_scalar_field_values_are_read_only():
    g = GridSpec.cube(1, 3)
    f = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# families


def test_family_caps_and_margins():
    g = GridSpec.cube(1, 3)
    fam = RectangleFamily(g)
    assert fam.max_sides == (3, 3)
    assert fam.max_t_len == 3
    assert fam.margins() == (2, 2)
    assert fam.side_choices(0) == [1, 2, 3]
    assert fam.t_len_choices() == [1, 2, 3]


def test_family_membership_count_three_cube():
    # anchored members per axis: sum of side choices 1 + 2 + 3 = 6
    g = GridSpec.cube(1, 3)
    fam = RectangleFamily(g)
    assert fam.count_containing() == 216
    rects = list(fam.rectangles_containing((0, 0, 0)))
    assert len(rects) == 216
    assert len(set(rects)) == 216
    assert all(r.contains((0, 0, 0)) for r in rects)
    # translation invariance: the anchored count is position-free
    assert len(list(fam.rectangles_containing((2, 1, 0)))) == 216


def test_family_dyadic_count():
    g = GridSpec.cube(1, 5)
    fam = RectangleFamily(g, dyadic_only=True)
    assert fam.side_choices(0) == [1, 2, 4]
    # 1 + 2 + 4 anchored positions per axis
    assert fam.count_containing() == 343


def test_family_members_may_overhang():
    g = GridSpec.cube(1, 3)
    fam = RectangleFamily(g)
    rects = list(fam.rectangles_containing((0, 0, 0)))
    assert any(not r.within(g) for r in rects)
    assert any(min(lo for lo, _ in r.bounds) < 0 for r in rects)


def test_family_side_cap_override():
    g = GridSpec.cube(1, 5)
    fam = RectangleFamily(g, max_sides=(2, 3), max_t_len=1)
    assert fam.max_sides == (2, 3)
    assert fam.max_t_len == 1
    assert fam.count_containing() == (1 + 2) * (1 + 2 + 3) * 1
    with pytest.raises(DomainError):
        RectangleFamily(g, max_sides=(2,))


def test_random_rectangle_respects_grid():
    rng = np.random.default_rng(5)
    g = GridSpec(n=1, extents=((0, 4), (-2, 2), (0, 3)), factors=(1, 1), mu=1)
    for _ in range(100):
        r = random_rectangle(g, rng)
        assert r.within(g)
    for _ in range(100):
        r = random_rectangle(g, rng, max_sides=(2, 2), max_t_len=1)
        assert max(r.sides) <= 2 and r.t_len == 1


@pytest.mark.parametrize(
    "grid, caps, seed, digest",
    [
        (GridSpec.cube(1, 16, mu=1), {}, 11, "3970ea5cf45dcf4c69329222b01d7285d0e641cb3bb22bb53be35c7416276697"),
        (
            GridSpec(n=1, extents=((0, 9), (-2, 5), (0, 12)), mu=1),
            {"max_sides": (3, 2), "max_t_len": 4},
            12,
            "53a5e83ce8d3ad704b5e7e4a372cfa58e709a7527684023527e220b179afc6bd",
        ),
        (
            GridSpec(n=2, extents=((-5, 2), (-3, 3), (-4, 1), (-6, 0), (-2, 7)), factors=(2, 2), mu=-1),
            {},
            13,
            "c6b4e18bd66b2d3434fa19e1c6f1a3b40a48504005181176be8144b848c4edfc",
        ),
    ],
    ids=["plain", "capped", "paired-factors-negative-origin"],
)
def test_random_rectangle_stream_is_pinned(grid, caps, seed, digest):
    """The bounds of 2000 draws hash as they did with one scalar
    rng.integers call per coordinate read from the grid each time: the
    cover and eta batches, and the harness's boxes fields, stay the same."""
    rng = np.random.default_rng(seed)
    bounds = np.asarray([random_rectangle(grid, rng, **caps).bounds for _ in range(2000)], dtype="<i8")
    assert hashlib.sha256(bounds.tobytes()).hexdigest() == digest
