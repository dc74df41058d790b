"""Selection dichotomy, companions, audits, and union statistics."""

import csv
import re

import numpy as np
import pytest

from strongmax import (
    DomainError,
    GridSpec,
    RangeError,
    Rectangle,
    covering_experiment,
    covering_select,
    cross_section_volume,
    indicator_power_sum,
    make_constant_weight,
    make_perturbed_weight,
    make_power_weight,
    order_for_selection,
    overlap_counts,
    random_rectangle,
    replay_selection,
    slice_union_ratios,
    triple_cross_section,
    union_mask,
    union_volume,
)
from strongmax.covering import Selection, SelectionRow, export_rectangles_csv, import_rectangles_csv

fb = Rectangle.from_bounds


def _grid(size=8):
    return GridSpec.cube(1, size, mu=1)


# ---------------------------------------------------------------------------
# cross sections and tripling


def test_cross_section_volumes():
    r = fb([(0, 1), (2, 4), (0, 4)], (1, 1))
    assert cross_section_volume(r, "t") == 5
    assert cross_section_volume(r, 0) == 2
    assert cross_section_volume(r, 1) == 3
    with pytest.raises(DomainError):
        cross_section_volume(r, 2)


def test_cross_section_volume_two_axis_factor():
    r = fb([(0, 2), (1, 3), (0, 0)], (2,))
    assert cross_section_volume(r, 0) == 9  # side^2


def test_tripling_t():
    r = fb([(0, 1), (0, 1), (4, 5)], (1, 1))
    tr = triple_cross_section(r, "t")
    assert tr.bounds == ((0, 1), (0, 1), (2, 7))
    assert tr.volume == 3 * r.volume
    assert tr.cubes == r.cubes


def test_tripling_spatial_factor():
    r = fb([(2, 3), (0, 4), (0, 0)], (1, 1))
    tr = triple_cross_section(r, 0)
    assert tr.bounds == ((0, 5), (0, 4), (0, 0))
    assert tr.t_lo == r.t_lo and tr.t_hi == r.t_hi


def test_ordering_is_stable_and_decreasing():
    a = fb([(0, 0), (0, 0), (0, 2)], (1, 1))  # t length 3
    b = fb([(1, 1), (1, 1), (0, 1)], (1, 1))  # t length 2
    c = fb([(2, 2), (2, 2), (0, 1)], (1, 1))  # t length 2, after b
    got = order_for_selection([b, c, a], "t")
    assert got == [a, b, c]
    lens = [cross_section_volume(r, "t") for r in got]
    assert lens == sorted(lens, reverse=True)


# ---------------------------------------------------------------------------
# selection


def test_selection_keeps_disjoint_rectangles():
    g = _grid()
    rects = [
        fb([(0, 1), (0, 1), (0, 1)], (1, 1)),
        fb([(4, 5), (4, 5), (4, 5)], (1, 1)),
        fb([(7, 7), (7, 7), (7, 7)], (1, 1)),
    ]
    sel = covering_select(order_for_selection(rects), g)
    assert len(sel.chosen()) == 3
    assert [row.witness_m for row in sel.rows] == [0, 1, 2]
    assert all(row.overlap_cells == 0 for row in sel.rows)


def test_selection_rejects_duplicate():
    g = _grid()
    r = fb([(2, 3), (2, 3), (2, 3)], (1, 1))
    sel = covering_select([r, r], g)
    assert sel.chosen_indices == (0,)
    assert sel.rows[1].chosen is False
    assert sel.rows[1].witness_m == 1
    assert sel.rows[1].overlap_fraction == 1.0


def test_selection_companion_blocks_t_neighbour():
    g = _grid()
    first = fb([(0, 3), (0, 3), (4, 5)], (1, 1))
    # same cube, one t cell, inside the tripled interval [2, 7]
    second = fb([(0, 3), (0, 3), (7, 7)], (1, 1))
    sel = covering_select(order_for_selection([first, second]), g)
    assert sel.chosen_indices == (0,)
    assert sel.rows[1].overlap_cells == second.volume


def test_selection_accepts_when_under_half():
    g = _grid()
    first = fb([(0, 1), (0, 1), (0, 5)], (1, 1))  # companion spans all of t
    second = fb([(0, 3), (0, 3), (0, 0)], (1, 1))
    sel = covering_select(order_for_selection([first, second]), g)
    # 4 of second's 16 cells sit under the companion: strictly under half
    assert sel.chosen_indices == (0, 1)
    assert sel.rows[1].overlap_cells == 4
    assert sel.rows[1].witness_m == 1


def test_selection_is_idempotent_on_its_output():
    g = _grid(12)
    rng = np.random.default_rng(17)
    from strongmax import random_rectangle

    rects = order_for_selection([random_rectangle(g, rng) for _ in range(120)])
    sel = covering_select(rects, g)
    again = covering_select(order_for_selection(sel.chosen()), g)
    assert len(again.chosen()) == len(sel.chosen())


def test_selection_requires_in_grid_rectangles():
    g = _grid(4)
    with pytest.raises(DomainError):
        covering_select([fb([(3, 4), (0, 1), (0, 1)], (1, 1))], g)


def test_batch_bounds_check_names_the_first_rectangle_outside():
    """One check covers the whole batch, and the error still names the
    first rectangle outside the extents (or with another number of axes,
    or past int64), wherever it sits in the batch."""
    g = GridSpec(n=1, extents=((-4, 1), (-6, -2), (-3, 4)), mu=1)
    rng = np.random.default_rng(31)
    batch = [random_rectangle(g, rng) for _ in range(40)]
    low = fb([(-5, -4), (-6, -5), (0, 0)], (1, 1))
    high = fb([(0, 1), (-3, -2), (4, 5)], (1, 1))
    wide = Rectangle.from_bounds([(0, 0)] * 5, (1, 1, 1, 1))
    far = fb([(2**70, 2**70), (-3, -3), (0, 0)], (1, 1))
    for bad in (low, high, wide, far):
        for at in (0, 17, 40):
            rects = batch[:at] + [bad] + batch[at:] + [high]
            pattern = re.escape(f"rectangle {bad.bounds} outside extents")
            with pytest.raises(DomainError, match=pattern):
                covering_select(rects, g)
            with pytest.raises(DomainError, match=pattern):
                overlap_counts(rects, g)


def _literal_select(rects, grid, cross="t"):
    # the selection walk as first written: per rectangle within, slices
    # and a bool sum
    rects = tuple(rects)
    for r in rects:
        if not r.within(grid):
            raise DomainError(f"rectangle {r.bounds} outside extents {grid.extents}")
    covered = np.zeros(grid.shape, dtype=bool)
    chosen, companions, rows = [], [], []
    for idx, r in enumerate(rects):
        overlap = int(covered[r.slices(grid)].sum())
        V = r.volume
        if 2 * overlap < V:
            rows.append(SelectionRow(idx, True, len(chosen), overlap, V))
            chosen.append(idx)
            comp = triple_cross_section(r, cross)
            companions.append(comp)
            sl = comp.clipped_slices(grid)
            if sl is not None:
                covered[sl] = True
        else:
            rows.append(SelectionRow(idx, False, len(chosen), overlap, V))
    return tuple(chosen), tuple(companions), tuple(rows)


def test_selection_matches_the_literal_walk():
    """Same rows, chosen indices and companions as the per-rectangle walk,
    and a clean replay: random batches at n = 1 and 2, factor partitions,
    negative origins, cross on t and on a factor, duplicates, and 2000
    disjoint unit cubes that are all kept."""
    rng = np.random.default_rng(2029)
    grids = [
        (GridSpec.cube(1, 12, mu=1), ("t", 0, 1)),
        (GridSpec(n=1, extents=((-4, 3), (-7, -1), (-5, 4)), mu=-2), ("t", 1)),
        (GridSpec(n=2, extents=((0, 4),) * 5, factors=(2, 2), mu=1), ("t", 0, 1)),
        (GridSpec(n=2, extents=((-3, 2), (-2, 3), (-4, 0), (-1, 4), (-3, 3)), factors=(1, 3), mu=1), ("t", 1)),
    ]
    batches = []
    for g, crosses in grids:
        for count in (1, 60, 400):
            rects = [random_rectangle(g, rng) for _ in range(count)]
            for cross in crosses:
                batches.append((g, order_for_selection(rects, cross), cross))
        dupes = [random_rectangle(g, rng) for _ in range(20)] * 3
        batches.append((g, order_for_selection(dupes), "t"))
        batches.append((g, dupes, crosses[-1]))
    g16 = GridSpec.cube(1, 16, mu=1)
    units = [fb([(x, x), (y, y), (t, t)], (1, 1)) for t in range(0, 16, 2) for x in range(16) for y in range(16)]
    batches.append((g16, units[:2000], "t"))
    for g, rects, cross in batches:
        sel = covering_select(rects, g, cross)
        chosen, companions, rows = _literal_select(rects, g, cross)
        assert (sel.chosen_indices, sel.companions, sel.rows) == (chosen, companions, rows)
        assert all(type(row.overlap_cells) is int and type(row.volume) is int for row in sel.rows)
        assert replay_selection(sel, g) == []
    assert len(sel.chosen_indices) == 2000


# ---------------------------------------------------------------------------
# replay


def test_replay_confirms_honest_runs():
    g = _grid(16)
    rng = np.random.default_rng(3)
    from strongmax import random_rectangle

    rects = order_for_selection([random_rectangle(g, rng) for _ in range(150)])
    sel = covering_select(rects, g)
    assert replay_selection(sel, g) == []


def test_replay_flags_tampered_rows():
    g = _grid()
    r1 = fb([(0, 3), (0, 3), (0, 3)], (1, 1))
    r2 = fb([(0, 3), (0, 3), (2, 2)], (1, 1))
    sel = covering_select(order_for_selection([r1, r2]), g)
    assert replay_selection(sel, g) == []
    flipped = Selection(
        grid=sel.grid,
        cross=sel.cross,
        rectangles=sel.rectangles,
        chosen_indices=(0, 1),
        companions=sel.companions,
        rows=(sel.rows[0], SelectionRow(1, True, 1, sel.rows[1].overlap_cells, sel.rows[1].volume)),
    )
    problems = replay_selection(flipped, g)
    assert problems and any("half-covered" in p for p in problems)
    wrong_witness = Selection(
        grid=sel.grid,
        cross=sel.cross,
        rectangles=sel.rectangles,
        chosen_indices=sel.chosen_indices,
        companions=sel.companions,
        rows=(sel.rows[0], SelectionRow(1, False, 7, sel.rows[1].overlap_cells, sel.rows[1].volume)),
    )
    assert any("witness" in p for p in replay_selection(wrong_witness, g))


# ---------------------------------------------------------------------------
# union statistics


def test_union_and_overlap_counts():
    g = _grid(4)
    a = fb([(0, 1), (0, 1), (0, 0)], (1, 1))
    b = fb([(1, 2), (1, 2), (0, 0)], (1, 1))
    mask = union_mask([a, b], g)
    assert int(mask.sum()) == 7
    counts = overlap_counts([a, b], g)
    assert int(counts.max()) == 2
    assert int((counts == 2).sum()) == 1  # the shared cell (1, 1, 0)


def _slice_counts(rects, grid):
    # one slice increment per rectangle
    counts = np.zeros(grid.shape, dtype=np.int64)
    for r in rects:
        counts[r.slices(grid)] += 1
    return counts


def test_overlap_counts_match_slice_increments():
    """Corner differences and prefix sums give the counts of adding 1 over
    each rectangle's slices, on seeded batches: n = 1, n = 2 with factors
    (2, 2), and a negative origin; an empty batch counts zero, and a
    rectangle outside the extents is a DomainError."""
    grids = [
        GridSpec.cube(1, 7, mu=1),
        GridSpec(n=2, extents=((0, 3),) * 5, factors=(2, 2), mu=1),
        GridSpec(n=1, extents=((-4, 1), (-6, -2), (-3, 4)), mu=-1),
    ]
    rng = np.random.default_rng(77)
    for g in grids:
        for count in (1, 5, 300):
            rects = [random_rectangle(g, rng) for _ in range(count)]
            np.testing.assert_array_equal(overlap_counts(rects, g), _slice_counts(rects, g))
        assert not overlap_counts([], g).any()
    g = grids[2]
    outside = fb([(-5, -4), (-6, -5), (0, 0)], (1, 1))
    with pytest.raises(DomainError, match="outside extents"):
        overlap_counts([random_rectangle(g, rng), outside], g)


def test_indicator_power_sum_example():
    g = _grid(4)
    w = make_constant_weight(g)
    a = fb([(0, 1), (0, 1), (0, 0)], (1, 1))
    b = fb([(1, 2), (1, 2), (0, 0)], (1, 1))
    # six singly, one doubly covered cell: 6 + 2^2
    assert indicator_power_sum([a, b], w, 2.0) == 10.0
    assert union_volume([a, b], w) == 7.0
    with pytest.raises(RangeError):
        indicator_power_sum([a], w, 1.0)


def test_weighted_union_volume():
    g = GridSpec(n=1, extents=((0, 3), (0, 0), (0, 0)), factors=(1, 1), mu=1)
    w = make_power_weight(g, (1.0, 0.0))
    r = fb([(1, 2), (0, 0), (0, 0)], (1, 1))
    assert union_volume([r], w) == 4.0  # 1.5 + 2.5


# ---------------------------------------------------------------------------
# experiments


def test_covering_experiment_is_deterministic():
    g = _grid(12)
    w = make_power_weight(g, (1.0, 1.0))
    rep1, sel1 = covering_experiment(g, w, p=2.0, count=80, seed=9)
    rep2, sel2 = covering_experiment(g, w, p=2.0, count=80, seed=9)
    assert rep1.to_json_dict() == rep2.to_json_dict()
    assert sel1.rectangles == sel2.rectangles
    rep3, _ = covering_experiment(g, w, p=2.0, count=80, seed=10)
    assert rep3.to_json_dict() != rep1.to_json_dict()


def test_covering_experiment_ratio_bounds():
    g = _grid(16)
    w = make_perturbed_weight(g, amplitude=0.5, seed=4)
    for seed in range(6):
        rep, sel = covering_experiment(g, w, p=2.0, count=150, seed=seed)
        assert rep.comparability_ratio >= 1.0
        assert rep.indicator_ratio >= 1.0 - 1e-12
        assert rep.count_chosen <= rep.count_input
        assert rep.vol_union_chosen <= rep.vol_union_all


def test_covering_experiment_disjoint_batch_is_exact():
    g = _grid()
    w = make_perturbed_weight(g, amplitude=0.3, seed=1)
    rects = [
        fb([(0, 1), (0, 1), (0, 1)], (1, 1)),
        fb([(4, 5), (4, 5), (4, 5)], (1, 1)),
        fb([(7, 7), (0, 0), (7, 7)], (1, 1)),
    ]
    rep, sel = covering_experiment(g, w, p=2.0, rects=rects)
    assert rep.count_chosen == 3
    assert rep.comparability_ratio == 1.0
    assert rep.indicator_ratio == 1.0


def test_covering_report_json():
    g = _grid()
    w = make_constant_weight(g)
    rep, _ = covering_experiment(g, w, p=2.0, count=40, seed=2)
    loaded = rep.to_json_dict()
    assert loaded["count_chosen"] == rep.count_chosen
    assert loaded["comparability_ratio"] == rep.comparability_ratio


def test_selection_audit_csv(tmp_path):
    g = _grid()
    rng = np.random.default_rng(21)
    from strongmax import random_rectangle

    rects = order_for_selection([random_rectangle(g, rng) for _ in range(30)])
    sel = covering_select(rects, g)
    p = tmp_path / "audit.csv"
    sel.write_audit_csv(p)
    with open(p) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert [int(r["index"]) for r in rows] == list(range(30))
    chosen_from_csv = [int(r["index"]) for r in rows if r["chosen"] == "1"]
    assert tuple(chosen_from_csv) == sel.chosen_indices


def test_slice_union_ratios():
    g = _grid()
    w = make_power_weight(g, (1.0, 1.0))
    rng = np.random.default_rng(33)
    from strongmax import random_rectangle

    rects = order_for_selection([random_rectangle(g, rng) for _ in range(60)])
    sel = covering_select(rects, g)
    rows = slice_union_ratios(sel, w)
    assert len(rows) == g.t_len
    for row in rows:
        if row["ratio"] is not None:
            assert row["ratio"] >= 1.0 - 1e-12


def _slice_union_ratios_walk(sel, w):
    # per-t walk over every rectangle: the oracle for the union-mask slices
    grid, wsp = sel.grid, w.values
    out = []
    for t in range(grid.t_lo, grid.t_hi + 1):
        m_all = np.zeros(grid.spatial_shape, dtype=bool)
        m_sel = np.zeros(grid.spatial_shape, dtype=bool)
        for idx, r in enumerate(sel.rectangles):
            if r.t_lo <= t <= r.t_hi:
                sl = r.slices(grid)[:-1]
                m_all[sl] = True
                if idx in sel.chosen_indices:
                    m_sel[sl] = True
        va, vs = float(wsp[m_all].sum()), float(wsp[m_sel].sum())
        out.append({"t": t, "vol_inputs": va, "vol_chosen": vs, "ratio": (va / vs) if vs > 0 else None})
    return out


def test_slice_union_ratios_match_per_t_walk():
    from strongmax import random_rectangle

    grids = [
        _grid(9),
        GridSpec(n=2, extents=((-3, 0), (-2, 1), (-1, 1), (-3, -1), (-4, 1)), factors=(2, 2), mu=2),
    ]
    for g in grids:
        weights = [
            make_constant_weight(g),
            make_power_weight(g, (1.0, 0.5) * g.n),
            make_perturbed_weight(g, make_power_weight(g, (1.0,) * (2 * g.n)), 0.3, 7),
        ]
        for seed, w in enumerate(weights):
            rng = np.random.default_rng(seed + 40)
            rects = order_for_selection([random_rectangle(g, rng) for _ in range(80)])
            sel = covering_select(rects, g)
            assert slice_union_ratios(sel, w) == _slice_union_ratios_walk(sel, w)


# ---------------------------------------------------------------------------
# rectangle files


def test_rectangle_csv_round_trip(tmp_path):
    g = GridSpec(n=2, extents=((0, 3), (0, 3), (0, 2), (0, 2), (0, 4)), factors=(2, 2), mu=1)
    rng = np.random.default_rng(13)
    from strongmax import random_rectangle

    rects = [random_rectangle(g, rng) for _ in range(25)]
    p = tmp_path / "rects.csv"
    export_rectangles_csv(rects, p, g)
    assert import_rectangles_csv(p, g) == rects


def test_rectangle_csv_rejects_cube_violation(tmp_path):
    g = GridSpec(n=2, extents=((0, 3),) * 4 + ((0, 4),), factors=(2, 2), mu=1)
    p = tmp_path / "rects.csv"
    good = fb([(0, 1), (0, 1), (0, 2), (0, 2), (0, 1)], (2, 2))
    export_rectangles_csv([good], p, g)
    text = p.read_text().splitlines()
    # widen one axis of the first factor: sides within a factor must match
    head, row = text[0], text[1].split(",")
    row[1] = "2"
    p.write_text(head + "\n" + ",".join(row) + "\n")
    with pytest.raises(DomainError):
        import_rectangles_csv(p, g)
