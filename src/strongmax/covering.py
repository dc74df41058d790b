"""Greedy covering selection with tripled companions, plus union measures.

Given rectangles sorted by decreasing cross-section on a designated
factor, the selector walks the list and keeps a rectangle whenever less
than half of its cells are already covered by the union of the tripled
companions of the rectangles kept so far.  A rejected rectangle is
therefore half-covered by finitely many earlier companions, and the
audit trail records that witness so an independent replay can confirm
every accept/reject decision from scratch.

Tripling acts on the designated factor only: a t interval [a, b] grows
to [a - L, b + L] (L its length) and a cube of side s to the concentric
cube of side 3s.  All overlap accounting is exact integer cell counting.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    DomainError,
    GridSpec,
    InvariantViolation,
    RangeError,
    Rectangle,
    grid_to_config,
    random_rectangle,
)
from .weights import WeightField

__all__ = [
    "CoveringReport",
    "Selection",
    "SelectionRow",
    "covering_experiment",
    "covering_select",
    "cross_section_volume",
    "export_rectangles_csv",
    "import_rectangles_csv",
    "indicator_power_sum",
    "order_for_selection",
    "overlap_counts",
    "replay_selection",
    "slice_union_ratios",
    "triple_cross_section",
    "union_mask",
    "union_volume",
]


def cross_section_volume(r: Rectangle, cross="t") -> int:
    """Cell count of the designated cross-section: t length, or side^N of
    the chosen spatial factor."""
    if cross == "t":
        return r.t_len
    i = int(cross)
    if not 0 <= i < len(r.cubes):
        raise DomainError(f"no factor {i} in a rectangle with {len(r.cubes)} factors")
    base, side = r.cubes[i]
    return side ** len(base)


def order_for_selection(rects: Sequence[Rectangle], cross="t") -> list[Rectangle]:
    """Stable sort by decreasing designated cross-section volume."""
    return sorted(rects, key=lambda r: -cross_section_volume(r, cross))


def triple_cross_section(r: Rectangle, cross="t") -> Rectangle:
    """Concentric tripling of the designated factor, everything else fixed."""
    if cross == "t":
        L = r.t_len
        return Rectangle(r.cubes, r.t_lo - L, r.t_hi + L)
    i = int(cross)
    if not 0 <= i < len(r.cubes):
        raise DomainError(f"no factor {i} in a rectangle with {len(r.cubes)} factors")
    cubes = list(r.cubes)
    base, side = cubes[i]
    cubes[i] = (tuple(b - side for b in base), 3 * side)
    return Rectangle(tuple(cubes), r.t_lo, r.t_hi)


@dataclass(frozen=True)
class SelectionRow:
    """Audit record for one input rectangle, in selection order."""

    index: int
    chosen: bool
    witness_m: int
    overlap_cells: int
    volume: int

    @property
    def overlap_fraction(self) -> float:
        return self.overlap_cells / self.volume


@dataclass(frozen=True)
class Selection:
    grid: GridSpec
    cross: object
    rectangles: tuple[Rectangle, ...]
    chosen_indices: tuple[int, ...]
    companions: tuple[Rectangle, ...]
    rows: tuple[SelectionRow, ...]

    def chosen(self) -> tuple[Rectangle, ...]:
        return tuple(self.rectangles[i] for i in self.chosen_indices)

    def write_audit_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "chosen", "witness_m", "overlap_fraction"])
            for row in self.rows:
                writer.writerow(
                    [row.index, int(row.chosen), row.witness_m, repr(row.overlap_fraction)]
                )


def _cell_edges(rects: Sequence[Rectangle], grid: GridSpec) -> np.ndarray:
    """Per rectangle and axis its first cell and the one past its last, as
    grid indices in an int64 (count, d, 2) array, after one check that
    every rectangle lies inside the extents."""
    rects = list(rects)
    d = grid.d
    try:
        edges = np.array([r.bounds for r in rects], dtype=np.int64).reshape(len(rects), d, 2)
    except (ValueError, OverflowError):  # another number of axes, or far outside
        first = next(r for r in rects if not r.within(grid))
        raise DomainError(f"rectangle {first.bounds} outside extents {grid.extents}") from None
    edges -= np.asarray(grid.lows, dtype=np.int64)[:, None]
    edges[..., 1] += 1
    inside = ((edges[..., 0] >= 0) & (edges[..., 1] <= np.asarray(grid.shape))).all(axis=1)
    if not inside.all():
        first = rects[int(np.argmin(inside))]
        raise DomainError(f"rectangle {first.bounds} outside extents {grid.extents}")
    return edges


def covering_select(rects: Sequence[Rectangle], grid: GridSpec, cross="t") -> Selection:
    """Run the half-coverage selection over rectangles already ordered by
    order_for_selection.  Rectangles must lie inside the extents; the
    companions may overhang and are clipped for coverage accounting.

    One bounds check covers the batch; each rectangle in input order then
    costs one count_nonzero of the covered mask over its cells."""
    rects = tuple(rects)
    edges = _cell_edges(rects, grid)
    d = grid.d
    # flat lists of Python ints: the walk slices with them, and a nested
    # per-rectangle list would cost a list object per rectangle and axis
    starts = edges[..., 0].ravel().tolist()
    stops = edges[..., 1].ravel().tolist()
    volumes = np.prod(edges[..., 1] - edges[..., 0], axis=1).tolist()
    covered = np.zeros(grid.shape, dtype=bool)
    count_nonzero = np.count_nonzero
    chosen, companions, rows = [], [], []
    for idx, r in enumerate(rects):
        k = idx * d
        overlap = int(count_nonzero(covered[tuple(map(slice, starts[k : k + d], stops[k : k + d]))]))
        V = volumes[idx]
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
    return Selection(grid, cross, rects, tuple(chosen), tuple(companions), tuple(rows))


def replay_selection(sel: Selection, grid: GridSpec) -> list[str]:
    """Re-derive every audit row from scratch and list discrepancies.

    Independent of the selector's incremental mask: for each row the
    overlap is measured inside the rectangle's own bounding box against
    freshly recomputed companions of the previously accepted prefix.
    """
    problems = []
    comp_by_index = {i: triple_cross_section(sel.rectangles[i], sel.cross) for i in sel.chosen_indices}
    chosen_set = set(sel.chosen_indices)
    for row in sel.rows:
        r = sel.rectangles[row.index]
        prior = [i for i in sel.chosen_indices if i < row.index]
        local = np.zeros([hi - lo + 1 for lo, hi in r.bounds], dtype=bool)
        for i in prior:
            comp = comp_by_index[i]
            sls = []
            empty = False
            for (lo, hi), (clo, chi) in zip(r.bounds, comp.bounds):
                a, b = max(lo, clo), min(hi, chi)
                if a > b:
                    empty = True
                    break
                sls.append(slice(a - lo, b - lo + 1))
            if not empty:
                local[tuple(sls)] = True
        overlap = int(local.sum())
        V = r.volume
        if overlap != row.overlap_cells:
            problems.append(f"row {row.index}: overlap {overlap} != recorded {row.overlap_cells}")
        if row.witness_m != len(prior):
            problems.append(f"row {row.index}: witness {row.witness_m} != prefix {len(prior)}")
        if (row.index in chosen_set) != row.chosen:
            problems.append(f"row {row.index}: chosen flag inconsistent")
        if row.chosen and not 2 * overlap < V:
            problems.append(f"row {row.index}: accepted but {overlap}/{V} is half-covered")
        if not row.chosen and 2 * overlap < V:
            problems.append(f"row {row.index}: rejected but only {overlap}/{V} covered")
    return problems


def union_mask(rects: Sequence[Rectangle], grid: GridSpec) -> np.ndarray:
    return overlap_counts(rects, grid) > 0


def overlap_counts(rects: Sequence[Rectangle], grid: GridSpec) -> np.ndarray:
    """Per cell, the number of rects covering it; rectangles inside the
    extents.  Each rectangle adds +1 or -1 at the 2^d corners of its cells
    in a difference table one cell wider per axis, (-1)^(high corners),
    whose prefix sums along every axis are the counts, exact in int64."""
    edges = _cell_edges(rects, grid)
    diff = np.zeros([w + 1 for w in grid.shape], dtype=np.int64)
    if len(edges):
        for high in itertools.product((0, 1), repeat=grid.d):
            corner = edges[:, np.arange(grid.d), high]
            np.add.at(diff, tuple(corner.T), -1 if sum(high) % 2 else 1)
    for ax in range(grid.d):
        np.cumsum(diff, axis=ax, out=diff)
    return diff[tuple(slice(0, w) for w in grid.shape)].copy()


def union_volume(rects: Sequence[Rectangle], w: WeightField) -> float:
    """Weighted cell count of the union; rectangles inside the extents.

    Summed over the whole grid (zeros off the union) so the reduction tree
    matches indicator_power_sum and disjoint batches divide out exactly."""
    mask = union_mask(rects, w.grid)
    return float((w.full_values() * mask).sum())


def indicator_power_sum(rects: Sequence[Rectangle], w: WeightField, p: float) -> float:
    """sum over cells of (number of covering rectangles)^p * w, p > 1.

    Kept un-rooted so that a pairwise-disjoint batch gives back exactly the
    weighted union volume (counts are 0/1 and x**p is exact there)."""
    if not p > 1:
        raise RangeError(f"p must be > 1, got {p}")
    counts = overlap_counts(rects, w.grid)
    return float(((counts.astype(np.float64) ** p) * w.full_values()).sum())


@dataclass(frozen=True)
class CoveringReport:
    """Covering statistics of one selection run."""

    grid: dict
    weight: str
    p: float
    cross: str
    seed: int
    count_input: int
    count_chosen: int
    vol_union_all: float
    vol_union_chosen: float
    comparability_ratio: float
    indicator_norm: float
    indicator_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def covering_experiment(
    grid: GridSpec,
    w: WeightField,
    p: float = 2.0,
    count: int = 100,
    seed: int = 0,
    cross="t",
    rects: Sequence[Rectangle] | None = None,
) -> tuple[CoveringReport, Selection]:
    """Random rectangles (or a given batch), ordered, selected, measured.

    The comparability ratio vol_w(union of inputs) / vol_w(union of the
    chosen) and the indicator ratio ||sum of chosen indicators||_p^p /
    vol_w(union of the chosen) are both >= 1 by construction; how large
    they get is the empirical content."""
    if rects is None:
        rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xC0FE])
        rects = [random_rectangle(grid, rng) for _ in range(int(count))]
    if len(rects) == 0:
        raise RangeError("covering needs at least one rectangle, got an empty batch")
    ordered = order_for_selection(rects, cross)
    sel = covering_select(ordered, grid, cross)
    chosen = sel.chosen()
    vol_all = union_volume(ordered, w)
    vol_sel = union_volume(chosen, w)
    if not vol_sel > 0:
        raise InvariantViolation("selection kept nothing from a nonempty batch")
    power_sum = indicator_power_sum(chosen, w, p)
    report = CoveringReport(
        grid=grid_to_config(grid),
        weight=w.descriptor,
        p=float(p),
        cross=str(cross),
        seed=int(seed),
        count_input=len(ordered),
        count_chosen=len(chosen),
        vol_union_all=vol_all,
        vol_union_chosen=vol_sel,
        comparability_ratio=vol_all / vol_sel,
        indicator_norm=power_sum ** (1.0 / float(p)),
        indicator_ratio=power_sum / vol_sel,
    )
    return report, sel


def slice_union_ratios(sel: Selection, w: WeightField) -> list[dict]:
    """Per-t diagnostic: weighted spatial union of the inputs crossing each
    t level versus that of the chosen rectangles crossing it."""
    grid = sel.grid
    wsp = w.values
    m_all = union_mask(sel.rectangles, grid)
    m_sel = union_mask(sel.chosen(), grid)
    out = []
    for k, t in enumerate(range(grid.t_lo, grid.t_hi + 1)):
        va = float(wsp[m_all[..., k]].sum())
        vs = float(wsp[m_sel[..., k]].sum())
        out.append(
            {
                "t": t,
                "vol_inputs": va,
                "vol_chosen": vs,
                "ratio": (va / vs) if vs > 0 else None,
            }
        )
    return out


def export_rectangles_csv(rects: Sequence[Rectangle], path, grid: GridSpec) -> None:
    names = grid.axis_names()
    cols = [f"{nm}_{end}" for nm in names for end in ("lo", "hi")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rects:
            if len(r.bounds) != grid.d:
                raise DomainError("rectangle dimension does not match grid")
            writer.writerow([x for b in r.bounds for x in b])


def import_rectangles_csv(path, grid: GridSpec) -> list[Rectangle]:
    names = grid.axis_names()
    want = [f"{nm}_{end}" for nm in names for end in ("lo", "hi")]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty rectangle file")
        if header != want:
            raise DomainError(f"unexpected rectangle header {header!r}")
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(want):
                raise DomainError(f"{path}: row {row!r} has {len(row)} fields, want {len(want)}")
            vals = [int(x) for x in row]
            bounds = [(vals[2 * i], vals[2 * i + 1]) for i in range(grid.d)]
            out.append(Rectangle.from_bounds(bounds, grid.factors))
    return out
