"""Discrete Heisenberg group law and twisted strong maximal averages.

Points live on Z^(2n+1) with coordinates (u, v, t), u and v in Z^n.  The
group product twists the t coordinate by an integer multiple mu of the
symplectic form:

    (u, v, t) * (x, y, s) = (u + x, v + y, t + s + mu*(u.y - v.x)).

The maximal operator has two equivalent faces.  The group form averages
|f| over right translates of rectangles containing the identity; the
twisted form averages over rectangles containing the evaluation point,
sampling f along sheared t fibers and normalising by a weighted volume.
On the lattice the substitution (x, y, s) -> (u - x, v - y, t - s) maps
one family of averages bijectively onto the other, so for integer data
both forms agree exactly, which the test-suite exploits as an oracle.

Three independent evaluation routes are provided: a vectorised
prefix-sum path (maximal_field), a direct-summation reference without
cumulative tables (maximal_field_reference), and for mu = 0 a plain
sliding-window implementation of the ordinary weighted strong maximal
operator (untwisted_maximal_field).
"""

from __future__ import annotations

import csv
import itertools
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .lattice import (
    DomainError,
    GridSpec,
    InvariantViolation,
    RangeError,
    Rectangle,
    RectangleFamily,
    ScalarField,
    _BLOCK_BYTES,
    prefix_sums,
)
from .weights import WeightField

__all__ = [
    "SHIFT_STANDARD",
    "SHIFT_SWAPPED",
    "GroupPoint",
    "MaximalField",
    "argmax_rectangle",
    "group_identity",
    "group_inverse",
    "group_multiply",
    "maximal_field",
    "maximal_field_reference",
    "maximal_group_form",
    "read_field_binary",
    "read_field_csv",
    "twisted_shift",
    "untwisted_maximal_field",
    "write_field_binary",
    "write_field_csv",
]

# Which bilinear form shears the t fiber in the twisted averages.
# "standard" matches the group law above; "swapped" pairs u with x and
# v with y instead, and is kept only as a comparison variant (it breaks
# the equivalence with the group form whenever mu != 0).
SHIFT_STANDARD = "standard"
SHIFT_SWAPPED = "swapped"
_CONVENTIONS = (SHIFT_STANDARD, SHIFT_SWAPPED)


@dataclass(frozen=True)
class GroupPoint:
    """A lattice point (u, v, t) of the discrete group."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    t: int

    def __post_init__(self):
        u = tuple(int(x) for x in self.u)
        v = tuple(int(x) for x in self.v)
        if len(u) != len(v) or not u:
            raise DomainError("u and v must be nonempty and of equal length")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", int(self.t))

    @property
    def n(self) -> int:
        return len(self.u)

    def coords(self) -> tuple[int, ...]:
        return self.u + self.v + (self.t,)

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "GroupPoint":
        coords = tuple(int(c) for c in coords)
        if len(coords) % 2 == 0 or len(coords) < 3:
            raise DomainError(f"need an odd number >= 3 of coordinates, got {len(coords)}")
        n = (len(coords) - 1) // 2
        return cls(coords[:n], coords[n : 2 * n], coords[-1])


def group_identity(n: int) -> GroupPoint:
    return GroupPoint((0,) * n, (0,) * n, 0)


def group_multiply(p: GroupPoint, q: GroupPoint, mu: int) -> GroupPoint:
    """Group product; exact in Python integers."""
    if p.n != q.n:
        raise DomainError(f"dimension mismatch {p.n} != {q.n}")
    mu = int(mu)
    twist = mu * (sum(a * b for a, b in zip(p.u, q.v)) - sum(a * b for a, b in zip(p.v, q.u)))
    return GroupPoint(
        tuple(a + b for a, b in zip(p.u, q.u)),
        tuple(a + b for a, b in zip(p.v, q.v)),
        p.t + q.t + twist,
    )


def group_inverse(p: GroupPoint) -> GroupPoint:
    """The group inverse is coordinate negation; the twist cancels."""
    return GroupPoint(tuple(-x for x in p.u), tuple(-x for x in p.v), -p.t)


def twisted_shift(
    u: Sequence[int],
    v: Sequence[int],
    xi: Sequence[int],
    eta: Sequence[int],
    mu: int,
    convention: str = SHIFT_STANDARD,
) -> int:
    """Integer shear of the t fiber at anchor (u, v), sample column (xi, eta)."""
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown shift convention {convention!r}")
    if not len(u) == len(v) == len(xi) == len(eta):
        raise DomainError("u, v, xi, eta must share one block length")
    anchor = np.asarray([tuple(u) + tuple(v)], dtype=object)
    cell = np.asarray([tuple(xi) + tuple(eta)], dtype=object)
    return int(_shear(int(mu), anchor, cell, convention)[0, 0])


def _shear(mu: int, anchors: np.ndarray, cells: np.ndarray, convention: str) -> np.ndarray:
    """mu * (u.eta - v.xi) (standard) or mu * (u.xi - v.eta) (swapped) for
    every pair of spatial rows (u, v) and (xi, eta), shape (len(anchors),
    len(cells))."""
    n = anchors.shape[-1] // 2
    xi, eta = cells[:, :n], cells[:, n:]
    if convention == SHIFT_SWAPPED:
        xi, eta = eta, xi
    return mu * (anchors[:, :n] @ eta.T - anchors[:, n:] @ xi.T)


@dataclass(frozen=True, eq=False)
class MaximalField:
    """Values of a maximal operator at every grid point, with provenance."""

    grid: GridSpec
    values: np.ndarray
    family: str = ""
    weight: str = ""
    convention: str = SHIFT_STANDARD

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise DomainError(f"field shape {vals.shape} != grid shape {self.grid.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _as_point_coords(x, grid: GridSpec) -> tuple[int, ...]:
    if isinstance(x, GroupPoint):
        coords = x.coords()
    else:
        coords = tuple(int(c) for c in x)
    if len(coords) != grid.d:
        raise DomainError(f"expected {grid.d} coordinates, got {len(coords)}")
    return coords


# ---------------------------------------------------------------------------
# shared geometry tables (pure combinatorics of a family, cached per family)


@lru_cache(maxsize=64)
def _factor_options(family: RectangleFamily, i: int):
    """Box options of spatial factor i, by side and then low-corner offset
    in C order: (off, side, corners), off (n_o, N) in [-side+1, 0] per axis
    and corners (2^N, n_o, N) the offsets of each option's corners, the
    all-high corner first as in itertools.product((1, 0), repeat=N)."""
    N = family.grid.factors[i]
    opts = [(off, s) for s in family.side_choices(i) for off in itertools.product(range(-s + 1, 1), repeat=N)]
    off, side = (np.asarray(col, dtype=np.int64) for col in zip(*opts))
    high = np.asarray(list(itertools.product((1, 0), repeat=N)), dtype=np.int64)
    return off, side, off + high[:, None, :] * side[:, None]


@lru_cache(maxsize=64)
def _box_tables(family: RectangleFamily):
    """Anchored spatial boxes of a family as offset arrays, the C-order
    product of the per-factor options.

    Returns (lo_off, side_ax, cells): each box holds the anchor, its low
    corner sits at anchor + lo_off with lo_off in [-side+1, 0] per axis.
    """
    opts = [_factor_options(family, i) for i in range(len(family.grid.factors))]
    pick = np.indices([len(side) for _, side, _ in opts]).reshape(len(opts), -1)
    lo_off = np.concatenate([off[j] for (off, _, _), j in zip(opts, pick)], axis=1)
    sides = np.stack([side[j] for (_, side, _), j in zip(opts, pick)], axis=1)
    side_ax = sides[:, list(family.grid.factor_of_axis)]
    return lo_off, side_ax, np.prod(side_ax, axis=1)


def _check_inputs(f: ScalarField, omega: WeightField, family: RectangleFamily, convention=SHIFT_STANDARD) -> None:
    if f.grid != family.grid or omega.grid != family.grid:
        raise DomainError("field, weight and family must share one grid")
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown shift convention {convention!r}")


# ---------------------------------------------------------------------------
# fast path: prefix sums over sheared gathers


def _corner_tables(family: RectangleFamily, dims: np.ndarray, anchors) -> list[list[np.ndarray]]:
    """Corner tables of a summed-area table of shape dims whose axes are
    merged per spatial factor in C order: per factor i, one table per axis
    a of it, whose row b (2^N_i, n_o_i) holds the corners of
    _factor_options(family, i) on axis a for the anchor at anchors[a][b],
    clipped to [0, dims[a] - 1] and times a's stride in the merged axis.
    A factor's flat corner indices are the sum of its axes' rows
    (_corner_rows); a table takes len(anchors[a]) * 2^N_i * n_o_i * 8
    bytes."""
    grid = family.grid
    tabs = []
    for i in range(len(grid.factors)):
        ax = list(grid.factor_axes(i))
        corners = _factor_options(family, i)[2]
        strides = np.cumprod([1, *dims[ax][:0:-1]])[::-1]
        tabs.append([])
        for j, (a, stride) in enumerate(zip(ax, strides)):
            at = corners[..., j] + np.asarray(anchors[a])[:, None, None]
            tabs[i].append(np.clip(at, 0, dims[a] - 1) * stride)
    return tabs


def _corner_rows(tabs: list, at) -> np.ndarray:
    """The sum of the rows tabs[j][at[j]]: one factor's flat corner indices
    (2^N, n_o) for an anchor at `at` on its axes, out of _corner_tables,
    or a column's offsets in the least-volume table (_box_blocks)."""
    flat = tabs[0][at[0]]
    for tab, b in zip(tabs[1:], at[1:]):
        flat = flat + tab[b]
    return flat


@lru_cache(maxsize=64)
def _clip_groups(family: RectangleFamily):
    """The options of each spatial factor grouped by the window of the
    extents they clip to, per anchor position on the factor's axes, and
    the factor's boxes grouped by the same windows.

    Returns per factor i (firsts, groups, counts, ids, boxes): groups
    lists per anchor position on i's axes, flat in C order,
    (order, starts), order (n_o_i,) sorting the options of
    _factor_options(family, i) by their clipped corner columns, stably,
    and starts (g,) the first entries of its g runs of equal columns;
    counts (positions,) holds each g.  The options of one group sum one
    window of the extents: their columns are equal.  firsts lists per
    anchor position the flat corner indices (2^N_i, g) of the groups'
    first options in the extents' zero-bordered summed-area table (dims
    spatial_shape + 1, out of its _corner_tables), which _box_blocks
    folds on every call.

    boxes = (lo, side, first) lists the U_i boxes of the factor that hold
    an anchor inside the extents, lo (U_i, N_i) their low corners less the
    extents' low corner and side (U_i,), sorted stably by the window they
    clip to; first (G_i,) holds the first box of each of the G_i windows.
    A box holds an anchor inside the extents iff its window does, so a
    group's members are every box of its window, whatever the anchor:
    ids lists per anchor position the window (G_i,) of each group."""
    grid = family.grid
    shape = grid.spatial_shape
    out = []
    for i, tabs in enumerate(_corner_tables(family, np.add(shape, 1), [np.arange(w) for w in shape])):
        w = np.asarray([shape[a] for a in grid.factor_axes(i)])
        sides = family.side_choices(i)
        lo = np.concatenate([np.indices(w + s - 1).reshape(len(w), -1).T - (s - 1) for s in sides])
        side = np.repeat(sides, [np.prod(w + s - 1) for s in sides])
        # a window's key joins its clipped all-high and all-low corners, the
        # first and last rows of _corner_rows
        span = int(np.prod(w + 1))
        hi, low = np.minimum(lo + side[:, None], w), np.maximum(lo, 0)
        key = np.ravel_multi_index(hi.T, w + 1) * span + np.ravel_multi_index(low.T, w + 1)
        by_window = np.argsort(key, kind="stable")
        lo, side, key = lo[by_window], side[by_window], key[by_window]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        firsts, groups, ids = [], [], []
        for at in np.ndindex(*w):
            flat = _corner_rows(tabs, at)
            order = np.lexsort(flat[::-1])
            srt = flat[:, order]
            starts = np.flatnonzero(np.r_[True, np.any(srt[:, 1:] != srt[:, :-1], axis=0)])
            firsts.append(srt[:, starts])
            groups.append((order, starts))
            ids.append(np.searchsorted(key[first], srt[0, starts] * span + srt[-1, starts]))
        counts = np.asarray([len(starts) for _, starts in groups])
        out.append((firsts, groups, counts, ids, (lo, side, first)))
    return tuple(out)


def _fold(table, axis, flat, out, slab):
    """Box sums of one spatial factor out of a summed-area table whose axis
    `axis` holds the factor's axes merged in C order: the flat indices
    flat (2^N, n_o) of the boxes' corners, the all-high corner first as in
    _factor_options, are gathered along axis and added with sign
    (-1)^(low axes) into out."""
    # indices are in range; mode="clip" keeps take from buffering out
    table.take(flat[0], axis, out, "clip")
    for c in range(1, len(flat)):
        table.take(flat[c], axis, slab, "clip")
        (np.subtract if bin(c).count("1") % 2 else np.add)(out, slab, out=out)
    return out


def _weight_prefix(omega: WeightField, family: RectangleFamily) -> tuple[np.ndarray, np.ndarray]:
    """omega on the extents widened by the family's margins, w_exp, and its
    zero-bordered prefix pw over every spatial axis.  RangeError unless
    pw's total T stays finite times the bounds of _box_blocks."""
    grid = family.grid
    with np.errstate(over="ignore"):
        w_exp = omega.expanded_spatial(family.margins())
        pw = prefix_sums(w_exp, range(2 * grid.n))
    half = (max(grid.factors) + 1) // 2
    if not math.isfinite(float(pw[(-1,) * pw.ndim]) * max(family.t_len_choices()[-1], half) * (1 + 2.0**-20)):
        raise RangeError("the weighted volumes of the family's boxes overflow float64")
    return w_exp, pw


def _box_volumes(w_exp: np.ndarray, pw: np.ndarray, grid: GridSpec, boxes: list) -> np.ndarray:
    """Weighted volumes, shape (n_0, .., n_m), of the boxes that take per
    spatial factor i of grid one of boxes[i] = (lo, side), lo
    (n_i, N_i) their low corners in w_exp and side (n_i,), in C order.

    Each volume is the alternating sum of pw (_weight_prefix) at the box's
    corners, folded one factor at a time, last first, through the corners
    in _factor_options order (_fold): a box's float depends on the box
    alone, not on the boxes folded with it.  The fold of the first factor
    reads only the rows of pw at its boxes' corners.

    Certified: every fold input lies in [0, M], M the box's all-high
    corner entry (pw grows along every axis, rounding being monotone),
    and is off by at most D * eps/2 of itself, D = sum(w_exp.shape)
    bounding its additions; the folds add 2^sp such inputs in at most
    2^sp - 1 steps, so the volume is off by at most
    B = 2^sp * (D + 2^sp) * eps * M.  Wide-range weights cancel there: a
    volume that does not clear 2^20 * B, so that it might be off by more
    than one part in about a million, is summed directly from w_exp, as
    maximal_field_reference sums it.  Exact weights keep every bit, the
    direct sum being exact too."""
    axs = [list(grid.factor_axes(i)) for i in range(len(grid.factors))]
    dims = np.asarray(pw.shape)
    table = pw.reshape([int(np.prod(dims[ax])) for ax in axs])
    flats = []
    for ax, (lo, side) in zip(axs, boxes):
        high = np.asarray(list(itertools.product((1, 0), repeat=len(ax))))
        at = lo + high[:, None, :] * side[:, None]
        flats.append(np.ravel_multi_index(np.moveaxis(at, -1, 0), dims[ax]))
    rows, at_row = np.unique(flats[0], return_inverse=True)
    vol = np.take(table, rows, axis=0)
    for i in reversed(range(len(axs))):
        flat = at_row.reshape(flats[0].shape) if i == 0 else flats[i]
        shape = (*vol.shape[:i], flat.shape[1], *vol.shape[i + 1 :])
        vol = _fold(vol, i, flat, np.empty(shape), np.empty(shape))
    bound = table[np.ix_(*(flat[0] for flat in flats))]
    bound *= 2.0**20 * 2**pw.ndim * (sum(w_exp.shape) + 2**pw.ndim) * np.finfo(np.float64).eps
    for box in zip(*np.nonzero(vol <= bound)):
        cells = [slice(a, a + side[j]) for (lo, side), j in zip(boxes, box) for a in lo[j]]
        vol[box] = w_exp[tuple(cells)].sum()
    return vol


def _column_volumes(family: RectangleFamily, w_exp: np.ndarray, pw: np.ndarray, base) -> np.ndarray:
    """Every box's own weighted volume at the anchor base (its offset from
    the extents' low corner), shape (n_o_0, .., n_o_m) over the options
    of _factor_options, so flat in _box_tables order: the floats that
    _least_volumes takes the least of (_box_volumes)."""
    at = np.add(base, family.margins())
    boxes = []
    for i in range(len(family.grid.factors)):
        off, side, _ = _factor_options(family, i)
        boxes.append((at[list(family.grid.factor_axes(i))] + off, side))
    return _box_volumes(w_exp, pw, family.grid, boxes)


def _least_volumes(family: RectangleFamily, w_exp: np.ndarray, pw: np.ndarray, windows=None) -> np.ndarray:
    """The least weighted volume of every window group, W (G_0, .., G_m):
    W[q_0, .., q_m] is the least _box_volumes over the boxes that take
    per factor i one box of its window q_i (_clip_groups), so a column's
    groups read theirs with one gather.  Given windows, per factor i the
    sorted windows to take of its G_i, W holds only their groups, in that
    order.  Every box is folded once, in runs of the first factor's
    windows whose folds take about _BLOCK_BYTES (one window at least):
    per box of that factor, its 2^N_0 corner rows of pw, its fold result
    and its corner slab, each holding, per other factor, that factor's
    boxes or its pw entries, whichever are more, 8 bytes apiece.  The
    table of every box is never held.  InvariantViolation unless every
    least volume is positive."""
    grid = family.grid
    axs = [list(grid.factor_axes(i)) for i in range(len(grid.factors))]
    margins = np.asarray(family.margins())
    boxes = [(lo + margins[ax], side, first) for ax, (*_, (lo, side, first)) in zip(axs, _clip_groups(family))]
    if windows is not None:
        # the boxes of the windows taken, each window's boxes in their order
        for i, ((lo, side, first), q) in enumerate(zip(boxes, windows)):
            sizes = np.diff(first, append=len(side))[q]
            starts = np.cumsum(sizes) - sizes
            pick = np.repeat(first[q] - starts, sizes) + np.arange(sizes.sum())
            boxes[i] = (lo[pick], side[pick], starts)
    W = np.empty([len(first) for _, _, first in boxes])
    dims = np.asarray(pw.shape)
    wide = math.prod(max(len(side), int(np.prod(dims[ax]))) for ax, (_, side, _) in zip(axs[1:], boxes[1:]))
    per_run = max(1, _BLOCK_BYTES // (8 * (2 ** len(axs[0]) + 2) * wide))
    lo, side, first = boxes[0]
    ends = np.r_[first[1:], len(side)]
    a = 0
    while a < len(first):
        b = max(a + 1, int(np.searchsorted(ends, first[a] + per_run, side="right")))
        run = slice(first[a], ends[b - 1])
        vol = _box_volumes(w_exp, pw, grid, [(lo[run], side[run])] + [box[:2] for box in boxes[1:]])
        for i, (_, _, starts) in enumerate(boxes[1:], start=1):
            vol = np.minimum.reduceat(vol, starts, axis=i)
        W[a:b] = np.minimum.reduceat(vol, first[a:b] - first[a], axis=0)
        a = b
    if not np.all(W > 0):
        raise InvariantViolation("weighted volume must be positive on every box")
    return W


def _box_blocks(
    f: ScalarField,
    omega: WeightField,
    family: RectangleFamily,
    cols: np.ndarray,
    convention: str,
    prefix: tuple | None = None,
) -> Iterator[tuple[int, tuple, np.ndarray, np.ndarray]]:
    """Box stage of the fast path, one anchor column at a time (flat
    spatial indices cols, C order), one box per clipped data window.

    f vanishes off the extents, so the spatial prefix p below spans only
    them and every box corner is clipped to them.  At an anchor, the
    options of a factor whose clipped corner columns coincide
    (_clip_groups) take the same entries of every table in the same fold
    order, so the boxes of one group, the product of one group per
    factor, have bitwise equal sums at every cut.  A column folds one box
    per group and gives it the least weighted volume of its members, the
    computed minimum of their volumes (_box_volumes): a group's boxes are
    nested, one per side, but under real weights the folds' rounding can
    order their volumes either way.  No maximum changes: with num >= 0 an
    average num / (wv * L) cannot grow with wv, rounding being monotone,
    and a negative num never raises a value that starts at 0.

    The weighted volumes do not depend on f or on the anchor: a group's
    members are every box of its window, and a box's volume is a function
    of the box.  So the set-up builds, once per call, the table W of the
    least volume of every window group that the columns' groups reach
    (_least_volumes; every group, for every column), out of the weight
    prefix (_weight_prefix) that a caller holding it passes as prefix,
    and a column reads its groups' with one gather, W at the product of
    their windows.

    Every cell's sheared samples of anchor cols[k] lie on a common axis of
    n_c = t_len + 2 * top cuts from c_lo = t_lo - top + 1, top being the
    family's longest t length: the weighted t-prefix rows of omega * |f|
    are padded with n_c zeros in front and n_c copies of their total
    behind, so each cell reads one n_c-wide window of its row, at its
    clipped shear, the anchor's combination of a per-call table of unit
    anchors' shears.  Columns go in runs of B, as many as their gathered
    windows and spatial prefixes fit _BLOCK_BYTES (one at least): a run
    takes its shears with one product, gathers its columns' windows one
    column at a time into the interior of a zero-bordered run buffer,
    and prefix_sums sums their spatial prefixes p there in place over a
    leading run axis, each entry from the same operands in the same
    order as for one column.  Per column, _fold sums the groups'
    windows out of its p, one factor at a time, last first, and p's first
    factor one run of its groups per block.  Yields (k, at, bv, wv) per
    block of groups: at = (gs, groups) holds the block's first group gs in
    C order over the column's group counts (g_0, .., g_m) and the column's
    groups (order, starts) per factor; bv (n_c, nb) is stored cuts-major,
    bv[c, j] being the sum of omega * |f| over group gs + j's window at
    sheared t < c_lo + c, and wv (nb,) holds the groups' least volumes.
    bv views a per-call buffer that the next block refills.  A block is a
    run of the first factor's groups that _BLOCK_BYTES sizes from the
    column's counts; columns run widest block first, corner anchors
    having the fewest groups.

    The working set is allocated once per call, in this order: the padded
    weighted rows, n_sp * (t_len + 1 + 2 * n_c); omega over the extents
    widened by the margins and its prefix pw, each prod(w_a + 2 * m_a)
    entries or one more per axis, m_a the margin on axis a; W, at most
    prod_i G_i floats for G_i windows of factor i, built in runs of the
    first factor's windows whose folds take about _BLOCK_BYTES each and
    are freed before the rest is allocated; the shear table, 2n * n_sp;
    the run buffer of the gathered windows and p, B * prod(w_a + 1) *
    n_c, under _BLOCK_BYTES unless B is 1; per factor a fold result and a
    corner slab for p, sized by the widest column; and the cuts-major
    block.  Cached per family (_clip_groups), per anchor
    position on factor i's axes: the group tables, n_o_i + 2 * g, and
    the groups' first corners, 2^N_i * g, n_o_i being i's box options and
    N_i its axis count; and the boxes by window, U_i * (N_i + 1) + G_i.  A
    run allocates its shears and window starts (B, n_sp); a column its
    windows, n_sp * n_c, before they are copied into the run buffer, its
    least volumes and their offsets in W.

    Range: the set-up raises RangeError unless S = sum(omega * |f|) and
    the weight prefix's total T stay finite times the bounds below, so
    every box sum, weighted volume and numerator of both stages is a
    finite float (a quotient may still be +inf).  Prefix entries and box
    sums lie in [0, S] (of omega: [0, T]) up to rounding, and so does a
    numerator's magnitude; a fold's partial sum over its first j corners
    is an alternating sum of popcount(j) <= N box sums over fewer axes, so
    it stays within ceil(N / 2) * S for a factor of N axes; and
    wv * L <= T * top.  A weighted volume is certified against its
    folds' rounding bound and, where it might have cancelled, summed
    directly (_box_volumes), so wide-range weights give positive volumes;
    InvariantViolation is left for a least volume that is not positive.
    """
    grid = f.grid
    sp, L = 2 * grid.n, grid.t_len
    top = family.t_len_choices()[-1]
    n_c = L + 2 * top

    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in grid.extents[:sp]]
    coords_sp = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sp)
    n_sp = coords_sp.shape[0]
    # the t-prefix of omega * |f| per spatial cell, between n_c zeros and
    # n_c copies of its total
    rows = np.zeros((n_sp, L + 1 + 2 * n_c))
    cf = rows[:, n_c : n_c + L + 1]
    with np.errstate(over="ignore"):
        prefix_sums(np.abs(f.values).reshape(n_sp, L), [1], out=cf)
        cf *= omega.values.reshape(-1, 1)
        S = float(cf[:, -1].sum())
    # the bounds of the docstring, with 2^-20 to spare for rounding
    if not math.isfinite(S * ((max(grid.factors) + 1) // 2) * (1 + 2.0**-20)):
        raise RangeError(f"omega * |f| sums to {S!r}: its box sums overflow float64")
    rows[:, n_c + L + 1 :] = cf[:, -1:]
    p_dims = np.add(grid.spatial_shape, 1)
    axs = [list(grid.factor_axes(i)) for i in range(len(grid.factors))]
    clip = _clip_groups(family)
    # each column's position on each factor's axes and group counts g, its
    # block run of first-factor groups and block width
    idx = np.unravel_index(cols, grid.spatial_shape)
    at = [np.ravel_multi_index([idx[a] for a in ax], [grid.spatial_shape[a] for a in ax]) for ax in axs]
    g = np.stack([counts[pos] for (_, _, counts, _, _), pos in zip(clip, at)])
    inner = np.prod(g[1:], axis=0)
    runs = np.minimum(g[0], np.maximum(1, _BLOCK_BYTES // (2 * n_c * 8 * inner)))
    # W, flat, holds the least volumes of the windows that the columns'
    # groups reach; per factor and anchor position reached, offsets holds
    # its groups' offsets in W along the factor's axis of a broadcast, so a
    # column's volumes are W at the sum of its factors' offsets
    reach = [np.unique(np.concatenate([ids[q] for q in np.unique(pos)])) for (*_, ids, _), pos in zip(clip, at)]
    W = _least_volumes(family, *(_weight_prefix(omega, family) if prefix is None else prefix), reach)
    strides = np.cumprod([1, *W.shape[:0:-1]])[::-1]
    offsets = [
        {q: (np.searchsorted(r, ids[q]) * stride).reshape(-1, *[1] * (len(axs) - 1 - i)) for q in np.unique(pos).tolist()}
        for i, ((*_, ids, _), r, pos, stride) in enumerate(zip(clip, reach, at, strides))
    ]
    W = W.reshape(-1)
    # cut j, at t = c_lo + j, of cell r reads the t-prefix at
    # clip(c_lo + j + shear_r - t_lo, 0, L), entry n_c + that of its padded
    # row: entry j of the row's window at shear_r + 1 - top + n_c, clipped
    # to the windows there are; the shear is linear in the anchor
    windows = np.lib.stride_tricks.sliding_window_view(rows, n_c, axis=1)
    cells = np.arange(n_sp)
    shears = _shear(grid.mu, np.eye(sp, dtype=np.int64), coords_sp, convention)
    # a run of columns shares one shear, gather and spatial prefix: as many
    # columns as their gathered windows and prefixes, counted apart, fit
    # _BLOCK_BYTES, though the windows are gathered into the interior of
    # the zero-bordered prefix buffer (runs counting the prefix alone, 7
    # columns instead of 3, ran about 10% slower at n = 1 dyadic size 24)
    p_merged = [int(np.prod(p_dims[ax])) for ax in axs] + [n_c]
    B = min(len(cols), max(1, _BLOCK_BYTES // (8 * n_c * (n_sp + math.prod(p_merged[:-1])))))
    p_run = np.zeros((B, *p_dims, n_c))
    gathered = p_run[(slice(None),) + (slice(1, None),) * sp]
    # per factor a fold result and a corner slab of p, flat and sized for
    # the most groups of factors i.. in a column (tails[i]); one
    # cuts-major block
    tails = np.cumprod(g[::-1], axis=0)[::-1].max(axis=1)
    p_bufs = [np.empty(2 * math.prod(p_merged[:i]) * int(tails[i]) * n_c) for i in range(1, len(axs))]
    p_bufs.insert(0, np.empty(2 * int((runs * inner).max()) * n_c))
    cm = np.empty(p_bufs[0].size // 2)

    def bufs(i, shape):
        return p_bufs[i][: 2 * math.prod(shape)].reshape(2, *shape)

    places = np.stack(at, axis=1).tolist()
    order = np.argsort(-runs * inner, kind="stable")
    for first in range(0, len(order), B):
        ks = order[first : first + B]
        start = coords_sp[cols[ks]] @ shears
        start += 1 - top + n_c
        # np.clip without its per-call Python checks (about 20 us)
        np.minimum(np.maximum(start, 0, out=start), L + 1 + n_c, out=start)
        for b, s in enumerate(start):
            gathered[b] = windows[cells, s].reshape(*grid.spatial_shape, n_c)
        prefix_sums(gathered[: len(ks)], range(1, sp + 1), out=p_run[: len(ks)])
        for b, k in enumerate(ks.tolist()):
            # per factor the anchor's groups, their first options' corners and
            # their least volumes
            where = places[k]
            groups = [c[1][q] for c, q in zip(clip, where)]
            firsts = [c[0][q] for c, q in zip(clip, where)]
            wv = W.take(_corner_rows(offsets, where)).reshape(-1)
            gk = g[:, k].tolist()
            sums = p_run[b].reshape(p_merged)
            for i in reversed(range(1, len(axs))):
                sums = _fold(sums, i, firsts[i], *bufs(i, (*p_merged[:i], *gk[i:], n_c)))
            run, width = int(runs[k]), int(inner[k])
            for o in range(0, gk[0], run):
                pos = firsts[0][:, o : o + run]
                box_sums = _fold(sums, 0, pos, *bufs(0, (pos.shape[1], *gk[1:], n_c)))
                bv = cm[: box_sums.size].reshape(n_c, -1)
                np.copyto(bv, box_sums.reshape(-1, n_c).T)
                gs = o * width
                yield k, (gs, groups), bv, wv[gs : gs + bv.shape[1]]


# the unit-slice bound's rounding margin, and the least normal float,
# below which it does not hold: see _column_values
_SHRINK = 1.0 - 8 * np.finfo(np.float64).eps
_TINY = float(np.finfo(np.float64).tiny)


def _prunes(t_len: int, lens: list[int]) -> bool:
    """Whether the interval stage prunes boxes: when the averages of the t
    lengths past 1, sum (t_len + L - 1), are at least 4 times the n_c - 1
    unit slices that the bound reads.  Measured on one box per clipped
    window (median milliseconds of 5 alternating in-process pairs, pruned
    against the per-length loop, n = 1 unless said): at ratios of 4.2 to
    7.7 (full families of sizes 9 to 16, sizes 14 and 12 capped at t
    length 8 or 10) pruning was faster on integer and dense data, by 6 to
    50%, and on box indicators but at size 9; on sparse data faster from
    ratio 7.7 and on size 14 capped (7 to 31%), slower at sizes 9 to 12
    (+1 to +46%); on point masses slower everywhere (+5 to +83%), a
    quarter of their groups surviving the bound.  Summed over the five
    kinds it was behind at 4.2 and 4.7 (full sizes 9 and 10) and ahead
    from 4.3 (size 14 capped) and 4.9 on, so the data do not move the
    threshold from 4.  Below 4 (full sizes 5 to 8, size 12 capped at t
    length 4, dyadic sizes 8 to 24, n = 2 dyadic size 5) it was slower by
    up to 78%, or level."""
    n_c = t_len + 2 * lens[-1]
    return sum(t_len + Lt - 1 for Lt in lens[1:]) >= 4 * (n_c - 1)


def _column_values(
    f: ScalarField,
    omega: WeightField,
    family: RectangleFamily,
    cols: np.ndarray,
    convention: str,
) -> np.ndarray:
    """Twisted maximal values on whole t columns, shape (len(cols), t_len).

    Interval stage over _box_blocks, into out[k] for anchor cols[k].  A
    box below is one of its groups, one per clipped data window, whose
    least volume gives every interval its members' greatest average where
    the numerator is >= 0 (see _box_blocks): so the maximum over the
    groups is the maximum over every box, bit for bit.  With bv
    cuts-major, every average is one prefix difference over one product
    wv * L (_averages), and each prefix entry comes from the same gather,
    spatial prefix and per-factor folds in a fixed order whatever the
    block; so argmax_rectangle, running both stages on one column, reads
    bitwise the value stored here.  The output is exact, and bitwise
    maximal_field_reference, while every prefix partial sum (of
    omega * |f|, and of omega) is an integer multiple of the data's dyadic
    grain g below 2^53 * g.  Past that, prefix differences cancel: each
    carries an error of about |C| * eps for the prefix C it is taken from,
    so a small average next to a large spike loses its relative accuracy.

    Where _prunes fails, every block runs every interval, one t length at
    a time (_raise_by_length).  Where it holds (many long t lengths on a
    short t extent, as in full families), every block first takes the
    averages of its boxes over the n_c - 1 unit slices, u[c] over cuts
    c .. c + 1, into a per-call buffer.  Rows
    top - 1 .. top - 2 + t_len of u are the L = 1 averages and seed out[k];
    the boxes attaining that maximum at some t (at most t_len of them) then
    run every longer length, which gives the bound below a high value early.

    Bound: an interval's numerator is the sum of its unit slices'
    differences of the same bv floats, so in exact arithmetic its average
    is at most its largest unit average; the subtract, product and divide
    round it by at most (1 + eps/2)^2 / (1 - eps/2)^3 < 1 + 4 eps while
    the averages are normal floats.  Slice c lies in an interval through
    t index i iff c - 2 * top + 2 <= i <= c, so with thr[c] the least
    out[k] over those i, a box none of whose slices has
    u[c] * (1 + 4 eps) > thr[c] cannot raise out[k] anywhere, and skipping
    it keeps every bit of the output.  The code tests
    u[c] > thr[c] * (1 - 8 eps), rounded, which keeps every such box and
    scales the thresholds instead of u; a boolean buffer of u's shape
    holds the test.  The margin is a rounding bound and needs no
    data-dependent slack: a slack would let zero boxes beat zero
    thresholds, and skipping those is what prunes point masses and sparse
    data.  The survivors are gathered, in parts, into u's buffer and run
    the longer lengths through one table of all their intervals.

    Normal averages: with 2^(e_f - 1) <= the least nonzero |f| and
    2^(e_o - 1) <= the least omega, every omega * |f| prefix the gather
    takes is an integer multiple of g = 2^(e_f + e_o - 54) (or of the
    least subnormal, if larger), and sums and differences keep that, so a
    nonzero numerator is at least g and its average at least
    g / 2^(e_wv + e_top) for wv < 2^(e_wv) and top < 2^(e_top).  Where
    that could be below the least normal float, rounding is absolute and
    the margin fails, so such a block runs _raise_by_length too.

    Signed zeros: an average can underflow to -0.0, and np.maximum's
    vector loops return their second operand on equal zeros, so a zero
    cell's sign would rest on numpy's loop choice; both paths end with
    out += 0.0, which makes every zero +0.0 and changes no other bit.
    """
    T = f.grid.t_len
    lens = family.t_len_choices()
    top = lens[-1]
    out = np.zeros((len(cols), T))
    wins = {Lt: np.arange(T)[:, None] + np.arange(Lt) for Lt in lens}
    blocks = _box_blocks(f, omega, family, cols, convention)
    if not _prunes(T, lens):
        for k, _, bv, wv in blocks:
            _raise_by_length(out[k], bv, wv, wins)
        out += 0.0
        return out
    # the intervals of t length past 1 by lower cut, upper cut and length,
    # and per t index the ones through it
    longer = lens[1:]
    counts = [T + Lt - 1 for Lt in longer]
    lo = np.concatenate([np.arange(top - Lt, top + T - 1) for Lt in longer])
    starts = np.cumsum([0] + counts[:-1])
    ivals = (
        lo,
        lo + np.repeat(longer, counts),
        np.repeat(np.asarray(longer, dtype=np.float64), counts)[:, None],
        np.concatenate([s + np.arange(T)[:, None] + np.arange(Lt) for s, Lt in zip(starts, longer)], axis=1),
    )
    n_s = T + 2 * top - 1
    units = (slice(0, n_s), slice(1, n_s + 1), 1.0)
    # the t indices each unit slice reaches, T standing for none (an inf pad)
    at = np.arange(n_s)[:, None] - np.arange(2 * top - 1)
    reach = np.where((at >= 0) & (at < T), at, T)
    padded = np.full(T + 1, np.inf)
    # a nonzero numerator is at least 2^(grain + e_top), top < 2^(e_top)
    nz = np.abs(f.values)[f.values != 0]
    e_f = math.frexp(float(nz.min()))[1] if nz.size else 1
    grain = max(e_f + math.frexp(float(omega.values.min()))[1] - 54, -1074) - math.frexp(top)[1]
    u_buf = mask_buf = None
    for k, _, bv, wv in blocks:
        nb = bv.shape[1]
        if u_buf is None:
            # the first block is the widest, _box_blocks running the widest
            # column first; survivors go through in parts whose three
            # interval tables (two while _averages subtracts, then the
            # products) take half the t_len + top - 1 averages per box of a
            # longest length, and as len(lo) >= t_len + top - 1, a part's
            # gathered prefixes fit u's buffer
            u_buf, mask_buf = np.empty(n_s * nb), np.empty(n_s * nb, dtype=bool)
            part = max(1, (T + top - 1) * nb // (6 * len(lo)))
        # a nonzero average is at least 2^(grain - e_wv), wv < 2^(e_wv)
        if math.ldexp(1.0, min(0, grain - math.frexp(float(wv.max()))[1])) < _TINY:
            _raise_by_length(out[k], bv, wv, wins)
            continue
        u = _averages(bv, wv, *units, out=u_buf[: n_s * nb].reshape(n_s, nb))
        seed = u[top - 1 : top - 1 + T]
        np.maximum(out[k], seed.max(axis=1), out=out[k])
        heads = seed.argmax(axis=1)
        _raise_on_intervals(out[k], bv[:, heads], wv[heads], ivals)
        padded[:T] = out[k]
        mask = mask_buf[: u.size].reshape(u.shape)
        np.greater(u, padded[reach].min(axis=1)[:, None] * _SHRINK, out=mask)
        alive = mask.any(axis=0)
        alive[heads] = False
        keep = np.flatnonzero(alive)
        for i in range(0, len(keep), part):
            boxes = keep[i : i + part]
            X = u_buf[: (n_s + 1) * len(boxes)].reshape(n_s + 1, -1)
            np.take(bv, boxes, axis=1, out=X)
            _raise_on_intervals(out[k], X, wv[boxes], ivals)
    out += 0.0
    return out


def _raise_by_length(row: np.ndarray, bv: np.ndarray, wv: np.ndarray, wins: dict) -> None:
    """Raise row, one column's values, to the maxima over the boxes of bv
    (cuts-major) and wv of every interval, one t length at a time: wins
    maps each length L, the longest being top, to per t the L intervals
    through it, whose lower cuts are top - L .. top + t_len - 2."""
    T, top = len(row), max(wins)
    for Lt, win in wins.items():
        best = _averages(bv, wv, slice(top - Lt, top + T - 1), slice(top, top + T + Lt - 1), Lt).max(axis=1)
        np.maximum(row, best[win].max(axis=1), out=row)


def _raise_on_intervals(row: np.ndarray, bv: np.ndarray, wv: np.ndarray, ivals: tuple) -> None:
    """Raise row, one column's values, to the maxima over the boxes of bv
    (cuts-major) and wv of the intervals ivals = (lower cuts, upper cuts,
    lengths, per t the intervals through it)."""
    lo, hi, lens, through = ivals
    best = _averages(bv, wv, lo, hi, lens).max(axis=1)
    np.maximum(row, best[through].max(axis=1), out=row)


def _averages(bv: np.ndarray, wv: np.ndarray, lo, hi, lens, out=None) -> np.ndarray:
    """Averages over the boxes of bv (cuts-major) and wv of the t intervals
    with lower cuts lo, upper cuts hi and t lengths lens: slices and one
    length, or index arrays and a column of lengths; shape (intervals, nb).
    Every average of the fast path and of argmax_rectangle is taken here,
    so one interval of one box gives one float."""
    num = np.subtract(bv[hi], bv[lo], out=out)
    num /= wv * lens
    return num


def maximal_field(
    f: ScalarField,
    omega: WeightField,
    family: RectangleFamily,
    convention: str = SHIFT_STANDARD,
) -> MaximalField:
    """Twisted weighted maximal field on the whole grid (fast path)."""
    _check_inputs(f, omega, family, convention)
    grid = f.grid
    cols = np.arange(int(np.prod(grid.spatial_shape)))
    out = _column_values(f, omega, family, cols, convention)
    return MaximalField(grid, out.reshape(grid.shape), family.describe(), omega.descriptor, convention)


def _point_column(x, grid: GridSpec) -> tuple[tuple[int, ...], int]:
    """Coordinates of the grid point x and the flat index of its t column."""
    coords = _as_point_coords(x, grid)
    if not grid.contains(coords):
        raise DomainError(f"point {coords} outside extents {grid.extents}")
    col = np.ravel_multi_index(np.subtract(coords, grid.lows)[: 2 * grid.n], grid.spatial_shape)
    return coords, int(col)


# ---------------------------------------------------------------------------
# group form: averages of |f| over translates of rectangles through the
# identity, evaluated by reflected sampling around the point


def maximal_group_form(f: ScalarField, x, family: RectangleFamily) -> float:
    """Unweighted maximal average in group coordinates at x.

    Averages |f(x * y^{-1})| over y in rectangles of the family that
    contain the identity.  The point x may lie anywhere on the lattice;
    f is zero off the extents.
    """
    if f.grid != family.grid:
        raise DomainError("field and family must share one grid")
    grid = f.grid
    n, sp = grid.n, 2 * grid.n
    coords = _as_point_coords(x, grid)
    xsp = np.asarray(coords[:sp], dtype=np.int64)
    xt = coords[-1]
    margins = family.margins()
    reach_t = family.max_t_len - 1

    axes = [np.arange(-mrg, mrg + 1, dtype=np.int64) for mrg in margins]
    mesh = np.meshgrid(*axes, indexing="ij")
    region_shape = tuple(2 * mrg + 1 for mrg in margins)
    xi = np.stack(mesh, axis=-1)
    tau = np.arange(-reach_t, reach_t + 1, dtype=np.int64)

    # x * (xi, eta, tau)^{-1} = (u - xi, v - eta, t - tau + mu*(v.xi - u.eta))
    twist = grid.mu * (
        np.tensordot(xi[..., :n], xsp[n:sp], axes=(-1, 0))
        - np.tensordot(xi[..., n:sp], xsp[:n], axes=(-1, 0))
    )
    sample = np.empty(region_shape + (2 * reach_t + 1, grid.d), dtype=np.int64)
    sample[..., :sp] = (xsp[None, :] - xi.reshape(-1, sp)).reshape(region_shape + (1, sp))
    sample[..., sp] = (xt + twist)[..., None] - tau

    vals = np.abs(f.sample_many(sample))
    p = vals
    for ax in range(sp + 1):
        p = np.cumsum(p, axis=ax)
    p = np.pad(p, [(1, 0)] * (sp + 1))

    lo_off, side_ax, cells = _box_tables(family)
    origin = np.asarray(margins, dtype=np.int64)
    blo = origin[None, :] + lo_off
    bhi = blo + side_ax
    sv = np.zeros((lo_off.shape[0], 2 * reach_t + 2))
    for bits in itertools.product((0, 1), repeat=sp):
        sign = -1.0 if (sp - sum(bits)) % 2 else 1.0
        idx = tuple((bhi if b else blo)[:, ax] for ax, b in enumerate(bits))
        sv += sign * p[idx]

    best = 0.0
    for Lt in family.t_len_choices():
        for a_off in range(-Lt + 1, 1):
            a_idx = reach_t + a_off
            num = sv[:, a_idx + Lt] - sv[:, a_idx]
            best = max(best, float((num / (cells * Lt)).max()))
    return best


# ---------------------------------------------------------------------------
# direct-summation reference (no cumulative tables anywhere)


def maximal_field_reference(
    f: ScalarField,
    omega: WeightField,
    family: RectangleFamily,
    convention: str = SHIFT_STANDARD,
) -> MaximalField:
    """Twisted weighted maximal field by literal summation.

    Loops over anchor columns, gathers the sheared samples of one slab,
    and sums each rectangle with plain slice sums.  Exact for integer
    data, independent of the prefix-sum machinery, and meant for small
    grids only.
    """
    _check_inputs(f, omega, family, convention)
    grid = f.grid
    sp, L = 2 * grid.n, grid.t_len
    margins = family.margins()
    reach_t = family.max_t_len - 1
    w_exp = omega.expanded_spatial(margins)

    # spatial boxes as (slab slice per axis, matching weight-window slice)
    boxes = []
    side_lists = [family.side_choices(i) for i in range(len(grid.factors))]
    for sides in itertools.product(*side_lists):
        side_ax = []
        for s, N in zip(sides, grid.factors):
            side_ax.extend([s] * N)
        for off in itertools.product(*(range(-s + 1, 1) for s in side_ax)):
            sl = tuple(
                slice(mrg + o, mrg + o + s) for mrg, o, s in zip(margins, off, side_ax)
            )
            boxes.append(sl)

    # t intervals as (slab slice, real bounds)
    t_windows = []
    for Lt in family.t_len_choices():
        for a in range(grid.t_lo - Lt + 1, grid.t_hi + 1):
            sl = slice(a - (grid.t_lo - reach_t), a - (grid.t_lo - reach_t) + Lt)
            t_cov = slice(max(a, grid.t_lo) - grid.t_lo, min(a + Lt - 1, grid.t_hi) - grid.t_lo + 1)
            t_windows.append((sl, Lt, t_cov))

    tau = np.arange(grid.t_lo - reach_t, grid.t_hi + reach_t + 1, dtype=np.int64)
    out = np.zeros(grid.shape)
    sp_lows = np.asarray(grid.lows[:sp], dtype=np.int64)
    for sp_idx in itertools.product(*(range(w) for w in grid.spatial_shape)):
        anchor = np.asarray(sp_idx, dtype=np.int64) + sp_lows
        axes = [
            np.arange(pc - mrg, pc + mrg + 1, dtype=np.int64)
            for pc, mrg in zip(anchor, margins)
        ]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        shear = _shear(grid.mu, anchor[None, :], mesh.reshape(-1, sp), convention).reshape(mesh.shape[:-1])
        coords = np.empty(mesh.shape[:-1] + (tau.shape[0], grid.d), dtype=np.int64)
        coords[..., :sp] = mesh[..., None, :]
        coords[..., sp] = tau[None, :] + shear[..., None]
        gw = np.abs(f.sample_many(coords))
        wslab = w_exp[tuple(slice(i, i + 2 * mrg + 1) for i, mrg in zip(sp_idx, margins))]
        gw *= wslab[..., None]
        best = np.zeros(L)
        for bsl in boxes:
            wsum = float(wslab[bsl].sum())
            block = gw[bsl]
            for tsl, Lt, t_cov in t_windows:
                val = float(block[(Ellipsis, tsl)].sum()) / (wsum * Lt)
                cur = best[t_cov]
                np.maximum(cur, val, out=cur)
        out[sp_idx] = best
    return MaximalField(grid, out, family.describe(), omega.descriptor, convention)


# ---------------------------------------------------------------------------
# untwisted comparison operator (mu = 0 face), via sliding windows


def untwisted_maximal_field(
    f: ScalarField, omega: WeightField, family: RectangleFamily
) -> MaximalField:
    """Ordinary weighted strong maximal field, no shear anywhere.

    Built from numpy sliding windows over zero-padded data, so it shares
    no evaluation machinery with the twisted paths; for mu = 0 the
    twisted field must reproduce it exactly on integer data.
    """
    _check_inputs(f, omega, family)
    grid = f.grid
    sp = 2 * grid.n
    L = grid.t_len
    margins = family.margins()
    reach_t = family.max_t_len - 1
    w_exp = omega.expanded_spatial(margins)
    fw = np.abs(f.values) * omega.full_values()
    fp = np.pad(fw, [(mrg, mrg) for mrg in margins] + [(reach_t, reach_t)])

    swv = np.lib.stride_tricks.sliding_window_view
    out = np.zeros(grid.shape)
    side_lists = [family.side_choices(i) for i in range(len(grid.factors))]
    for sides in itertools.product(*side_lists):
        side_ax = []
        for s, N in zip(sides, grid.factors):
            side_ax.extend([s] * N)
        wsum = swv(w_exp, tuple(side_ax)).sum(axis=tuple(range(sp, 2 * sp)))
        for Lt in family.t_len_choices():
            win = tuple(side_ax) + (Lt,)
            nsum = swv(fp, win).sum(axis=tuple(range(sp + 1, 2 * sp + 2)))
            val = nsum / (wsum[..., None] * Lt)
            vmax = swv(val, win).max(axis=tuple(range(sp + 1, 2 * sp + 2)))
            sel = tuple(
                slice(mrg - s + 1, mrg - s + 1 + w)
                for mrg, s, w in zip(margins, side_ax, grid.spatial_shape)
            ) + (slice(reach_t - Lt + 1, reach_t - Lt + 1 + L),)
            np.maximum(out, vmax[sel], out=out)
    return MaximalField(grid, out, family.describe(), omega.descriptor, "untwisted")


# ---------------------------------------------------------------------------
# diagnostics


def argmax_rectangle(
    f: ScalarField,
    omega: WeightField,
    x,
    family: RectangleFamily,
    convention: str = SHIFT_STANDARD,
) -> tuple[Rectangle, float]:
    """The rectangle attaining the twisted maximum at x, and that maximum.

    Runs the fast path's two stages on x's column and reads its (group,
    interval) table through t, so the value is the fast path's value at x,
    bitwise what maximal_field stores there.  A group's greatest average
    is at its least volume where its numerator is >= 0 and at its greatest
    where it is negative, so the groups reaching the maximum are those
    whose greater of the two equals it.  Their boxes, averaged with their
    own volumes, give every (box, interval) entry equal to it (on a zero
    maximum, every box of such a group); the first of these in (base
    corner, t_lo, per-factor sides, t length) wins.
    """
    _check_inputs(f, omega, family, convention)
    grid = f.grid
    coords, col = _point_column(x, grid)
    sp, t = 2 * grid.n, coords[-1]
    lo_off, side_ax, _ = _box_tables(family)
    cut = family.t_len_choices()[-1] + t - grid.t_lo
    top, ties, owner = -np.inf, [], None
    prefix = _weight_prefix(omega, family)
    for _, (gs, groups), bv, wv in _box_blocks(f, omega, family, np.asarray([col]), convention, prefix):
        if owner is None:
            # every box's group, C order over the column's group counts,
            # every box's own volume and the groups' greatest volumes
            labels = []
            for order, starts in groups:
                label = np.empty_like(order)
                label[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
                labels.append(label)
            owner = np.ravel_multi_index(np.meshgrid(*labels, indexing="ij"), [len(s) for _, s in groups]).reshape(-1)
            most = _column_volumes(family, *prefix, np.subtract(coords[:sp], grid.lows[:sp]))
            own = most.reshape(-1)
            for i, (order, starts) in enumerate(groups):
                most = np.maximum.reduceat(np.take(most, order, axis=i), starts, axis=i)
            most = most.reshape(-1)
        for Lt in family.t_len_choices():
            # the Lt intervals through t start at t - Lt + 1 .. t
            span = slice(cut - Lt, cut), slice(cut, cut + Lt), Lt
            vals = np.maximum(_averages(bv, wv, *span), _averages(bv, most[gs : gs + len(wv)], *span))
            best = vals.max()
            if best > top:
                top, ties = best, []
            if best == top:
                box = np.flatnonzero(np.isin(owner, gs + np.nonzero(vals == top)[1]))
                j, m = np.nonzero(_averages(bv[:, owner[box] - gs], own[box], *span) == top)
                ties.append((np.full(j.shape, Lt), t - Lt + 1 + j, box[m]))
    t_len, t_lo, box = (np.concatenate(k) for k in zip(*ties))
    base = np.asarray(coords[:sp]) + lo_off[box]
    sides = side_ax[box][:, list(grid.factor_starts)]
    keys = np.column_stack([base, t_lo, sides, t_len])
    win = np.lexsort(keys.T[::-1])[0]
    bounds = [(lo, lo + s - 1) for lo, s in zip(base[win], side_ax[box[win]])]
    bounds.append((t_lo[win], t_lo[win] + t_len[win] - 1))
    return Rectangle.from_bounds(bounds, grid.factors), max(0.0, float(top))


# ---------------------------------------------------------------------------
# field serialisation


def write_field_csv(obj, path) -> None:
    """Per-cell rows (coordinates then value) in C order, exact round trip."""
    grid: GridSpec = obj.grid
    vals = np.asarray(obj.values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(grid.axis_names() + ["value"])
        lows = grid.lows
        for idx in itertools.product(*(range(w) for w in grid.shape)):
            coords = [i + lo for i, lo in zip(idx, lows)]
            writer.writerow(coords + [repr(float(vals[idx]))])


def read_field_csv(path, mu: int = 1, factors: Sequence[int] = ()) -> ScalarField:
    """Rebuild a field written by write_field_csv; extents are inferred and
    every cell must appear exactly once."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty field file")
        if len(header) < 4 or header[-1] != "value" or header[-2] != "t":
            raise DomainError(f"unrecognised field header {header!r}")
        d = len(header) - 1
        if d % 2 == 0:
            raise DomainError(f"even coordinate count {d}")
        n = (d - 1) // 2
        want = [f"u{k+1}" for k in range(n)] + [f"v{k+1}" for k in range(n)] + ["t"]
        if header[:-1] != want:
            raise DomainError(f"unexpected axis names {header[:-1]!r}")
        rows = [(tuple(int(c) for c in row[:-1]), float(row[-1])) for row in reader if row]
    if not rows:
        raise DomainError("no data rows")
    if any(len(c) != d for c, _ in rows):
        raise DomainError(f"{path}: every row needs {d + 1} fields")
    coords = np.asarray([c for c, _ in rows], dtype=np.int64)
    extents = tuple((int(coords[:, ax].min()), int(coords[:, ax].max())) for ax in range(d))
    grid = GridSpec(n=n, extents=extents, factors=tuple(factors), mu=mu)
    if len(rows) != grid.cell_count:
        raise DomainError(f"{len(rows)} rows do not fill extents {extents}")
    vals = np.full(grid.shape, np.nan)
    for c, v in rows:
        vals[tuple(x - lo for x, lo in zip(c, grid.lows))] = v
    if np.any(np.isnan(vals)):
        raise DomainError("duplicate or missing cells in field file")
    return ScalarField(grid, vals)


_BIN_MAGIC = b"SMXF"


def write_field_binary(obj, path) -> None:
    """Little-endian header (magic, int64 d, int64 extent pairs) then the
    float64 payload in C order."""
    grid: GridSpec = obj.grid
    vals = np.ascontiguousarray(np.asarray(obj.values), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<q", grid.d))
        for lo, hi in grid.extents:
            fh.write(struct.pack("<qq", lo, hi))
        fh.write(vals.tobytes(order="C"))


def read_field_binary(path, mu: int = 1, factors: Sequence[int] = ()) -> ScalarField:
    with open(path, "rb") as fh:
        if fh.read(4) != _BIN_MAGIC:
            raise DomainError(f"{path}: not a field file")
        try:
            (d,) = struct.unpack("<q", fh.read(8))
            if d < 3 or d % 2 == 0:
                raise DomainError(f"bad dimension {d}")
            extents = tuple(struct.unpack("<qq", fh.read(16)) for _ in range(d))
        except struct.error as exc:
            raise DomainError(f"{path}: truncated field header") from exc
        grid = GridSpec(n=(d - 1) // 2, extents=extents, factors=tuple(factors), mu=mu)
        payload = fh.read()
    if len(payload) != 8 * grid.cell_count:
        raise DomainError(f"{path}: payload holds {len(payload)} bytes, extents need {8 * grid.cell_count}")
    return ScalarField(grid, np.frombuffer(payload, dtype="<f8").reshape(grid.shape))
