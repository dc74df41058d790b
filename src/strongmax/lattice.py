"""Integer-lattice geometry: grids, cube-product rectangles, prefix sums.

Cells are unit cubes of Z^d indexed by their integer coordinates, with
d = 2n + 1 and axes ordered u_1..u_n, v_1..v_n, t.  The 2n spatial axes
are partitioned into consecutive factor blocks; a rectangle is a product
of one cube per factor (every axis inside a factor shares the same side
length) with a closed integer interval on the t axis.  All volumes are
cell counts, so measure-type quantities stay in exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "RangeError",
    "InvariantViolation",
    "GridSpec",
    "Rectangle",
    "ScalarField",
    "RectangleFamily",
    "count_rectangles",
    "enumerate_rectangles",
    "grid_from_config",
    "grid_to_config",
    "load_grid_config",
    "random_rectangle",
]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class RangeError(ValueError):
    """A numeric parameter lies outside its admissible range."""


class InvariantViolation(RuntimeError):
    """A structural invariant failed at run time."""


# Working-set budget of the lab's blocked loops, in bytes, one constant for
# all of them.  heisenberg._box_blocks sizes its box block by it: the box
# sums and their cuts-major copy bv, 2 * n_c * 8 per box, a box standing
# for one clipped data window of the column (the corner slab is as large
# again); a block is a run of the first factor's window groups, one at
# least, so a column with fewer groups takes fewer blocks.  It sizes its
# run of anchor columns by it too: per column, the gathered windows and
# their zero-bordered spatial prefix, (n_sp + prod(w_a + 1)) * n_c * 8
# for n_sp spatial cells of widths w_a, one column at least; the windows
# are gathered into the prefix buffer, so a run holds less.
# heisenberg._least_volumes sizes its runs of the first factor's windows
# by it: per box of that factor, its corner rows of the weight prefix, its
# fold result and its corner slab, each as wide as the other factors' box
# volumes, one window at least.
# weights._subset_sums sizes its rows of subset samples by it: a row of
# random keys, its sorted copy and the selected weights, 3 * V * 8 per
# row for a rectangle of V cells, one row at least.  From bench/run.py
# runs on all four workloads (CHANGES.md): 1 << 20 .. 1 << 22 ran alike
# within the host's noise, with peak RSS growing in the budget; 1 << 26
# ran 30-50% slower at 2.5-5x the RSS.
_BLOCK_BYTES = 1 << 21


def _as_int(x, what: str) -> int:
    if type(x) is int:
        return x
    if isinstance(x, (bool, float)) or (isinstance(x, np.generic) and not isinstance(x, np.integer)):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the finite lattice window.

    n        spatial half-dimension; the full dimension is d = 2n + 1.
    extents  d closed integer intervals (lo, hi), one per axis, in the
             order u_1..u_n, v_1..v_n, t.
    factors  block sizes N_1..N_m of the spatial factor partition,
             N_1 + ... + N_m = 2n.  Defaults to 2n singleton factors.
    mu       integer twist parameter of the group law.
    """

    n: int
    extents: tuple[tuple[int, int], ...]
    factors: tuple[int, ...] = ()
    mu: int = 1

    def __post_init__(self):
        n = _as_int(self.n, "n")
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        d = 2 * n + 1
        ext = tuple((_as_int(a, "extent lo"), _as_int(b, "extent hi")) for a, b in self.extents)
        if len(ext) != d:
            raise DomainError(f"expected {d} extent pairs for n={n}, got {len(ext)}")
        for lo, hi in ext:
            if lo > hi:
                raise DomainError(f"empty extent ({lo}, {hi})")
        factors = tuple(_as_int(N, "factor size") for N in (self.factors or (1,) * (2 * n)))
        if any(N < 1 for N in factors) or sum(factors) != 2 * n:
            raise DomainError(f"factor sizes {factors} must be positive and sum to 2n={2*n}")
        mu = _as_int(self.mu, "mu")
        # Twisted shifts are |mu| * sum of coordinate products; keep every
        # intermediate far inside int64 so lattice arithmetic stays exact.
        m = max(max(abs(lo), abs(hi)) for lo, hi in ext)
        if (abs(mu) + 1) * n * (m + 1) ** 2 > 2**60:
            raise DomainError("extent/mu magnitudes too large for exact int64 arithmetic")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "mu", mu)

    @classmethod
    def cube(cls, n: int, size: int, mu: int = 1, factors: Sequence[int] = (), origin: int = 0) -> "GridSpec":
        """Grid with identical extents [origin, origin+size-1] on every axis."""
        size = _as_int(size, "size")
        if size < 1:
            raise DomainError(f"size must be >= 1, got {size}")
        ext = ((origin, origin + size - 1),) * (2 * _as_int(n, "n") + 1)
        return cls(n=n, extents=ext, factors=tuple(factors), mu=mu)

    @property
    def d(self) -> int:
        return 2 * self.n + 1

    @property
    def t_axis(self) -> int:
        return 2 * self.n

    @cached_property
    def lows(self) -> tuple[int, ...]:
        return tuple(lo for lo, _ in self.extents)

    @cached_property
    def highs(self) -> tuple[int, ...]:
        return tuple(hi for _, hi in self.extents)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.extents)

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.shape[: 2 * self.n]

    @property
    def t_lo(self) -> int:
        return self.extents[self.t_axis][0]

    @property
    def t_hi(self) -> int:
        return self.extents[self.t_axis][1]

    @property
    def t_len(self) -> int:
        return self.t_hi - self.t_lo + 1

    @cached_property
    def cell_count(self) -> int:
        out = 1
        for w in self.shape:
            out *= w
        return out

    @cached_property
    def factor_starts(self) -> tuple[int, ...]:
        starts, s = [], 0
        for N in self.factors:
            starts.append(s)
            s += N
        return tuple(starts)

    def factor_axes(self, i: int) -> range:
        start = self.factor_starts[i]
        return range(start, start + self.factors[i])

    @cached_property
    def factor_of_axis(self) -> tuple[int, ...]:
        out = []
        for i, N in enumerate(self.factors):
            out.extend([i] * N)
        return tuple(out)

    def cube_cap(self, i: int) -> int:
        """Largest cube side that fits the extents of factor i."""
        return min(self.shape[a] for a in self.factor_axes(i))

    @cached_property
    def _draw_plan(self) -> tuple:
        """What random_rectangle reads: per factor its cube cap and per
        axis (lo, hi + 2), the base of a cube of side s being drawn from
        [lo, hi + 2 - s); then the t extent (lo, hi + 2, length)."""
        factors = tuple(
            (self.cube_cap(i), tuple((self.lows[a], self.highs[a] + 2) for a in self.factor_axes(i)))
            for i in range(len(self.factors))
        )
        return factors, (self.t_lo, self.t_hi + 2, self.t_len)

    def axis_names(self) -> list[str]:
        n = self.n
        return [f"u{k+1}" for k in range(n)] + [f"v{k+1}" for k in range(n)] + ["t"]

    def contains(self, coords: Sequence[int]) -> bool:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise DomainError(f"expected {self.d} coordinates, got {len(coords)}")
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, self.extents))


@dataclass(frozen=True)
class Rectangle:
    """One cube per spatial factor plus a t interval, all closed and integer.

    cubes   per-factor (base_corner, side) pairs; base_corner has one entry
            per axis of that factor and the cube occupies [b, b+side-1] on
            each of them.
    """

    cubes: tuple[tuple[tuple[int, ...], int], ...]
    t_lo: int
    t_hi: int

    def __post_init__(self):
        cubes = []
        for base, side in self.cubes:
            base = tuple([_as_int(b, "cube base") for b in base])
            side = _as_int(side, "cube side")
            if not base:
                raise DomainError("cube with no axes")
            if side < 1:
                raise DomainError(f"cube side must be >= 1, got {side}")
            cubes.append((base, side))
        if not cubes:
            raise DomainError("rectangle needs at least one spatial factor")
        t_lo, t_hi = _as_int(self.t_lo, "t_lo"), _as_int(self.t_hi, "t_hi")
        if t_lo > t_hi:
            raise DomainError(f"empty t interval ({t_lo}, {t_hi})")
        object.__setattr__(self, "cubes", tuple(cubes))
        object.__setattr__(self, "t_lo", t_lo)
        object.__setattr__(self, "t_hi", t_hi)

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[int, int]], factors: Sequence[int]) -> "Rectangle":
        """Build from d per-axis (lo, hi) pairs, checking the cube condition."""
        bounds = [(int(a), int(b)) for a, b in bounds]
        factors = tuple(int(N) for N in factors)
        if len(bounds) != sum(factors) + 1:
            raise DomainError(f"expected {sum(factors)+1} bounds for factors {factors}")
        cubes, pos = [], 0
        for N in factors:
            block = bounds[pos : pos + N]
            sides = {hi - lo + 1 for lo, hi in block}
            if len(sides) != 1:
                raise DomainError(f"axes {pos}..{pos+N-1} violate the cube condition: {block}")
            cubes.append((tuple(lo for lo, _ in block), sides.pop()))
            pos += N
        t_lo, t_hi = bounds[-1]
        return cls(tuple(cubes), t_lo, t_hi)

    @property
    def t_len(self) -> int:
        return self.t_hi - self.t_lo + 1

    @cached_property
    def sides(self) -> tuple[int, ...]:
        return tuple(side for _, side in self.cubes)

    @cached_property
    def spatial_cells(self) -> int:
        out = 1
        for base, side in self.cubes:
            out *= side ** len(base)
        return out

    @property
    def volume(self) -> int:
        return self.spatial_cells * self.t_len

    @cached_property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-axis (lo, hi), spatial axes in factor order, then t."""
        out = []
        for base, side in self.cubes:
            out.extend((b, b + side - 1) for b in base)
        out.append((self.t_lo, self.t_hi))
        return tuple(out)

    def contains(self, coords: Sequence[int]) -> bool:
        coords = tuple(coords)
        if len(coords) != len(self.bounds):
            raise DomainError(f"expected {len(self.bounds)} coordinates")
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, self.bounds))

    def within(self, grid: GridSpec) -> bool:
        if len(self.bounds) != grid.d:
            return False
        return all(glo <= lo and hi <= ghi for (lo, hi), (glo, ghi) in zip(self.bounds, grid.extents))

    def slices(self, grid: GridSpec) -> tuple[slice, ...]:
        """Index slices into a grid-shaped array; rectangle must fit the grid."""
        if not self.within(grid):
            raise DomainError(f"rectangle {self.bounds} not inside grid extents {grid.extents}")
        return tuple(slice(lo - glo, hi - glo + 1) for (lo, hi), (glo, _) in zip(self.bounds, grid.extents))

    def clipped_slices(self, grid: GridSpec) -> tuple[slice, ...] | None:
        """Slices of the intersection with the grid; None when disjoint."""
        out = []
        for (lo, hi), (glo, ghi) in zip(self.bounds, grid.extents):
            a, b = max(lo, glo), min(hi, ghi)
            if a > b:
                return None
            out.append(slice(a - glo, b - glo + 1))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Float64 samples on the grid cells, zero outside the extents."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise DomainError(f"field shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def point_mass(cls, grid: GridSpec, coords: Sequence[int], height: float = 1.0) -> "ScalarField":
        coords = tuple(int(c) for c in coords)
        if not grid.contains(coords):
            raise DomainError(f"point {coords} outside extents {grid.extents}")
        vals = np.zeros(grid.shape)
        vals[tuple(c - lo for c, lo in zip(coords, grid.lows))] = float(height)
        return cls(grid, vals)

    def sample(self, coords: Sequence[int]) -> float:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.grid.d:
            raise DomainError(f"expected {self.grid.d} coordinates")
        if not self.grid.contains(coords):
            return 0.0
        return float(self.values[tuple(c - lo for c, lo in zip(coords, self.grid.lows))])

    def sample_many(self, coords: np.ndarray) -> np.ndarray:
        """Zero-extended gather; coords has shape (..., d), integer valued."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[-1] != self.grid.d:
            raise DomainError(f"expected trailing dimension {self.grid.d}")
        lows = np.asarray(self.grid.lows, dtype=np.int64)
        highs = np.asarray(self.grid.highs, dtype=np.int64)
        inside = np.all((coords >= lows) & (coords <= highs), axis=-1)
        idx = np.clip(coords - lows, 0, np.asarray(self.grid.shape) - 1)
        out = self.values[tuple(np.moveaxis(idx, -1, 0))]
        return np.where(inside, out, 0.0)


def prefix_sums(values: np.ndarray, axes: Iterable[int], out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums along each of axes (one at least), then one zero in
    front on each of them: entry i along such an axis sums the first i
    values.

    Summed with one np.add per slab, into out if given: a float64 buffer
    of the result's shape whose zero border the caller keeps.  The first
    of axes runs from values, which may be that interior itself, into the
    border's interior, the others in place there; every entry adds the
    terms np.cumsum would, in its order.
    """
    axes = tuple(axes)
    values = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.zeros([w + (ax in axes) for ax, w in enumerate(values.shape)])
    inner = out[tuple(slice(int(ax in axes), None) for ax in range(values.ndim))]
    for j, ax in enumerate(axes):
        lead = (slice(None),) * ax
        slabs = [inner[lead + (i,)] for i in range(values.shape[ax])]
        if not j and slabs:
            np.copyto(slabs[0], values[lead + (0,)])
        for i in range(1, len(slabs)):
            np.add(slabs[i - 1], slabs[i] if j else values[lead + (i,)], out=slabs[i])
    return out


def _side_options(cap: int, dyadic_only: bool, smallest: int = 1) -> list[int]:
    if dyadic_only:
        out, s = [], 1
        while s <= cap:
            if s >= smallest:
                out.append(s)
            s *= 2
        return out
    return list(range(max(1, smallest), cap + 1))


def enumerate_rectangles(
    grid: GridSpec,
    containing: Sequence[int] | None = None,
    dyadic_only: bool = False,
) -> Iterator[Rectangle]:
    """All rectangles inside the extents, lexicographic by (base corner, sides).

    The base corner orders as (spatial bases, t_lo) and the shape part as
    (factor sides, t_len).  With `containing`, only rectangles holding that
    point are produced; with `dyadic_only`, every side and the t length is a
    power of two.
    """
    if containing is not None:
        containing = tuple(int(c) for c in containing)
        if not grid.contains(containing):
            raise DomainError(f"point {containing} outside extents {grid.extents}")
    sp = 2 * grid.n
    lows, highs = grid.lows, grid.highs

    def base_range(ax: int) -> range:
        top = highs[ax] if containing is None else containing[ax]
        return range(lows[ax], top + 1)

    t_ax = grid.t_axis
    for bases in itertools.product(*(base_range(ax) for ax in range(sp))):
        side_lists = []
        for i, N in enumerate(grid.factors):
            axes = grid.factor_axes(i)
            cap = min(highs[a] - bases[a] + 1 for a in axes)
            need = 1 if containing is None else max(containing[a] - bases[a] + 1 for a in axes)
            side_lists.append(_side_options(cap, dyadic_only, smallest=need))
        if not all(side_lists):
            continue
        t_top = highs[t_ax] if containing is None else containing[t_ax]
        for t_lo in range(lows[t_ax], t_top + 1):
            t_need = 1 if containing is None else containing[t_ax] - t_lo + 1
            t_lens = _side_options(highs[t_ax] - t_lo + 1, dyadic_only, smallest=t_need)
            if not t_lens:
                continue
            for sides in itertools.product(*side_lists):
                cubes = tuple(
                    (tuple(bases[a] for a in grid.factor_axes(i)), s)
                    for i, s in enumerate(sides)
                )
                for t_len in t_lens:
                    yield Rectangle(cubes, t_lo, t_lo + t_len - 1)


def count_rectangles(grid: GridSpec, dyadic_only: bool = False) -> int:
    """Closed-form cardinality of enumerate_rectangles(grid, dyadic_only=...)."""
    total = 1
    for i, N in enumerate(grid.factors):
        widths = [grid.shape[a] for a in grid.factor_axes(i)]
        c = 0
        for s in _side_options(min(widths), dyadic_only):
            placements = 1
            for w in widths:
                placements *= w - s + 1
            c += placements
        total *= c
    t_count = sum(grid.t_len - L + 1 for L in _side_options(grid.t_len, dyadic_only))
    return total * t_count


def random_rectangle(
    grid: GridSpec,
    rng: np.random.Generator,
    max_sides: Sequence[int] | None = None,
    max_t_len: int | None = None,
) -> Rectangle:
    """Uniform side then uniform placement, independently per factor and t.

    One scalar rng.integers call per value: each factor's side, then its
    base coordinates, then the t length and the t start.  Seeded batches
    (cover, eta, the boxes generator) are that stream, so it stays as is."""
    factors, (t_min, t_top, t_cap) = grid._draw_plan
    integers = rng.integers
    cubes = []
    for i, (cap, axes) in enumerate(factors):
        if max_sides is not None:
            cap = min(cap, int(max_sides[i]))
        s = int(integers(1, cap + 1))
        cubes.append((tuple([int(integers(lo, top - s)) for lo, top in axes]), s))
    if max_t_len is not None:
        t_cap = min(t_cap, int(max_t_len))
    L = int(integers(1, t_cap + 1))
    t_lo = int(integers(t_min, t_top - L))
    return Rectangle(tuple(cubes), t_lo, t_lo + L - 1)


@dataclass(frozen=True)
class RectangleFamily:
    """Translation-invariant family used by the maximal averages.

    Shapes: per-factor cube sides up to max_sides (extent-width caps by
    default) and t lengths up to max_t_len, each restricted to powers of
    two when dyadic_only is set.  Positions are unrestricted, so members
    anchored at a lattice point may overhang the extents; fields are
    extended by zero there and weights by their defining formula.
    """

    grid: GridSpec
    dyadic_only: bool = False
    max_sides: tuple[int, ...] = ()
    max_t_len: int = 0

    def __post_init__(self):
        grid = self.grid
        caps = tuple(grid.cube_cap(i) for i in range(len(grid.factors)))
        if self.max_sides:
            if len(self.max_sides) != len(grid.factors):
                raise DomainError(f"expected {len(grid.factors)} side caps")
            caps = tuple(min(c, _as_int(s, "side cap")) for c, s in zip(caps, self.max_sides))
        if any(c < 1 for c in caps):
            raise DomainError("side caps must be >= 1")
        t_cap = grid.t_len
        if self.max_t_len:
            t_cap = min(t_cap, _as_int(self.max_t_len, "t cap"))
        if t_cap < 1:
            raise DomainError("t cap must be >= 1")
        object.__setattr__(self, "max_sides", caps)
        object.__setattr__(self, "max_t_len", t_cap)

    def side_choices(self, i: int) -> list[int]:
        return _side_options(self.max_sides[i], self.dyadic_only)

    def t_len_choices(self) -> list[int]:
        return _side_options(self.max_t_len, self.dyadic_only)

    def margins(self) -> tuple[int, ...]:
        """Per spatial axis, how far members anchored inside can overhang."""
        return tuple(self.max_sides[self.grid.factor_of_axis[a]] - 1 for a in range(2 * self.grid.n))

    def count_containing(self) -> int:
        """Members through a fixed anchor; position-free, so anchor-independent."""
        total = 1
        for i, N in enumerate(self.grid.factors):
            total *= sum(s**N for s in self.side_choices(i))
        return total * sum(self.t_len_choices())

    def rectangles_containing(self, coords: Sequence[int]) -> Iterator[Rectangle]:
        """Members holding the given grid point, deterministically ordered.

        Per factor the (base, side) placements are sorted lexicographically,
        factors vary outer to inner and the t interval last.
        """
        coords = tuple(int(c) for c in coords)
        if not self.grid.contains(coords):
            raise DomainError(f"anchor {coords} outside extents {self.grid.extents}")
        placements = []
        for i, N in enumerate(self.grid.factors):
            axes = list(self.grid.factor_axes(i))
            opts = []
            for s in self.side_choices(i):
                for base in itertools.product(*(range(coords[a] - s + 1, coords[a] + 1) for a in axes)):
                    opts.append((base, s))
            opts.sort()
            placements.append(opts)
        t = coords[self.grid.t_axis]
        t_opts = sorted((a, a + L - 1) for L in self.t_len_choices() for a in range(t - L + 1, t + 1))
        for combo in itertools.product(*placements):
            for t_lo, t_hi in t_opts:
                yield Rectangle(tuple(combo), t_lo, t_hi)

    def describe(self) -> str:
        kind = "dyadic" if self.dyadic_only else "full"
        caps = ",".join(str(s) for s in self.max_sides)
        return f"{kind};sides<=({caps});tlen<={self.max_t_len}"


def grid_from_config(cfg: dict) -> GridSpec:
    """Build a GridSpec from a JSON-style mapping.

    Keys: n (required); extents as an integer size S meaning [0, S-1] on
    every axis, a single [lo, hi] pair, or a full list of d pairs;
    factors (optional) a list of integer block sizes; mu (optional,
    default 1).
    """
    if "n" not in cfg:
        raise DomainError("grid config requires 'n'")
    n = _as_int(cfg["n"], "n")
    d = 2 * n + 1
    ext = cfg.get("extents", cfg.get("size"))
    if ext is None:
        raise DomainError("grid config requires 'extents' or 'size'")
    seq = (list, tuple)
    if isinstance(ext, (int, np.integer)):
        extents = ((0, int(ext) - 1),) * d
    elif isinstance(ext, seq) and len(ext) == 2 and not any(isinstance(x, seq) for x in ext):
        extents = (tuple(ext),) * d
    elif isinstance(ext, seq) and all(isinstance(e, seq) and len(e) == 2 for e in ext):
        extents = tuple(tuple(e) for e in ext)
    else:
        raise DomainError(f"extents must be a size, a [lo, hi] pair or a list of pairs, got {ext!r}")
    factors = cfg.get("factors", ())
    if not isinstance(factors, seq):
        raise DomainError(f"factors must be a list of sizes, got {factors!r}")
    # GridSpec passes each factor size through _as_int
    return GridSpec(n=n, extents=extents, factors=tuple(factors), mu=_as_int(cfg.get("mu", 1), "mu"))


def grid_to_config(grid: GridSpec) -> dict:
    return {
        "n": grid.n,
        "extents": [list(e) for e in grid.extents],
        "factors": list(grid.factors),
        "mu": grid.mu,
    }


def load_grid_config(path) -> GridSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return grid_from_config(json.load(fh))
