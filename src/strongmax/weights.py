"""Test weights and the comparability constant of their rectangles.

A weight assigns a strictly positive number to every lattice cell.  Each
weight is one positive cell rule on the spatial lattice Z^2n, constant
along t, so values exist for every integer coordinate, not only inside
the grid extents.  That matters because maximal averages normalise by the
weighted volume of rectangles that may overhang the extents.

The comparability constant eta(w, R) of a rectangle is the least fraction
of weighted volume a subset can carry while still holding more than a
threshold share (default one half) of the cells.  The minimiser keeps the
cells of smallest weight, so eta is computed exactly by a partial sort.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .lattice import (
    DomainError,
    GridSpec,
    InvariantViolation,
    RangeError,
    Rectangle,
    _BLOCK_BYTES,
    count_rectangles,
    enumerate_rectangles,
    random_rectangle,
)

__all__ = [
    "WeightField",
    "make_constant_weight",
    "make_power_weight",
    "make_perturbed_weight",
    "parse_weight",
    "exact_eta",
    "eta_survey",
    "EtaRow",
    "ComparabilityReport",
    "hash_uniform",
]

_SPLIT_1 = np.uint64(0x9E3779B97F4A7C15)
_SPLIT_2 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_3 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _SPLIT_2
    x = (x ^ (x >> np.uint64(27))) * _SPLIT_3
    return x ^ (x >> np.uint64(31))


def hash_uniform(seed: int, coords: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-uniform values in [-1, 1) from integer coords.

    A counter-style hash, so the value at a coordinate never depends on
    which other coordinates were evaluated alongside it.
    """
    coords = np.asarray(coords, dtype=np.int64)
    with np.errstate(over="ignore"):
        h = np.full(coords.shape[:-1], np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        h = _mix64(h ^ _SPLIT_1)
        for i in range(coords.shape[-1]):
            h = _mix64(h ^ (coords[..., i].astype(np.uint64) * _SPLIT_1 + np.uint64(i + 1)))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-52) - 1.0


@dataclass(frozen=True, eq=False)
class WeightField:
    """Strictly positive cell weights on a grid, constant along t.

    cell_rule    vectorised map from integer spatial coordinates (shape
                 (..., 2n)) to weights, valid on all of Z^2n.
    descriptor   text naming the weight; parse_weight reads the built-in
                 forms back.
    values       the rule tabulated on the extents' spatial mesh, shape
                 grid.spatial_shape, read-only; derived, not passed.
    """

    grid: GridSpec
    cell_rule: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    descriptor: str
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        sp = 2 * self.grid.n
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in self.grid.extents[:sp]]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = self._tabulate(mesh)
        if vals.shape != self.grid.spatial_shape:
            raise InvariantViolation(f"cell rule gave shape {vals.shape}, expected {self.grid.spatial_shape}")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0):
            raise InvariantViolation("weights must be finite and strictly positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _tabulate(self, coords: np.ndarray) -> np.ndarray:
        """The rule at coords as float64; an overflow inside the rule is a
        range error of the weight's parameters, not a broken rule."""
        try:
            with np.errstate(over="raise"):
                return np.array(self.cell_rule(coords), dtype=np.float64)
        except FloatingPointError as exc:
            raise RangeError(f"weight {self.descriptor!r} overflows float64") from exc

    def full_values(self) -> np.ndarray:
        """Weights broadcast over the whole grid shape (read-only view)."""
        return np.broadcast_to(self.values[..., None], self.grid.shape)

    def value_at(self, spatial_coords: Sequence[int]) -> float:
        return float(self.spatial_values_at([[int(x) for x in spatial_coords]])[0])

    def spatial_values_at(self, coords: np.ndarray) -> np.ndarray:
        """Weights at integer spatial coordinates of shape (..., 2n), on or
        off the extents."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[-1] != 2 * self.grid.n:
            raise DomainError(f"expected trailing dimension {2*self.grid.n}")
        return np.asarray(self.cell_rule(coords), dtype=np.float64)

    def rectangle_cell_weights(self, r: Rectangle) -> np.ndarray:
        """Flat array of the weights of every cell of r (r inside extents)."""
        sl = r.slices(self.grid)
        block = self.values[sl[:-1]]
        reps = sl[-1].stop - sl[-1].start
        return np.repeat(block.ravel(), reps)

    def expanded_spatial(self, margins: Sequence[int]) -> np.ndarray:
        """Spatial weights on the extents enlarged by `margins` per axis.

        The interior is the tabulated block; the surrounding ring comes
        from the cell rule.
        """
        margins = tuple(int(m) for m in margins)
        sp = 2 * self.grid.n
        if len(margins) != sp:
            raise DomainError(f"expected {sp} margins")
        if any(m < 0 for m in margins):
            raise DomainError("margins must be >= 0")
        if all(m == 0 for m in margins):
            return self.values
        shape = tuple(w + 2 * m for w, m in zip(self.grid.spatial_shape, margins))
        axes = [
            np.arange(lo - m, hi + m + 1, dtype=np.int64)
            for (lo, hi), m in zip(self.grid.extents[:sp], margins)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack(mesh, axis=-1)
        out = self._tabulate(coords)
        if out.shape != shape:
            raise InvariantViolation("cell rule returned a wrong shape")
        interior = tuple(slice(m, m + w) for w, m in zip(self.grid.spatial_shape, margins))
        out[interior] = self.values
        if not np.all(np.isfinite(out)) or not np.all(out > 0):
            raise InvariantViolation("extended weights must stay finite and positive")
        return out

    def scaled(self, c: float) -> "WeightField":
        """The weight c*w, c > 0 and finite."""
        if not (math.isfinite(c) and c > 0):
            raise RangeError(f"scale must be finite and positive, got {c}")
        base = self.cell_rule
        return WeightField(self.grid, lambda coords: c * base(coords), f"scaled:{c!r}|{self.descriptor}")


def make_constant_weight(grid: GridSpec, value: float = 1.0) -> WeightField:
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise RangeError(f"constant weight must be finite and positive, got {value}")
    rule = lambda coords: np.full(coords.shape[:-1], v)
    return WeightField(grid, rule, f"constant:{v!r}")


def make_power_weight(
    grid: GridSpec,
    exponents: Sequence[float],
    centers: Sequence[float] | None = None,
) -> WeightField:
    """Separable power weight, per spatial axis |c + 1/2 - center|^a.

    The half-cell offset evaluates the profile at cell midpoints, keeping
    every cell weight positive for a > -1 as long as no center lands on a
    midpoint; exponents must exceed -1 for locally summable profiles.
    """
    sp = 2 * grid.n
    exps = tuple(float(a) for a in exponents)
    if len(exps) != sp:
        raise DomainError(f"expected {sp} exponents")
    if not all(math.isfinite(a) and a > -1 for a in exps):
        raise RangeError(f"exponents must be finite and > -1, got {exps}")
    ctrs = tuple(float(c) for c in (centers if centers is not None else (0.0,) * sp))
    if len(ctrs) != sp:
        raise DomainError(f"expected {sp} centers")
    if not all(math.isfinite(c) for c in ctrs):
        raise RangeError(f"centers must be finite, got {ctrs}")

    def rule(coords: np.ndarray) -> np.ndarray:
        out = np.ones(coords.shape[:-1])
        for k in range(sp):
            if exps[k] != 0.0:
                out = out * np.abs(coords[..., k] + 0.5 - ctrs[k]) ** exps[k]
        return out

    desc = f"power:{','.join(repr(a) for a in exps)}@{','.join(repr(c) for c in ctrs)}"
    return WeightField(grid, rule, desc)


def make_perturbed_weight(
    grid: GridSpec,
    base: WeightField | None = None,
    amplitude: float = 0.5,
    seed: int = 0,
) -> WeightField:
    """base * (1 + amplitude * r), r a seeded coordinate hash in [-1, 1)."""
    amplitude = float(amplitude)
    if not 0 <= amplitude < 1:
        raise RangeError(f"amplitude must lie in [0, 1), got {amplitude}")
    seed = int(seed)
    if base is None:
        base = make_constant_weight(grid)
    base_rule = base.cell_rule

    def rule(coords: np.ndarray) -> np.ndarray:
        return base_rule(coords) * (1.0 + amplitude * hash_uniform(seed, coords))

    desc = f"perturbed:{amplitude!r}:{seed}|{base.descriptor}"
    return WeightField(grid, rule, desc)


def parse_weight(grid: GridSpec, text: str) -> WeightField:
    """Build a weight from a compact descriptor string.

    Forms: 'constant' or 'constant:V'; 'power:a1,a2,..' with an optional
    '@c1,c2,..' center suffix; 'perturbed:AMP:SEED' over a constant base,
    or 'perturbed:AMP:SEED|<base descriptor>'.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    if kind == "constant":
        return make_constant_weight(grid, float(rest) if rest else 1.0)
    if kind == "power":
        spec, _, ctr = rest.partition("@")
        exps = [float(x) for x in spec.split(",") if x]
        ctrs = [float(x) for x in ctr.split(",")] if ctr else None
        return make_power_weight(grid, exps, ctrs)
    if kind == "perturbed":
        head, _, base_text = rest.partition("|")
        parts = [p for p in head.split(":") if p]
        if not 1 <= len(parts) <= 2:
            raise DomainError(f"bad perturbed descriptor {text!r}")
        amp = float(parts[0])
        seed = int(parts[1]) if len(parts) > 1 else 0
        base = parse_weight(grid, base_text) if base_text else None
        return make_perturbed_weight(grid, base, amp, seed)
    raise DomainError(f"unknown weight descriptor {text!r}")


def exact_eta(w: WeightField, r: Rectangle, threshold: float = 0.5) -> float:
    """Least weighted-volume fraction of a subset of r with more than a
    `threshold` share of the cells.

    The optimum keeps the floor(V*threshold)+1 cells of smallest weight,
    so the value is a partial sort away and lies in (0, 1].
    """
    return _least_share(w.rectangle_cell_weights(r), threshold)


def _least_share(vals: np.ndarray, threshold: float) -> float:
    """exact_eta on the flat cell weights `vals` of a rectangle."""
    if not 0 < threshold < 1:
        raise RangeError(f"threshold must lie in (0, 1), got {threshold}")
    if not np.all(vals > 0):
        raise InvariantViolation("weights must be positive on the rectangle")
    V = vals.size
    k = int(np.floor(V * threshold)) + 1
    if k >= V:
        return 1.0
    part = np.partition(vals, k - 1)[:k]
    return float(part.sum() / vals.sum())


@dataclass(frozen=True)
class EtaRow:
    bounds: tuple[tuple[int, int], ...]
    volume: int
    eta_exact: float
    eta_mc: float | None


@dataclass(frozen=True)
class ComparabilityReport:
    """Survey of exact_eta over a rectangle sample, plus Monte Carlo checks."""

    descriptor: str
    threshold: float
    exhaustive: bool
    rectangle_count: int
    subset_samples: int
    seed: int
    global_eta: float
    mc_global: float | None
    rows: tuple[EtaRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "weight": self.descriptor,
            "threshold": self.threshold,
            "exhaustive": self.exhaustive,
            "rectangle_count": self.rectangle_count,
            "subset_samples": self.subset_samples,
            "seed": self.seed,
            "global_eta": self.global_eta,
            "mc_global": self.mc_global,
            "rows": [
                {
                    "bounds": [list(b) for b in row.bounds],
                    "volume": row.volume,
                    "eta_exact": row.eta_exact,
                    "eta_mc": row.eta_mc,
                }
                for row in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        d = len(self.rows[0].bounds) if self.rows else 0
        cols = [f"axis{a}_{end}" for a in range(d) for end in ("lo", "hi")]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols + ["volume", "eta_exact", "eta_mc"])
            for row in self.rows:
                flat = [x for b in row.bounds for x in b]
                writer.writerow(flat + [row.volume, repr(row.eta_exact), "" if row.eta_mc is None else repr(row.eta_mc)])


def _subset_sums(vals: np.ndarray, k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Sums of `samples` random subsets of vals, each of m cells with m
    uniform on [k, V], the cells a uniform m-subset.

    All sizes are drawn first.  Then each sample takes V keys, one raw
    64-bit word of rng's bit generator per cell, and its subset is the m
    cells of smallest key: i.i.d. keys rank the cells in uniformly random
    order.  A block of rows sorts its keys along the row, reads each row's
    m-th smallest as a cut and selects the cells whose key is at most the
    cut.  Two equal keys (probability below V^2 * 2^-64 per row) can put
    more than m cells under the cut; such a row keeps the first m cells of
    a stable argsort of its keys, so every row stays an exact uniform
    m-subset.  The sum is one reduction per row of the selection times
    vals, in cell order.

    Blocks hold at most _BLOCK_BYTES of keys, sorted keys and products,
    3 * V * 8 per row, one row at least.  The keys come one word each in
    row order and every row is summed on its own, so the block size does
    not change the sums.
    """
    V = vals.size
    m = rng.integers(k, V + 1, size=samples)
    rows = min(samples, max(1, _BLOCK_BYTES // (3 * V * 8)))
    sums = np.empty(samples)
    for s in range(0, samples, rows):
        mb = m[s : s + rows]
        keys = rng.bit_generator.random_raw((mb.size, V))
        cut = np.sort(keys, axis=1)[np.arange(mb.size), mb - 1]
        chosen = keys <= cut[:, None]
        # a row holds at least m keys at most its m-th smallest, so the
        # counts match m on every row exactly when their totals match
        if np.count_nonzero(chosen) != mb.sum():
            for i in np.flatnonzero(np.count_nonzero(chosen, axis=1) != mb):
                chosen[i] = False
                chosen[i, np.argsort(keys[i], kind="stable")[: mb[i]]] = True
        sums[s : s + mb.size] = (chosen * vals).sum(axis=1)
    return sums


def _mc_eta(vals: np.ndarray, samples: int, rng: np.random.Generator, threshold: float) -> float:
    """Monte Carlo upper estimate: random admissible subsets of the cells
    whose weights are `vals`."""
    k = int(np.floor(vals.size * threshold)) + 1
    return min(1.0, float(_subset_sums(vals, k, samples, rng).min() / vals.sum()))


def eta_survey(
    w: WeightField,
    grid: GridSpec,
    rectangle_budget: int = 512,
    subset_samples: int = 0,
    seed: int = 0,
    threshold: float = 0.5,
) -> ComparabilityReport:
    """exact_eta over the whole family when it fits the budget, otherwise
    over a seeded random sample of rectangles; optional Monte Carlo
    subset sampling per rectangle as an independent upper bound."""
    if rectangle_budget < 1:
        raise RangeError("rectangle_budget must be >= 1")
    if subset_samples < 0:
        raise RangeError("subset_samples must be >= 0")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5E7A])
    total = count_rectangles(grid)
    exhaustive = total <= rectangle_budget
    if exhaustive:
        rects = list(enumerate_rectangles(grid))
    else:
        rects = [random_rectangle(grid, rng) for _ in range(rectangle_budget)]
    rows = []
    for r in rects:
        vals = w.rectangle_cell_weights(r)
        eta = _least_share(vals, threshold)
        mc = _mc_eta(vals, subset_samples, rng, threshold) if subset_samples else None
        rows.append(EtaRow(r.bounds, r.volume, eta, mc))
    global_eta = min(row.eta_exact for row in rows)
    mc_global = min((row.eta_mc for row in rows), default=None) if subset_samples else None
    return ComparabilityReport(
        descriptor=w.descriptor,
        threshold=threshold,
        exhaustive=exhaustive,
        rectangle_count=len(rows),
        subset_samples=subset_samples,
        seed=seed,
        global_eta=global_eta,
        mc_global=mc_global,
        rows=tuple(rows),
    )
