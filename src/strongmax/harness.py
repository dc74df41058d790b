"""Seeded experiments: weak-type and strong-norm quantities of the
maximal averages across grids, weights and input families.

The weak-type quantity of a trial is

    max over a ladder of levels lam of  lam * vol_w({M f > lam})^(1/p)
    divided by the L^p(w) norm of f,

a lower estimate of the weak (p, p) operator bound that becomes sharp as
the ladder refines.  Ladder rungs sit a hair below a geometric sweep of
the attained values, since the super-level set at an attained value
drops the cells sitting exactly at it.  The strong ratio compares the
L^p(w) norms directly and dominates the weak quantity (Chebyshev).
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from statistics import median
from typing import Callable, Sequence

import numpy as np

from .heisenberg import SHIFT_STANDARD, MaximalField, maximal_field
from .lattice import (
    DomainError,
    GridSpec,
    RangeError,
    RectangleFamily,
    ScalarField,
    random_rectangle,
)
from .weights import WeightField, parse_weight

__all__ = [
    "BoundReport",
    "ExperimentConfig",
    "GENERATORS",
    "TrialRow",
    "gen_box_indicators",
    "gen_dense_uniform",
    "gen_point_masses",
    "gen_sparse_signs",
    "lambda_ladder",
    "lp_norm",
    "run_experiment",
    "strong_ratio",
    "weak_type_quantity",
    "worker_count",
]


def lp_norm(f, w: WeightField, p: float) -> float:
    """(sum |f|^p w)^(1/p) over the grid cells."""
    if not p >= 1:
        raise RangeError(f"p must be >= 1, got {p}")
    vals = np.abs(np.asarray(f.values, dtype=np.float64))
    return float(((vals**p) * w.full_values()).sum() ** (1.0 / p))


def lambda_ladder(mf, rungs: int = 64) -> np.ndarray:
    """Geometric levels spanning the positive attained values, each pulled
    down by a factor 1 - 1e-9 to keep the jump just above it visible."""
    if rungs < 1:
        raise RangeError(f"need at least one rung, got {rungs}")
    vals = np.asarray(mf.values)
    pos = vals[vals > 0]
    if pos.size == 0:
        raise DomainError("maximal field has no positive values")
    return np.geomspace(float(pos.min()), float(pos.max()), rungs) * (1.0 - 1e-9)


def _checked_norm(f, omega, p, quantity: str) -> float:
    """||f||_Lp(w) after checking p > 1 and that it is nonzero."""
    if not p > 1:
        raise RangeError(f"p must be > 1, got {p}")
    denom = lp_norm(f, omega, p)
    if denom == 0:
        raise DomainError(f"the zero field has no {quantity}")
    return denom


def weak_type_quantity(
    f: ScalarField,
    omega: WeightField,
    p: float,
    mf: MaximalField,
    ladder: Sequence[float] | None = None,
    rungs: int = 64,
) -> float:
    """Best ladder level of lam * vol_w({mf > lam})^(1/p), normalised by
    ||f||_Lp(w), where mf is M f."""
    denom = _checked_norm(f, omega, p, "weak-type quantity")
    if ladder is None:
        ladder = lambda_ladder(mf, rungs)
    lams = np.asarray(ladder, dtype=np.float64)
    if lams.size == 0 or not np.all(lams > 0):
        raise RangeError("ladder levels must be positive and nonempty")
    return _weak_from_volumes(lams, _ladder_volumes(omega, mf, lams), p, denom)


def _ladder_volumes(omega: WeightField, mf: MaximalField, lams: np.ndarray) -> list[float]:
    """vol_w({mf > lam}) for each ladder level lam; they do not depend on p."""
    w_full = omega.full_values()
    return [float(w_full[mf.values > lam].sum()) for lam in lams]


def _weak_from_volumes(lams: np.ndarray, vols: list[float], p: float, denom: float) -> float:
    """weak_type_quantity from the ladder, its level-set volumes and the
    norm ||f||_Lp(w)."""
    best = 0.0
    for lam, vol in zip(lams, vols):
        if vol > 0:
            best = max(best, float(lam) * vol ** (1.0 / p))
    return best / denom


def strong_ratio(f: ScalarField, omega: WeightField, p: float, mf: MaximalField) -> float:
    """||M f||_Lp(w) / ||f||_Lp(w), where mf is M f."""
    denom = _checked_norm(f, omega, p, "strong ratio")
    return lp_norm(mf, omega, p) / denom


# ---------------------------------------------------------------------------
# input generators


def gen_point_masses(grid: GridSpec, rng: np.random.Generator) -> ScalarField:
    """A few random point masses with heights in [1/2, 2)."""
    vals = np.zeros(grid.shape)
    k = 3
    flat = rng.choice(grid.cell_count, size=min(k, grid.cell_count), replace=False)
    heights = 0.5 + 1.5 * rng.random(flat.size)
    vals.reshape(-1)[flat] = heights
    return ScalarField(grid, vals)

def gen_sparse_signs(grid: GridSpec, rng: np.random.Generator) -> ScalarField:
    """Unit +-1 spikes on about five percent of the cells, never empty."""
    mask = rng.random(grid.shape) < 0.05
    if not mask.any():
        mask.reshape(-1)[int(rng.integers(grid.cell_count))] = True
    signs = np.where(rng.random(grid.shape) < 0.5, -1.0, 1.0)
    return ScalarField(grid, np.where(mask, signs, 0.0))

def gen_dense_uniform(grid: GridSpec, rng: np.random.Generator) -> ScalarField:
    """Independent uniform values in (0, 1]."""
    return ScalarField(grid, 1.0 - rng.random(grid.shape))

def gen_box_indicators(grid: GridSpec, rng: np.random.Generator) -> ScalarField:
    """Indicator of a union of three random rectangles."""
    vals = np.zeros(grid.shape)
    for _ in range(3):
        r = random_rectangle(grid, rng)
        vals[r.slices(grid)] = 1.0
    return ScalarField(grid, vals)


GENERATORS: dict[str, Callable[[GridSpec, np.random.Generator], ScalarField]] = {
    "point": gen_point_masses,
    "sparse": gen_sparse_signs,
    "dense": gen_dense_uniform,
    "boxes": gen_box_indicators,
}


# ---------------------------------------------------------------------------
# experiment driver


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 1
    mu: int = 1
    factors: tuple[int, ...] = ()
    grid_sizes: tuple[int, ...] = (8, 16, 24)
    weight: str = "constant"
    generator: str = "dense"
    trials: int = 10
    p_values: tuple[float, ...] = (1.5, 2.0, 3.0)
    dyadic: bool = True
    ladder_rungs: int = 64
    seed: int = 0
    convention: str = SHIFT_STANDARD

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise DomainError(f"unknown generator {self.generator!r}; have {sorted(GENERATORS)}")
        if self.trials < 1:
            raise RangeError("trials must be >= 1")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "grid_sizes", tuple(int(s) for s in self.grid_sizes))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))


@dataclass(frozen=True)
class TrialRow:
    grid_size: int
    trial: int
    p: float
    weak_quantity: float
    strong_ratio: float


def trial_seed(cfg: ExperimentConfig, size: int, trial: int) -> list[int]:
    return [cfg.seed & 0xFFFFFFFF, size, trial]


def _trial_rows(cfg: ExperimentConfig, size: int, trial: int) -> list[TrialRow]:
    grid = GridSpec.cube(cfg.n, size, cfg.mu, cfg.factors)
    w = parse_weight(grid, cfg.weight)
    family = RectangleFamily(grid, dyadic_only=cfg.dyadic)
    rng = np.random.default_rng(trial_seed(cfg, size, trial))
    f = GENERATORS[cfg.generator](grid, rng)
    mf = maximal_field(f, w, family, cfg.convention)
    # the ladder and its volumes are the same for every p
    lams = lambda_ladder(mf, cfg.ladder_rungs)
    vols = _ladder_volumes(w, mf, lams)
    out = []
    for p in cfg.p_values:
        weak = _weak_from_volumes(lams, vols, p, _checked_norm(f, w, p, "weak-type quantity"))
        strong = strong_ratio(f, w, p, mf)
        out.append(TrialRow(size, trial, p, weak, strong))
    return out


def worker_count() -> int:
    """Parallel trial workers, from STRONGMAX_WORKERS (default 1)."""
    raw = os.environ.get("STRONGMAX_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class BoundReport:
    config: ExperimentConfig
    rows: tuple[TrialRow, ...]

    def aggregates(self) -> dict:
        out: dict[str, dict] = {}
        for size in self.config.grid_sizes:
            for p in self.config.p_values:
                weak = [r.weak_quantity for r in self.rows if r.grid_size == size and r.p == p]
                strong = [r.strong_ratio for r in self.rows if r.grid_size == size and r.p == p]
                out.setdefault(str(size), {})[repr(p)] = {
                    "max_weak": max(weak),
                    "median_weak": median(weak),
                    "max_strong": max(strong),
                    "median_strong": median(strong),
                }
        return out

    def scaling_table(self) -> list[dict]:
        """Per p, the max weak quantity by grid size and its spread."""
        agg = self.aggregates()
        out = []
        for p in self.config.p_values:
            by_size = {str(s): agg[str(s)][repr(p)]["max_weak"] for s in self.config.grid_sizes}
            vals = list(by_size.values())
            out.append(
                {
                    "p": p,
                    "max_weak_by_size": by_size,
                    "spread": (max(vals) / min(vals)) if min(vals) > 0 else float("inf"),
                }
            )
        return out

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregates(),
            "scaling": self.scaling_table(),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_size", "trial", "seed", "p", "weak_quantity", "strong_ratio"])
            for r in self.rows:
                writer.writerow(
                    [r.grid_size, r.trial, self.config.seed, repr(r.p), repr(r.weak_quantity), repr(r.strong_ratio)]
                )


def run_experiment(cfg: ExperimentConfig) -> BoundReport:
    """All (grid size, trial) cells of the config, deterministically seeded;
    honours STRONGMAX_WORKERS for process-level parallelism."""
    tasks = [(cfg, size, trial) for size in cfg.grid_sizes for trial in range(cfg.trials)]
    workers = worker_count()
    rows: list[TrialRow] = []
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_trial_rows, *zip(*tasks)):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_trial_rows(*task))
    return BoundReport(config=cfg, rows=tuple(rows))
