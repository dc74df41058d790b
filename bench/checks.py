"""Output checks of the benchmark, written without the program's code.

Every check returns a list of problem strings; an empty list means the
output passed.  Nothing here imports strongmax.  The oracles are built from
the group law and from the definitions of the operator, the power weight,
the covering rule and the comparability constant, so a fault in the
program's prefix sums, shear tables or selection mask cannot hide in them.

Exactness: on integer fields with dyadic-rational weights every sum below
is exact, so the fast path must agree bitwise.  On real-valued fields the
fast path forms averages as differences of prefix sums, which cancel.  The
worst deviation from the exact value seen on the survey inputs is 2.2e-13
of max|f| (dense, size 24), and `dense` at size 16 already falls 7.8e-14
below |f| at some cell; ROUND_REL = 2**-36 (1.5e-11 of max|f|) leaves a
factor of about 65 over the worst case seen.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ROUND_REL = 2.0**-36
WEAK_STRONG_SLACK = 1e-12
ETA_MC_SLACK = 1e-12


def side_options(cap: int, dyadic: bool) -> list[int]:
    """Side lengths 1..cap, or the powers of two up to cap."""
    if dyadic:
        return [1 << k for k in range(cap.bit_length()) if 1 << k <= cap]
    return list(range(1, cap + 1))


def power_weight(coords: np.ndarray, exponents) -> np.ndarray:
    """prod_k |c_k + 1/2|^a_k at integer spatial coordinates (..., 2n);
    all exponents zero gives the constant weight 1."""
    out = np.ones(coords.shape[:-1])
    for k, a in enumerate(exponents):
        if a != 0.0:
            out = out * np.abs(coords[..., k] + 0.5) ** a
    return out


def group_product(p: np.ndarray, q: np.ndarray, mu: int) -> np.ndarray:
    """(u, v, t) * (x, y, s) = (u + x, v + y, t + s + mu (u.y - v.x)),
    on integer arrays of shape (..., 2n + 1)."""
    n = (p.shape[-1] - 1) // 2
    out = p + q
    twist = (p[..., :n] * q[..., n : 2 * n]).sum(-1) - (p[..., n : 2 * n] * q[..., :n]).sum(-1)
    out[..., -1] += mu * twist
    return out


def direct_maximal(values: np.ndarray, mu: int, dyadic: bool, exponents, point) -> float:
    """Twisted weighted maximal average at one point, by literal summation.

    `values` is a field on the cube [0, size-1]^(2n+1) with singleton
    spatial factors and zero outside it.  A rectangle z in R through x
    samples f at x * (z - x): the group product of the point with the
    coordinate offset, which moves t by mu (u.eta - v.xi) at column
    (xi, eta).  Each box and interval is summed cell by cell; no prefix
    table is formed.
    """
    shape = np.asarray(values.shape, dtype=np.int64)
    d = values.ndim
    sp = d - 1
    x = np.asarray(point, dtype=np.int64)
    sides = [side_options(int(shape[a]), dyadic) for a in range(sp)]
    t_lens = side_options(int(shape[-1]), dyadic)
    reach = [max(s) - 1 for s in sides]
    l_max = max(t_lens)

    axes = [np.arange(x[a] - reach[a], x[a] + reach[a] + 1) for a in range(sp)]
    cols = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    taus = np.arange(x[-1] - l_max + 1, x[-1] + l_max)
    z = np.empty(cols.shape[:-1] + (taus.size, d), dtype=np.int64)
    z[..., :sp] = cols[..., None, :]
    z[..., sp] = taus
    s = group_product(np.broadcast_to(x, z.shape), z - x, mu)
    inside = np.all((s >= 0) & (s < shape), axis=-1)
    idx = tuple(np.moveaxis(np.clip(s, 0, shape - 1), -1, 0))
    w = power_weight(cols, exponents)
    g = np.where(inside, np.abs(values[idx]), 0.0) * w[..., None]

    windows = np.lib.stride_tricks.sliding_window_view
    spatial = tuple(range(sp))
    best = 0.0
    for box in itertools.product(*sides):
        # every placement of this box shape that holds x: low corner
        # within side-1 cells below x on each axis
        held = tuple(slice(r - s + 1, r + 1) for r, s in zip(reach, box))
        inner = tuple(range(-sp, 0))
        columns = windows(g, box, axis=spatial)[held].sum(axis=inner)
        wsums = windows(w, box)[held].sum(axis=inner)
        for L in t_lens:
            start = l_max - L
            sums = windows(columns[..., start : start + 2 * L - 1], L, axis=-1).sum(-1)
            best = max(best, float((sums / (wsums[..., None] * L)).max()))
    return best


def field_bounds(f: np.ndarray, mf: np.ndarray, exact: bool) -> list[str]:
    """|f| <= Mf <= max|f| cell by cell, within the rounding slack."""
    a = np.abs(f)
    tol = 0.0 if exact else ROUND_REL * float(a.max())
    problems = []
    low = mf < a - tol
    if low.any():
        problems.append(f"{int(low.sum())} cells with Mf below |f| by up to {float((a - mf).max())!r}")
    high = mf > a.max() + tol
    if high.any():
        problems.append(f"{int(high.sum())} cells with Mf above max|f| by up to {float(mf.max() - a.max())!r}")
    return problems


def values_match(got: float, want: float, exact: bool, scale: float, what: str) -> list[str]:
    """Bitwise equality when exact, else |got - want| within the slack of scale."""
    ok = got == want if exact else abs(got - want) <= ROUND_REL * scale
    return [] if ok else [f"{what}: got {got!r}, expected {want!r}"]


def survey_rows(rows) -> list[str]:
    """weak_quantity <= strong_ratio (1 + 1e-12) on every (size, trial, p) row."""
    problems = []
    for r in rows:
        if not (math.isfinite(r.weak_quantity) and math.isfinite(r.strong_ratio)):
            problems.append(f"non-finite row {r}")
        elif not r.weak_quantity <= r.strong_ratio * (1 + WEAK_STRONG_SLACK):
            problems.append(f"weak {r.weak_quantity!r} > strong {r.strong_ratio!r} at {r}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs


def argmax_value(summary: dict) -> list[str]:
    """The reported rectangle's value must be the reported maximum."""
    if summary["argmax_rectangle_value"] == summary["max_value"]:
        return []
    return [f"argmax_rectangle_value {summary['argmax_rectangle_value']!r} != max_value {summary['max_value']!r}"]


def maximal_outputs(summary: dict, mf: np.ndarray, f: np.ndarray) -> list[str]:
    """summary.json agrees with the written field; the argmax rectangle
    holds the argmax point; the field keeps |f| <= Mf <= max|f|."""
    problems = field_bounds(f, mf, exact=False)
    point = tuple(summary["argmax_point"])
    first = tuple(int(i) for i in np.unravel_index(int(mf.argmax()), mf.shape))
    if float(mf.max()) != summary["max_value"]:
        problems.append(f"max_value {summary['max_value']!r} != field max {float(mf.max())!r}")
    if point != first:
        problems.append(f"argmax_point {point} is not the first maximum {first}")
    rect = summary["argmax_rectangle"]
    if len(rect) != len(point) or not all(lo <= c <= hi for (lo, hi), c in zip(rect, point)):
        problems.append(f"argmax_rectangle {rect} does not hold {point}")
    return problems


def covering_outputs(
    shape, ordered: list, report: dict, audit: list, chosen: list, slices: list
) -> list[str]:
    """Replay the half-coverage selection with t-tripled companions from
    scratch and compare every audit row; all covering ratios are >= 1.

    `ordered` holds the input rectangles as per-axis (lo, hi) bounds in
    selection order; `audit` the rows of selection_audit.csv as
    (index, chosen, witness_m, overlap_fraction); `chosen` the rows of
    chosen_rectangles.csv as bounds.
    """
    problems = []
    covered = np.zeros(shape, dtype=bool)
    kept = []
    t_top = shape[-1]
    for idx, bounds in enumerate(ordered):
        sl = tuple(slice(lo, hi + 1) for lo, hi in bounds)
        overlap = int(covered[sl].sum())
        volume = math.prod(hi - lo + 1 for lo, hi in bounds)
        take = 2 * overlap < volume
        want = (idx, take, len(kept), overlap / volume)
        if idx >= len(audit) or tuple(audit[idx]) != want:
            problems.append(f"audit row {idx}: {audit[idx] if idx < len(audit) else None} != replay {want}")
            if len(problems) > 5:
                break
        if take:
            kept.append(bounds)
            t_lo, t_hi = bounds[-1]
            L = t_hi - t_lo + 1
            covered[sl[:-1] + (slice(max(t_lo - L, 0), min(t_hi + L, t_top - 1) + 1),)] = True
    if len(audit) != len(ordered):
        problems.append(f"{len(audit)} audit rows for {len(ordered)} rectangles")
    if [list(map(tuple, b)) for b in chosen] != [list(map(tuple, b)) for b in kept]:
        problems.append("chosen_rectangles.csv differs from the replayed selection")
    if report["count_input"] != len(ordered) or report["count_chosen"] != len(kept):
        problems.append(f"report counts {report['count_input']}/{report['count_chosen']} != {len(ordered)}/{len(kept)}")
    for key in ("comparability_ratio", "indicator_ratio"):
        if not report[key] >= 1:
            problems.append(f"{key} {report[key]!r} < 1")
    bad = [row for row in slices if row["ratio"] is not None and not row["ratio"] >= 1]
    if bad:
        problems.append(f"{len(bad)} slice ratios below 1, first {bad[0]}")
    return problems


def eta_outputs(report: dict, exponents, sp: int) -> list[str]:
    """Each row: eta_exact in (0, 1], equal to the k-smallest-weights
    fraction by a full sort, and its Monte Carlo value no lower (less
    1e-12).  Exact for power weights with integer exponents, whose cell
    weights are dyadic rationals, so every sum is exact."""
    problems = []
    threshold = report["threshold"]
    rows = report["rows"]
    for row in rows:
        bounds = row["bounds"]
        axes = [np.arange(lo, hi + 1) for lo, hi in bounds[:sp]]
        cols = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        t_len = bounds[-1][1] - bounds[-1][0] + 1
        vals = np.sort(np.repeat(power_weight(cols, exponents).ravel(), t_len))
        V = vals.size
        k = math.floor(V * threshold) + 1
        want = 1.0 if k >= V else float(vals[:k].sum() / vals.sum())
        eta, mc = row["eta_exact"], row["eta_mc"]
        if V != row["volume"]:
            problems.append(f"{bounds}: volume {row['volume']} != {V}")
        if not 0 < eta <= 1 or eta != want:
            problems.append(f"{bounds}: eta_exact {eta!r}, full sort gives {want!r}")
        if mc is not None and not (0 < mc <= 1 and mc >= eta - ETA_MC_SLACK):
            problems.append(f"{bounds}: eta_mc {mc!r} against eta_exact {eta!r}")
        if len(problems) > 5:
            break
    if rows and report["global_eta"] != min(r["eta_exact"] for r in rows):
        problems.append(f"global_eta {report['global_eta']!r} is not the row minimum")
    return problems
