"""Command-line front end: seeded runs with file outputs and config echo.

Every subcommand resolves its parameters as defaults < config file <
explicit flags, writes the resolved set to config_echo.json in the
output directory, and emits deterministic files, so rerunning from the
echo reproduces them byte for byte (timestamp header lines aside).

Exit codes: 0 on success, 2 for usage or configuration errors, 3 when a
structural invariant fails at run time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .covering import (
    covering_experiment,
    export_rectangles_csv,
    import_rectangles_csv,
    slice_union_ratios,
)
from .harness import GENERATORS, ExperimentConfig, run_experiment
from .heisenberg import (
    SHIFT_STANDARD,
    SHIFT_SWAPPED,
    argmax_rectangle,
    maximal_field,
    read_field_binary,
    read_field_csv,
    write_field_binary,
    write_field_csv,
)
from .lattice import (
    DomainError,
    GridSpec,
    InvariantViolation,
    RangeError,
    RectangleFamily,
    grid_from_config,
    grid_to_config,
)
from .weights import eta_survey, parse_weight

_MAXIMAL_DEFAULTS = {
    "n": 1,
    "mu": 1,
    "factors": [],
    "size": 8,
    "extents": None,
    "weight": "constant",
    "family": "full",
    "convention": SHIFT_STANDARD,
    "input": None,
    "generator": "point",
    "gen_seed": 0,
    "format": "csv",
    "argmax_rect": False,
}

_COVER_DEFAULTS = {
    "n": 1,
    "mu": 1,
    "factors": [],
    "size": 16,
    "extents": None,
    "weight": "constant",
    "p": 2.0,
    "count": 100,
    "seed": 0,
    "cross": "t",
    "rects": None,
    "slices": False,
}

_WEAKTYPE_DEFAULTS = {
    "n": 1,
    "mu": 1,
    "factors": [],
    "sizes": [8, 16, 24],
    "weight": "constant",
    "generator": "dense",
    "trials": 10,
    "p_values": [1.5, 2.0, 3.0],
    "family": "dyadic",
    "rungs": 64,
    "seed": 0,
    "convention": SHIFT_STANDARD,
}

_ETA_DEFAULTS = {
    "n": 1,
    "mu": 1,
    "factors": [],
    "size": 8,
    "extents": None,
    "weight": "power:1.0,1.0",
    "budget": 512,
    "subset_samples": 0,
    "seed": 0,
    "threshold": 0.5,
}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    resolved = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError(f"{args.config}: config must be a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise DomainError(f"{args.config}: unknown keys {sorted(unknown)}")
        resolved.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _grid_of(resolved: dict) -> GridSpec:
    cfg = {
        "n": resolved["n"],
        "extents": resolved["extents"] if resolved.get("extents") else resolved["size"],
        "factors": resolved.get("factors") or [],
        "mu": resolved["mu"],
    }
    return grid_from_config(cfg)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _echo_config(out_dir: str, resolved: dict) -> None:
    _write_json(os.path.join(out_dir, "config_echo.json"), resolved)


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _family_flag(resolved: dict) -> bool:
    fam = resolved["family"]
    if fam not in ("full", "dyadic"):
        raise DomainError(f"family must be 'full' or 'dyadic', got {fam!r}")
    return fam == "dyadic"


def cmd_maximal(args: argparse.Namespace) -> int:
    resolved = _resolve(_MAXIMAL_DEFAULTS, args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    if resolved["input"]:
        path = resolved["input"]
        reader = read_field_binary if path.endswith(".bin") else read_field_csv
        f = reader(path, mu=resolved["mu"], factors=resolved.get("factors") or ())
        grid = f.grid
    else:
        grid = _grid_of(resolved)
        if resolved["generator"] not in GENERATORS:
            raise DomainError(f"unknown generator {resolved['generator']!r}")
        rng = np.random.default_rng([int(resolved["gen_seed"]) & 0xFFFFFFFF, 0x3FA])
        f = GENERATORS[resolved["generator"]](grid, rng)
    w = parse_weight(grid, resolved["weight"])
    family = RectangleFamily(grid, dyadic_only=_family_flag(resolved))
    mf = maximal_field(f, w, family, resolved["convention"])

    fmt = resolved["format"]
    if fmt == "csv":
        write_field_csv(mf, os.path.join(out_dir, "maximal.csv"))
    elif fmt == "bin":
        write_field_binary(mf, os.path.join(out_dir, "maximal.bin"))
    elif fmt == "json":
        _write_json(
            os.path.join(out_dir, "maximal.json"),
            {
                "grid": grid_to_config(grid),
                "family": mf.family,
                "weight": mf.weight,
                "convention": mf.convention,
                "values": list(mf.values.reshape(-1)),
            },
        )
    else:
        raise DomainError(f"unknown format {fmt!r}")

    top = float(mf.values.max())
    flat = int(mf.values.argmax())
    coords = [int(i + lo) for i, lo in zip(np.unravel_index(flat, grid.shape), grid.lows)]
    summary = {
        "_timestamp": _stamp(),
        "max_value": top,
        "argmax_point": coords,
        "family": mf.family,
        "weight": mf.weight,
        "convention": mf.convention,
    }
    if resolved["argmax_rect"]:
        rect, val = argmax_rectangle(f, w, coords, family, resolved["convention"])
        summary["argmax_rectangle"] = [list(b) for b in rect.bounds]
        summary["argmax_rectangle_value"] = val
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _echo_config(out_dir, resolved)
    print(f"maximal: max {top!r} at {coords}; outputs in {out_dir}")
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    resolved = _resolve(_COVER_DEFAULTS, args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    grid = _grid_of(resolved)
    w = parse_weight(grid, resolved["weight"])
    cross = resolved["cross"]
    if cross != "t":
        cross = int(cross)
    rects = None
    if resolved["rects"]:
        rects = import_rectangles_csv(resolved["rects"], grid)
    report, sel = covering_experiment(
        grid,
        w,
        p=float(resolved["p"]),
        count=int(resolved["count"]),
        seed=int(resolved["seed"]),
        cross=cross,
        rects=rects,
    )
    payload = {"_timestamp": _stamp()}
    payload.update(report.to_json_dict())
    _write_json(os.path.join(out_dir, "covering_report.json"), payload)
    sel.write_audit_csv(os.path.join(out_dir, "selection_audit.csv"))
    export_rectangles_csv(sel.chosen(), os.path.join(out_dir, "chosen_rectangles.csv"), grid)
    if resolved["slices"]:
        _write_json(os.path.join(out_dir, "slice_ratios.json"), slice_union_ratios(sel, w))
    _echo_config(out_dir, resolved)
    print(
        f"cover: kept {report.count_chosen}/{report.count_input}, "
        f"comparability {report.comparability_ratio!r}, indicator {report.indicator_ratio!r}"
    )
    return 0


def cmd_weaktype(args: argparse.Namespace) -> int:
    resolved = _resolve(_WEAKTYPE_DEFAULTS, args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    cfg = ExperimentConfig(
        n=int(resolved["n"]),
        mu=int(resolved["mu"]),
        factors=tuple(resolved.get("factors") or ()),
        grid_sizes=tuple(int(s) for s in resolved["sizes"]),
        weight=resolved["weight"],
        generator=resolved["generator"],
        trials=int(resolved["trials"]),
        p_values=tuple(float(p) for p in resolved["p_values"]),
        dyadic=_family_flag(resolved),
        ladder_rungs=int(resolved["rungs"]),
        seed=int(resolved["seed"]),
        convention=resolved["convention"],
    )
    report = run_experiment(cfg)
    payload = {"_timestamp": _stamp()}
    payload.update(report.to_json_dict())
    _write_json(os.path.join(out_dir, "bound_report.json"), payload)
    report.write_csv(os.path.join(out_dir, "bound_report.csv"))
    _echo_config(out_dir, resolved)
    for row in report.scaling_table():
        print(f"weaktype: p={row['p']!r} max weak by size {row['max_weak_by_size']} spread {row['spread']!r}")
    return 0


def cmd_eta(args: argparse.Namespace) -> int:
    resolved = _resolve(_ETA_DEFAULTS, args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    grid = _grid_of(resolved)
    w = parse_weight(grid, resolved["weight"])
    report = eta_survey(
        w,
        grid,
        rectangle_budget=int(resolved["budget"]),
        subset_samples=int(resolved["subset_samples"]),
        seed=int(resolved["seed"]),
        threshold=float(resolved["threshold"]),
    )
    payload = {"_timestamp": _stamp()}
    payload.update(report.to_json_dict())
    _write_json(os.path.join(out_dir, "eta_report.json"), payload)
    report.write_csv(os.path.join(out_dir, "eta_report.csv"))
    _echo_config(out_dir, resolved)
    print(
        f"eta: global {report.global_eta!r} over {report.rectangle_count} rectangles "
        f"({'exhaustive' if report.exhaustive else 'sampled'})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongmax",
        description="Twisted strong maximal averages on the integer Heisenberg lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file of resolved options (flags still win)")
        sp.add_argument("--out", default=".", help="output directory (default: current)")
        sp.add_argument("--n", type=int)
        sp.add_argument("--mu", type=int)
        sp.add_argument("--factors", type=_int_list, help="spatial factor sizes, e.g. 1,1")
        sp.add_argument("--weight", help="constant | power:a,..[@c,..] | perturbed:amp:seed")

    m = sub.add_parser("maximal", help="evaluate the maximal field of one input")
    common(m)
    m.add_argument("--size", type=int, help="cube extents [0, size-1]")
    m.add_argument("--family", choices=["full", "dyadic"])
    m.add_argument("--convention", choices=[SHIFT_STANDARD, SHIFT_SWAPPED])
    m.add_argument("--input", help="field file (.csv or .bin) instead of a generator")
    m.add_argument("--generator", choices=sorted(GENERATORS))
    m.add_argument("--gen-seed", dest="gen_seed", type=int)
    m.add_argument("--format", choices=["csv", "bin", "json"])
    m.add_argument("--argmax-rect", dest="argmax_rect", action="store_const", const=True)
    m.set_defaults(func=cmd_maximal)

    c = sub.add_parser("cover", help="run a covering selection experiment")
    common(c)
    c.add_argument("--size", type=int)
    c.add_argument("--p", type=float)
    c.add_argument("--count", type=int, help="random rectangles to draw")
    c.add_argument("--seed", type=int)
    c.add_argument("--cross", help="designated factor: 't' or a factor index")
    c.add_argument("--rects", help="CSV of rectangles to use instead of random ones")
    c.add_argument("--slices", action="store_const", const=True, help="write per-t union ratios")
    c.set_defaults(func=cmd_cover)

    wk = sub.add_parser("weaktype", help="weak-type and strong-norm experiment grid")
    common(wk)
    wk.add_argument("--sizes", type=_int_list, help="cube grid sizes, e.g. 8,16,24")
    wk.add_argument("--generator", choices=sorted(GENERATORS))
    wk.add_argument("--trials", type=int)
    wk.add_argument("--p-values", dest="p_values", type=_float_list)
    wk.add_argument("--family", choices=["full", "dyadic"])
    wk.add_argument("--rungs", type=int)
    wk.add_argument("--seed", type=int)
    wk.add_argument("--convention", choices=[SHIFT_STANDARD, SHIFT_SWAPPED])
    wk.set_defaults(func=cmd_weaktype)

    e = sub.add_parser("eta", help="survey the rectangle comparability constant")
    common(e)
    e.add_argument("--size", type=int)
    e.add_argument("--budget", type=int, help="rectangle budget before sampling kicks in")
    e.add_argument("--subset-samples", dest="subset_samples", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--threshold", type=float)
    e.set_defaults(func=cmd_eta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
