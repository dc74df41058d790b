"""Command-line front end: seeded runs with file outputs and config echo.

`main` runs every subcommand one way: it resolves the options as defaults
< --config file < explicit flags, creates --out, lets the subcommand
write its deterministic files, and last writes the resolved set to
config_echo.json, so only a run that succeeded leaves an echo. Rerunning
from the echo reproduces every file byte for byte, `_timestamp` lines aside.

Exit codes: 0 on success; 2 for usage or configuration errors, among them
an unknown config key or a config value whose JSON type is not its
default's; 3 when a structural invariant fails at run time.
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

_COMMON_DEFAULTS = {"n": 1, "mu": 1, "factors": []}

_MAXIMAL_DEFAULTS = {
    **_COMMON_DEFAULTS,
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
    **_COMMON_DEFAULTS,
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
    **_COMMON_DEFAULTS,
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
    **_COMMON_DEFAULTS,
    "size": 8,
    "extents": None,
    "weight": "power:1.0,1.0",
    "budget": 512,
    "subset_samples": 0,
    "seed": 0,
    "threshold": 0.5,
}

# keys whose default is null, and the types a config may give them instead
_NULLABLE = {"extents": (int, list), "input": (str,), "rects": (str,)}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _accepts(key: str, default, value) -> bool:
    """Whether a config value has its default's JSON type: any number where a
    float is expected; a list of integers where the default lists integers
    (sizes, factors), a list of numbers where it lists floats."""
    if key in _NULLABLE:
        return value is None or type(value) in _NULLABLE[key]
    if isinstance(default, float):
        return type(value) in (int, float)
    if isinstance(default, list):
        entry = (int,) if all(type(x) is int for x in default) else (int, float)
        return type(value) is list and all(type(x) in entry for x in value)
    return type(value) is type(default)


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    resolved = dict(defaults)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError(f"{args.config}: config must be a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise DomainError(f"{args.config}: unknown keys {sorted(unknown)}")
        wrong = [k for k, v in loaded.items() if not _accepts(k, defaults[k], v)]
        if wrong:
            raise DomainError(f"{args.config}: values of the wrong type for {sorted(wrong)}")
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


def _write_stamped(path, payload: dict) -> None:
    """A report file: the payload plus a `_timestamp`, the one line a replay
    from config_echo.json does not reproduce."""
    _write_json(path, {"_timestamp": datetime.now(timezone.utc).isoformat(), **payload})


def _family_flag(resolved: dict) -> bool:
    fam = resolved["family"]
    if fam not in ("full", "dyadic"):
        raise DomainError(f"family must be 'full' or 'dyadic', got {fam!r}")
    return fam == "dyadic"


def cmd_maximal(resolved: dict, out_dir: str) -> None:
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
    _write_stamped(os.path.join(out_dir, "summary.json"), summary)
    print(f"maximal: max {top!r} at {coords}; outputs in {out_dir}")


def cmd_cover(resolved: dict, out_dir: str) -> None:
    grid = _grid_of(resolved)
    w = parse_weight(grid, resolved["weight"])
    cross = resolved["cross"] if resolved["cross"] == "t" else int(resolved["cross"])
    rects = import_rectangles_csv(resolved["rects"], grid) if resolved["rects"] else None
    report, sel = covering_experiment(
        grid,
        w,
        p=float(resolved["p"]),
        count=int(resolved["count"]),
        seed=int(resolved["seed"]),
        cross=cross,
        rects=rects,
    )
    _write_stamped(os.path.join(out_dir, "covering_report.json"), report.to_json_dict())
    sel.write_audit_csv(os.path.join(out_dir, "selection_audit.csv"))
    export_rectangles_csv(sel.chosen(), os.path.join(out_dir, "chosen_rectangles.csv"), grid)
    if resolved["slices"]:
        _write_json(os.path.join(out_dir, "slice_ratios.json"), slice_union_ratios(sel, w))
    print(
        f"cover: kept {report.count_chosen}/{report.count_input}, "
        f"comparability {report.comparability_ratio!r}, indicator {report.indicator_ratio!r}"
    )


def cmd_weaktype(resolved: dict, out_dir: str) -> None:
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
    _write_stamped(os.path.join(out_dir, "bound_report.json"), report.to_json_dict())
    report.write_csv(os.path.join(out_dir, "bound_report.csv"))
    for row in report.scaling_table():
        print(f"weaktype: p={row['p']!r} max weak by size {row['max_weak_by_size']} spread {row['spread']!r}")


def cmd_eta(resolved: dict, out_dir: str) -> None:
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
    _write_stamped(os.path.join(out_dir, "eta_report.json"), report.to_json_dict())
    report.write_csv(os.path.join(out_dir, "eta_report.csv"))
    print(
        f"eta: global {report.global_eta!r} over {report.rectangle_count} rectangles "
        f"({'exhaustive' if report.exhaustive else 'sampled'})"
    )


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
    m.set_defaults(func=cmd_maximal, defaults=_MAXIMAL_DEFAULTS)

    c = sub.add_parser("cover", help="run a covering selection experiment")
    common(c)
    c.add_argument("--size", type=int)
    c.add_argument("--p", type=float)
    c.add_argument("--count", type=int, help="random rectangles to draw")
    c.add_argument("--seed", type=int)
    c.add_argument("--cross", help="designated factor: 't' or a factor index")
    c.add_argument("--rects", help="CSV of rectangles to use instead of random ones")
    c.add_argument("--slices", action="store_const", const=True, help="write per-t union ratios")
    c.set_defaults(func=cmd_cover, defaults=_COVER_DEFAULTS)

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
    wk.set_defaults(func=cmd_weaktype, defaults=_WEAKTYPE_DEFAULTS)

    e = sub.add_parser("eta", help="survey the rectangle comparability constant")
    common(e)
    e.add_argument("--size", type=int)
    e.add_argument("--budget", type=int, help="rectangle budget before sampling kicks in")
    e.add_argument("--subset-samples", dest="subset_samples", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--threshold", type=float)
    e.set_defaults(func=cmd_eta, defaults=_ETA_DEFAULTS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = _resolve(args.defaults, args)
        os.makedirs(args.out, exist_ok=True)
        args.func(resolved, args.out)
        _write_json(os.path.join(args.out, "config_echo.json"), resolved)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
