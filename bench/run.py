"""Benchmark of the strongmax lab: four workloads, each in its own child
process, checked outputs, one JSON result line.

    python3 bench/run.py --workload field-full --seed 1 --seconds 25 --trace 0

--workload all runs every workload in turn.  With --trace 0 the result
holds the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a traced run.  The last line
of standard output is the result; the full record, with every round's
time, goes to bench/out/.  Exits 2 without a result when the program's
source (src/strongmax) is not beside bench/, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORKLOADS = ("survey-dyadic", "field-full", "field-n2", "desk-cli")
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """One process of load: no trial workers, BLAS/OpenMP threads capped
    at the cores this process may use."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    env.update(
        STRONGMAX_WORKERS="1",
        OMP_NUM_THREADS=cores,
        OPENBLAS_NUM_THREADS=cores,
        MKL_NUM_THREADS=cores,
        PYTHONHASHSEED="0",
    )
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), str(seconds), str(trace)]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + [repr(spawned)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    result = json.loads(lines[-1])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def public(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strongmax" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'strongmax'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            for problem in results[name]["details"]["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(public(results[names[0]])))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **public(result)}))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
