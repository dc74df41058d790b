"""One workload in one process: set up, run whole rounds while time
remains, check every output, and print the result as the last line.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s counts the
interpreter start, the imports and the first round's inputs.  Run through
bench/run.py, which sets the environment and reads the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracer import FUNCTIONS, GENERATOR_LAYER, METHODS, Tracer  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

# run_experiment's and main's own time is their module's self time
RENAMED = {"harness.run_experiment": "harness.self", "cli.main": "cli.self"}
LAYERS = [*FUNCTIONS, *METHODS, GENERATOR_LAYER]


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per traced round: self time and calls of every layer, the rate of
    rectangle averages inside maximal_field, and the tracing overhead."""
    k = len(traced)
    times, calls = tracer.self_times()
    out = {}
    for span in LAYERS:
        stem = RENAMED.get(span, span)
        out[f"{stem}_s"] = {"value": times.get(span, 0.0) / k, "unit": "s"}
        out[f"{stem}_calls"] = {"value": calls.get(span, 0) / k, "unit": "count"}
    busy = tracer.inclusive("heisenberg.maximal_field")
    rate = tracer.work["heisenberg.maximal_field"] / busy if busy > 0 else 0.0
    out["heisenberg.rect_avgs_per_s"] = {"value": rate, "unit": "1/s"}
    out["trace.overhead_s"] = {"value": median(traced) - median(untraced), "unit": "s"}
    return out


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spawned = argv
    seconds, trace, spawned = float(seconds), trace == "1", float(spawned)
    workload = WORKLOADS[name](np.random.default_rng(int(seed)))
    tracer = Tracer() if trace else None
    inputs = workload.prepare(0)
    setup_s = time.monotonic() - spawned

    rounds: list[tuple[float, bool]] = []
    failed, problems, errors = 0, [], []
    start = time.perf_counter()
    # at least three rounds, so that a run's median can reject one slow
    # round; trace runs alternate untraced and traced rounds
    least = 3
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs = workload.run(inputs)
            except Exception:  # a round that raises fails all its operations
                outputs = None
                errors.append(traceback.format_exc())
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.remove()
            rounds.append((dt, traced))
            if outputs is None:
                failed += workload.ops
            else:
                bad, found = workload.check(inputs, outputs)
                failed += bad
                problems += found
            if len(rounds) >= least and time.perf_counter() - start >= seconds:
                break
            inputs = workload.prepare(len(rounds))
    finally:
        if hasattr(workload, "close"):
            workload.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [dt for dt, t in rounds if not t]
    if trace:
        traced = [dt for dt, t in rounds if t]
        metrics = layer_metrics(tracer, traced, plain)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {
            "wall_s": {"value": median(plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": workload.ops * len(rounds),
        "failed": failed,
        "metrics": metrics,
        "details": {
            "workload": name,
            "seed": int(seed),
            "rounds": len(rounds),
            "round_s": [dt for dt, _ in rounds],
            "round_traced": [t for _, t in rounds],
            "problems": problems[:20],
            "errors": errors[:3],
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
