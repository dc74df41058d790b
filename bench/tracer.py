"""Spans around the calls into the program's public functions, recorded
from outside the program.

`cli` and `harness` bind `maximal_field`, `argmax_rectangle`,
`covering_experiment`, `eta_survey`, the writers and others by name, so a
function is wrapped under every name any strongmax module holds it by.
Methods are wrapped on their class and the input generators in the shared
GENERATORS table.  Spans stay in memory as [name, start, end, parent,
busy]; `busy` is the time spent inside the call, which for a generator
(`rectangles_containing`) is the summed time of its steps, not the time
its consumer held it open.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import strongmax
from strongmax import cli, covering, harness, heisenberg, lattice, weights

MODULES = (strongmax, lattice, heisenberg, weights, covering, harness, cli)

# layer name -> (owner, attribute) of each wrapped callable
FUNCTIONS = {
    "heisenberg.maximal_field": [(heisenberg, "maximal_field")],
    "heisenberg.argmax_rectangle": [(heisenberg, "argmax_rectangle")],
    "heisenberg.write_field": [(heisenberg, "write_field_csv"), (heisenberg, "write_field_binary")],
    "harness.run_experiment": [(harness, "run_experiment")],
    "harness.weak_type": [(harness, "weak_type_quantity")],
    "harness.strong_ratio": [(harness, "strong_ratio")],
    "weights.eta_survey": [(weights, "eta_survey")],
    "weights.exact_eta": [(weights, "exact_eta")],
    "weights.parse_weight": [(weights, "parse_weight")],
    "lattice.random_rectangle": [(lattice, "random_rectangle")],
    "covering.experiment": [(covering, "covering_experiment")],
    "covering.select": [(covering, "covering_select")],
    "covering.union_volume": [(covering, "union_volume")],
    "covering.indicator": [(covering, "indicator_power_sum")],
    "covering.slice_ratios": [(covering, "slice_union_ratios")],
    "cli.main": [(cli, "main")],
    "cli.maximal": [(cli, "cmd_maximal")],
    "cli.cover": [(cli, "cmd_cover")],
    "cli.eta": [(cli, "cmd_eta")],
}
METHODS = {
    "weights.expanded_spatial": (weights.WeightField, "expanded_spatial"),
    "lattice.rectangles_containing": (lattice.RectangleFamily, "rectangles_containing"),
}
GENERATOR_LAYER = "harness.generate"
GENERATOR_FUNCTIONS = {"lattice.rectangles_containing"}


def _rect_avgs(f, omega, family, *args, **kwargs) -> int:
    """Rectangle averages a maximal_field call forms: cells x members
    through each anchor."""
    return f.grid.cell_count * family.count_containing()


WORK = {"heisenberg.maximal_field": _rect_avgs}


class Tracer:
    """Records spans while installed; `install` and `remove` swap the
    wrappers in and out, so untraced rounds run the original functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[1], span[2], span[4] = start, end, end - start
        self._stack.pop()

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            idx = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self._stack.pop()
            span = self.spans[idx]
            span[1] = time.perf_counter()
            it = iter(fn(*args, **kwargs))
            while True:
                self._stack.append(idx)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    span[2] = t1
                    span[4] += t1 - t0
                    self._stack.pop()
                yield item

        return traced

    def install(self) -> None:
        for name, targets in FUNCTIONS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for mod in MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            make = self.wrap_generator if name in GENERATOR_FUNCTIONS else self.wrap
            self._saved.append((cls, attr, original))
            setattr(cls, attr, make(name, original))
        table = harness.GENERATORS
        for key, original in list(table.items()):
            self._saved.append((table, key, original))
            table[key] = self.wrap(GENERATOR_LAYER, original)

    def remove(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per layer: summed busy time minus the busy time of its child
        spans, and the number of calls."""
        own = [span[4] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[4]
        times: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, t in zip(self.spans, own):
            times[span[0]] += t
            calls[span[0]] += 1
        return times, calls

    def inclusive(self, name: str) -> float:
        return sum(span[4] for span in self.spans if span[0] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "busy"], "spans": self.spans}, fh)
            fh.write("\n")
