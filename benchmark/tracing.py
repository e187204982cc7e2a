"""Per-layer timing for the traced run, taken from outside the program.

``Tracer.install`` wraps the public functions below and rebinds each name
in every pooltest module that holds it (``dp_table`` lives in both
``pooltest.optimize`` and ``pooltest.study``, ``dp_ordered`` and the
oracles in ``pooltest.cli``, and so on), so calls between modules are seen
too. Each call inside an op becomes a span (name, start, end, parent, and
for layers with a work count the call's arguments and result); a span's
self time is its duration less its child spans. Work counts are computed
from the call's input sizes after the op, not counted inside the program.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

from crosscheck import bell, sterrett_candidates


def _dp_table_work(args, result):
    n = args["pv"].n
    if args["procedure"] == "S" and args["s_rule"] == "optimal":
        return "s_candidates", sterrett_candidates(n)
    return "cells", n * (n - 1) // 2


# layer name -> work count of one call as (kind, amount), or None
LAYERS = {
    "optimize.dp_table": _dp_table_work,
    "optimize.dp_ordered": None,
    "optimize.exhaustive_set": lambda a, r: ("partitions", bell(a["pv"].n)),
    "optimize.exhaustive_ordered": lambda a, r: ("partitions", 1 << (a["pv"].n - 1)),
    "cost.evaluate_plan": lambda a, r: ("blocks", len(r.per_block)),
    "simulate.estimate_cost": lambda a, r: ("item_draws", a["m"] * a["pv"].n),
    "simulate.exact_expected_tests": lambda a, r: ("outcomes", 1 << a["group"].size),
    "simulate.sample_beta_one": None,
    "bounds.huffman_length": lambda a, r: ("merges", (1 << a["pv"].n) - 1),
    "bounds.entropy_bits": None,
    "study.run_study": None,
    "study.emit_table": None,
    "model.sort_ascending": None,
    "cli.main": None,
}

SELF_METRICS = [
    "optimize.dp_table",
    "optimize.dp_ordered",
    "optimize.exhaustive_set",
    "optimize.exhaustive_ordered",
    "cost.evaluate_plan",
    "simulate.estimate_cost",
    "simulate.sample_beta_one",
    "bounds.huffman_length",
    "bounds.entropy_bits",
    "study.run_study",
    "study.emit_table",
    "model.sort_ascending",
    "cli.main",
]

# rate metric -> (layer, work kind)
RATE_METRICS = {
    "optimize.dp_table.s_candidates_per_s": ("optimize.dp_table", "s_candidates"),
    "optimize.dp_table.cells_per_s": ("optimize.dp_table", "cells"),
    "optimize.exhaustive_set.partitions_per_s": ("optimize.exhaustive_set", "partitions"),
    "optimize.exhaustive_ordered.partitions_per_s": ("optimize.exhaustive_ordered", "partitions"),
    "cost.evaluate_plan.blocks_per_s": ("cost.evaluate_plan", "blocks"),
    "simulate.estimate_cost.item_draws_per_s": ("simulate.estimate_cost", "item_draws"),
    "simulate.exact_expected_tests.outcomes_per_s": ("simulate.exact_expected_tests", "outcomes"),
    "bounds.huffman_length.merges_per_s": ("bounds.huffman_length", "merges"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.signatures: dict = {}
        self.ops: list[dict] = []  # per op: {"self": {layer: s}, "dp_table_calls": n, "work": {(layer, kind): [amount, self_s]}}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "pooltest" or name.startswith("pooltest.")]
        for layer, work in LAYERS.items():
            module, attr = layer.split(".")
            original = getattr(importlib.import_module(f"pooltest.{module}"), attr)
            self.signatures[layer] = inspect.signature(original)
            wrapper = self._wrap(layer, original, work is not None)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, layer, fn, keep_call):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            # The clock is read before and after the wrapper's bookkeeping, so
            # what the wrapper costs lands on this layer, not on its caller.
            # The call's work is computed in end_op, outside the op.
            start = clock()
            span = [layer, start, start, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep_call:
                    span[4] = (args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def begin_op(self) -> None:
        self.spans.clear()
        self.active = True

    def end_op(self) -> None:
        """Fold the op's spans into per-layer self times and work."""
        self.active = False
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        op = {"self": {}, "dp_table_calls": 0, "work": {}}
        for (name, start, end, _, call), child in zip(self.spans, child_time):
            self_s = end - start - child
            op["self"][name] = op["self"].get(name, 0.0) + self_s
            if name == "optimize.dp_table":
                op["dp_table_calls"] += 1
            if call is not None:
                args, kwargs, result = call
                bound = self.signatures[name].bind(*args, **kwargs)
                bound.apply_defaults()
                kind, amount = LAYERS[name](bound.arguments, result)
                acc = op["work"].setdefault((name, kind), [0, 0.0])
                acc[0] += amount
                acc[1] += self_s
        self.ops.append(op)

    def metrics(self, scales: list[float]) -> dict[str, float]:
        """Per-layer metrics over all ops, each op's times scaled by its
        entry in ``scales``; a layer the workload never calls reads 0."""
        out = {}
        for layer in SELF_METRICS:
            out[f"{layer}.self_s"] = statistics.median(
                op["self"].get(layer, 0.0) * sc for op, sc in zip(self.ops, scales)
            )
        out["optimize.dp_table.calls"] = statistics.median(op["dp_table_calls"] for op in self.ops)
        for metric, key in RATE_METRICS.items():
            amount = sum(op["work"].get(key, (0, 0.0))[0] for op in self.ops)
            seconds = sum(op["work"].get(key, (0, 0.0))[1] * sc for op, sc in zip(self.ops, scales))
            out[metric] = amount / seconds if seconds > 0 else 0.0
        return out
