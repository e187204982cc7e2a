"""Time the library's layers in a change and its parent, in one process.

    python3 scripts/bench_layers.py --parent DIR --change DIR --rounds R --out FILE

Each DIR is a checkout, one of the parent and one of the change. Both
trees' ``src/pooltest`` are imported into this one process, as the
packages ``pooltest_parent`` and ``pooltest_change``, and ``cases()``
builds each tree's fixed table of cases from its own package and the same
fixed seeds, so both trees get the same inputs. For round i = 1..R
(R >= 2), case by case, both trees' calls are timed side by side: the
loops of the two trees alternate, each loop enough calls to last 40 ms,
and a tree's time is its best of five loops. The parent's loop comes
first in the first loop of odd rounds and the change's in even rounds,
and the first tree alternates from loop to loop, so a slow phase of the
host falls on both trees alike. Each round also reduces each tree's
result to a digest (totals, plans, L, mean and SE, with every float's
repr).

The cases call the public API, except ``tables.dp_totals``, which has no
public entry but ``run_study`` and is called by its module path.

FILE gets a ``layers`` section, added to the JSON object already in FILE
(such as ``bench_pairs.py``'s output) or to a new one: ``harness`` and
``machine`` as ``bench_pairs.py`` writes them, and per case both medians
over the rounds, the change's relative change, the rounds the change won
(faster; a tie wins for neither), the quartile spread of the parent's
rounds in seconds, whether the two trees' results were bit-identical in
every round, and every round's time. A full run at R = 3 takes about
three minutes on two vCPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, machine  # noqa: E402

MIN_LOOP_S = 0.04
LOOPS = 5


def load(tree: Path, name: str):
    """Import ``tree``'s ``src/pooltest`` as the package ``name``, registered
    in ``sys.modules`` under that name, so two trees can share a process."""
    src = (tree / "src" / "pooltest").resolve()
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == name and not Path(module.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"{name} imported {module.__file__}, outside {tree}")
    return package


def schedule(rounds: int, names: list[str]) -> list[tuple[int, str, str]]:
    """The cases in the order they are timed, as (round, case, tree first)."""
    return [(i, name, SIDES[1 - i % 2]) for i in range(1, rounds + 1) for name in names]


def cases(pt) -> dict:
    """The cases by name, each a call of no arguments into the package
    ``pt`` and a function that reduces its result to plain values."""

    def risks(n, seed, lo=1e-4, hi=0.3):
        rng = random.Random(seed)
        return pt.validate_probability_vector([rng.uniform(lo, hi) for _ in range(n)])

    def plan(r):
        return r.total, r.plan.to_json()

    table = {}
    for k in (4, 12, 60):
        pv = risks(k, k)
        group = pt.Group(items=tuple(range(k)))
        for proc in pt.PROCEDURES:
            table[f"arranged_cost {proc} k={k}"] = (
                lambda g=group, pv=pv, proc=proc: pt.arranged_cost(g, pv, proc),
                lambda r: (r[0].items, r[1]),
            )
            table[f"group_cost {proc} k={k}"] = (lambda g=group, pv=pv, proc=proc: pt.group_cost(g, pv, proc), float)
    for n in (100, 400, 1000):
        for shape, pv in (("uniform", risks(n, n)), ("equal-0.01", pt.validate_probability_vector([0.01] * n))):
            pv = pt.sort_ascending(pv)[0]
            for proc, rule in (("D", "optimal"), ("Dp", "optimal"), ("S", "optimal"), ("S", "smallest-last")):
                name = proc if proc != "S" else f"S {rule}"
                table[f"dp_table {name} N={n} {shape}"] = (
                    lambda pv=pv, proc=proc, rule=rule: pt.dp_table(pv, proc, rule),
                    lambda t: (t.cost_to_go, t.split),
                )
    for n, m in ((100, 10), (100, 1000), (2800, 2)):
        p = np.sort(np.random.default_rng(m).uniform(1e-4, 0.3, (m, n)))
        q = 1.0 - p  # rows descending, as dp_totals reads them
        for proc in pt.PROCEDURES:
            table[f"tables.dp_totals {proc} n={n} m={m}"] = (
                lambda q=q, proc=proc: pt.tables.dp_totals(q, proc),
                lambda t: t.tolist(),
            )
    for search, n in ((pt.exhaustive_ordered, 16), (pt.exhaustive_set, 12)):
        pv = risks(n, n)
        for proc in pt.PROCEDURES:
            table[f"{search.__name__} {proc} N={n}"] = (lambda s=search, pv=pv, proc=proc: s(pv, proc), plan)
    pv = risks(16, 16)
    table["exact_expected_tests S k=16"] = (
        lambda: pt.exact_expected_tests(pt.Group(items=tuple(range(16))), pv, "S"),
        lambda x: x,
    )
    pv14 = risks(14, 14)
    whole = pt.OrderedPartition(sizes=(14,))
    table["estimate_cost S N=14 m=1200"] = (
        lambda: pt.estimate_cost(whole, pv14, "S", 1200, 1),
        lambda s: (s.mean_tests, s.std_error, s.expected_total),
    )
    for n in (14, 20):
        pv = risks(n, n, 0.01, 0.1)
        table[f"huffman_length N={n}"] = (lambda pv=pv: pt.huffman_length(pv), lambda x: x)
    return table


def loop(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return time.perf_counter() - start


def time_case(calls: dict, first: str) -> dict:
    """Seconds a call of each tree's ``calls[side]``, the best of ``LOOPS``
    loops of at least ``MIN_LOOP_S`` after the loops that size them; the
    trees' loops alternate, ``first`` first in the first loop, the other
    tree first in the second, and so on."""
    order = (first, SIDES[SIDES.index(first) - 1])
    n = 1
    while min(loop(calls[side], n) for side in order) < MIN_LOOP_S:
        n *= 2
    best = {side: float("inf") for side in SIDES}
    for k in range(LOOPS):
        for side in order if k % 2 == 0 else order[::-1]:
            best[side] = min(best[side], loop(calls[side], n))
    return {side: best[side] / n for side in SIDES}


def summarize(runs: dict) -> dict:
    """The per-case part of the ``layers`` section.

    ``runs[side]`` lists the rounds of ``side`` ("parent" or "change") in
    order, each mapping a case name to its ``seconds`` a call and the
    ``digest`` of its result.
    """
    rounds = len(runs["parent"])
    summary = {}
    for name in runs["parent"][0]:
        times = {side: [r[name]["seconds"] for r in runs[side]] for side in SIDES}
        parent, change = (statistics.median(times[side]) for side in SIDES)
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        q1, _, q3 = statistics.quantiles(times["parent"], n=4)
        digests = {r[name]["digest"] for side in SIDES for r in runs[side]}
        summary[name] = {
            "parent_median_s": parent,
            "change_median_s": change,
            "median_change_rel": change / parent - 1.0,
            "change_wins": f"{wins}/{rounds}",
            "parent_iqr": q3 - q1,
            "bit_identical": len(digests) == 1,
            "seconds": times,
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--rounds", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, for the parent's quartiles")
    trees = {"parent": args.parent, "change": args.change}
    tables = {side: cases(load(trees[side], f"pooltest_{side}")) for side in SIDES}
    runs = {side: [{} for _ in range(args.rounds)] for side in SIDES}
    for i, name, first in schedule(args.rounds, list(tables["parent"])):
        seconds = time_case({side: tables[side][name][0] for side in SIDES}, first)
        for side in SIDES:
            call, reduce = tables[side][name]
            digest = hashlib.sha256(repr(reduce(call())).encode()).hexdigest()[:16]
            runs[side][i - 1][name] = {"seconds": seconds[side], "digest": digest}
        print(f"round {i} {name}: {seconds['parent']:.3g} s parent, {seconds['change']:.3g} s change", flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["layers"] = {
        "harness": f"python3 scripts/bench_layers.py --rounds {args.rounds}: both trees in one process, "
        f"case by case; each case timed per tree as the best of {LOOPS} loops of at least {MIN_LOOP_S:g} s, "
        f"per call, the trees' loops alternating, parent first in the first loop of odd rounds and change "
        f"first in that of even ones",
        "machine": machine(),
        "cases": summarize(runs),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
