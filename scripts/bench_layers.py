"""Time the library's layers in a change and its parent, in alternating rounds.

    python3 scripts/bench_layers.py --parent DIR --change DIR --rounds R --out FILE

Each DIR is a checkout, one of the parent and one of the change. For round
i = 1..R it runs this script as a child once in each checkout, the parent
first on odd i and the change first on even i, as ``bench_pairs.py`` does.
A child imports only its checkout's ``src``, builds the fixed table of
cases in ``cases()`` from fixed seeds, so both trees get the same inputs,
and times each case's call: the best of five loops, each of enough calls
to last 40 ms. It prints, per case, the seconds a call and a digest of the
call's result (totals, plans, L, mean and SE, with every float's repr).

The cases call the public API, except ``tables.dp_totals``, which has no
public entry but ``run_study`` and is called by its module path.

FILE gets a ``layers`` section, added to the JSON object already in FILE
(such as ``bench_pairs.py``'s output) or to a new one: ``harness`` and
``machine`` as ``bench_pairs.py`` writes them, and per case both medians
over the rounds, the change's relative change, the rounds the change won
(faster; a tie wins for neither), whether the two trees' results were
bit-identical in every round, and every round's time. A full run at R = 5
takes about three minutes on two vCPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, machine  # noqa: E402

MIN_LOOP_S = 0.04
LOOPS = 5


def schedule(rounds: int) -> list[tuple[int, str]]:
    """The child runs in the order they are made, as (round, side)."""
    return [(i, side) for i in range(1, rounds + 1) for side in (SIDES if i % 2 else SIDES[::-1])]


def cases() -> dict:
    """The cases by name, each a call of no arguments and a function that
    reduces its result to plain values."""
    import numpy as np

    import pooltest as pt
    from pooltest.tables import dp_totals  # no public entry but run_study

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
    for n in (100, 400, 1000):
        for shape, pv in (("uniform", risks(n, n)), ("equal-0.01", pt.validate_probability_vector([0.01] * n))):
            pv = pt.sort_ascending(pv)[0]
            for proc, rule in (("D", "optimal"), ("Dp", "optimal"), ("S", "optimal"), ("S", "smallest-last")):
                name = proc if proc != "S" else f"S {rule}"
                table[f"dp_table {name} N={n} {shape}"] = (
                    lambda pv=pv, proc=proc, rule=rule: pt.dp_table(pv, proc, rule),
                    lambda t: (t.cost_to_go, t.split),
                )
    for m in (10, 1000):
        p = np.sort(np.random.default_rng(m).uniform(1e-4, 0.3, (m, 100)))
        q = 1.0 - p  # rows descending, as dp_totals reads them
        for proc in pt.PROCEDURES:
            table[f"tables.dp_totals {proc} n=100 m={m}"] = (
                lambda q=q, proc=proc: dp_totals(q, proc),
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


def time_call(call) -> float:
    """Seconds a call, the best of ``LOOPS`` loops of at least ``MIN_LOOP_S``."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_LOOP_S:
            break
        calls *= 2
    best = elapsed
    for _ in range(LOOPS - 1):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls


def child() -> dict:
    import pooltest

    out = {}
    for name, (call, reduce) in cases().items():
        digest = hashlib.sha256(repr(reduce(call())).encode()).hexdigest()[:16]
        out[name] = {"seconds": time_call(call), "digest": digest}
    return {"pooltest": pooltest.__file__, "cases": out}


def summarize(runs: dict) -> dict:
    """The per-case part of the ``layers`` section.

    ``runs[side]`` lists the child outputs of ``side`` ("parent" or
    "change") in round order, each mapping a case name to its ``seconds``
    a call and the ``digest`` of its result.
    """
    rounds = len(runs["parent"])
    summary = {}
    for name in runs["parent"][0]:
        times = {side: [r[name]["seconds"] for r in runs[side]] for side in SIDES}
        parent, change = (statistics.median(times[side]) for side in SIDES)
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        digests = {r[name]["digest"] for side in SIDES for r in runs[side]}
        summary[name] = {
            "parent_median_s": parent,
            "change_median_s": change,
            "median_change_rel": change / parent - 1.0,
            "change_wins": f"{wins}/{rounds}",
            "bit_identical": len(digests) == 1,
            "seconds": times,
        }
    return summary


def run(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout)
    if not Path(result["pooltest"]).is_relative_to(tree.resolve()):
        raise RuntimeError(f"the child for {tree} imported {result['pooltest']}")
    return result["cases"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path, help="checkout of the parent")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    if None in (args.parent, args.change, args.rounds, args.out):
        ap.error("--parent, --change, --rounds and --out are required")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for i, side in schedule(args.rounds):
        runs[side].append(run(trees[side]))
        print(f"round {i} {side} done", flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["layers"] = {
        "harness": f"python3 scripts/bench_layers.py --rounds {args.rounds}: one child per tree and round, "
        f"parent first on odd rounds and change first on even ones; each case timed as the best of "
        f"{LOOPS} loops of at least {MIN_LOOP_S:g} s, per call",
        "machine": machine(),
        "cases": summarize(runs),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
