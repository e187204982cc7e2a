"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pairs N \
        --seconds S --out FILE

Each DIR is a checkout, one of the parent and one of the change. For pair
i = 1..N and each workload of the change's BENCHMARK.json, in that order,
it runs

    python3 benchmark/run.py --workload W --seed i --seconds S --trace 0

in both checkouts, the parent first on odd i and the change first on even
i, so that a drift of the host falls on both sides alike, and reads the
JSON result on the last line of each run's stdout. FILE gets the layout of
the BENCH_<n>.json files: per workload, the failed and attempted ops of
each side and, per end-to-end metric, both medians, the change's relative
change, the pairs the change won (a tie wins for neither), the quartile
spread of the parent's runs, whether the change is within the metric's
bound, and every run's value in pair order. Exits 1 if any run is not
correct. Reads benchmark/ and BENCHMARK.json in each checkout and changes
neither.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def schedule(pairs: int, workloads: list[str]) -> list[tuple[int, str, str]]:
    """The runs in the order they are made, as (seed, workload, side)."""
    return [
        (i, w, side)
        for i in range(1, pairs + 1)
        for w in workloads
        for side in (SIDES if i % 2 else SIDES[::-1])
    ]


def summarize(results: dict, end_to_end: list[dict]) -> dict:
    """The ``end_to_end`` section of a BENCH file.

    ``results[workload][side]`` lists the run results of ``side`` ("parent"
    or "change") in pair order, each the JSON object ``benchmark/run.py``
    prints last; ``end_to_end`` is BENCHMARK.json's list of end-to-end
    metrics, each with its ``better`` direction and its ``bound`` on the
    relative change of the median.
    """
    summary = {}
    for workload, sides in results.items():
        pairs = len(sides["parent"])
        metrics = {}
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            worse = 1.0 if spec["better"] == "lower" else -1.0  # sign of a worse change
            runs = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES}
            parent, change = (statistics.median(runs[side]) for side in SIDES)
            rel = change / parent - 1.0
            q1, _, q3 = statistics.quantiles(runs["parent"], n=4)
            wins = sum(worse * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
            metrics[name] = {
                "better": spec["better"],
                "bound": bound,
                "parent_median": parent,
                "change_median": change,
                "median_change_rel": rel,
                "change_wins": f"{wins}/{pairs}",
                "parent_iqr": q3 - q1,
                "within_bound": worse * rel <= bound,
                "runs": runs,
            }
        summary[workload] = {
            "pairs": pairs,
            "seeds": list(range(1, pairs + 1)),
            "failed_ops": {
                side: "%d of %d" % (sum(r["failed"] for r in sides[side]),
                                    sum(r["attempted"] for r in sides[side]))
                for side in SIDES
            },
            "metrics": metrics,
        }
    return summary


def machine() -> str:
    return f"Python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}, {os.cpu_count()} vCPUs"


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the parent's quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {"parent": args.parent, "change": args.change}

    results = {w: {side: [] for side in SIDES} for w in workloads}
    correct = True
    for seed, workload, side in schedule(args.pairs, workloads):
        result = run(trees[side], workload, seed, args.seconds)
        results[workload][side].append(result)
        correct &= result["correct"]
        print(f"pair {seed} {workload:7s} {side:7s} op_s.p50 {result['metrics']['op_s.p50']['value']:.6g}"
              f" failed {result['failed']}/{result['attempted']} correct {result['correct']}", flush=True)

    report = {
        "harness": f"python3 scripts/bench_pairs.py --pairs {args.pairs} --seconds {args.seconds:g}: "
        f"python3 benchmark/run.py --workload W --seed i --seconds {args.seconds:g} --trace 0 for "
        f"i = 1..{args.pairs}, each workload in turn, parent first on odd i and change first on even i",
        "machine": machine(),
        "claim": None,
        "end_to_end": summarize(results, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
