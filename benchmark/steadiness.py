"""Steadiness report: do two sets of runs of the same commit agree?

    python3 benchmark/steadiness.py

Runs run.py RUNS times in each of two sets on every workload of
BENCHMARK.json for its run_seconds, each run with its own seed (set s,
run i uses seed 100 * s + i + 1), interleaving the workloads so
that slow drift of the host falls on all of them alike. For each end-to-end
metric it prints, per set, the median and quartiles, the spread (Q3 - Q1) /
median, and the second median's change against the first in the metric's
worse direction, each beside the metric's bound in BENCHMARK.json. The
share of failed ops per set is printed too. Then one traced run per
workload gives the per-layer figures and the tracing overhead (traced
op_s.p50 minus the untraced median). Everything is also written to
benchmark/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    raw = next((json.loads(x[4:]) for x in lines if x.startswith("raw ")), {})
    return json.loads(lines[-1]), raw


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                out, raw = run(w, 100 * s + i + 1, seconds, 0)
                results[w][s].append({"out": out, "raw": raw})
                m = out["metrics"]
                print(f"set {s} run {i} {w:7s} op_s.p50 {m['op_s.p50']['value']:.5g} "
                      f"(raw {raw.get('op_s.p50', float('nan')):.5g}) setup_s {m['setup_s']['value']:.4g} "
                      f"failed {out['failed']}/{out['attempted']}", flush=True)

    report = {"runs": results, "summary": {}, "traced": {}}
    worst = 0.0
    for w in workloads:
        print(f"\n== {w}")
        shares = [sum(r["out"]["failed"] for r in runs) / sum(r["out"]["attempted"] for r in runs)
                  for runs in results[w]]
        print(f"failed share per set: {shares}")
        for name, b in bounds.items():
            sets = [[r["out"]["metrics"][name]["value"] for r in runs] for runs in results[w]]
            rows = [quartiles(v) for v in sets]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in rows]
            sign = 1.0 if b["better"] == "lower" else -1.0
            drift = sign * (rows[1][1] / rows[0][1] - 1.0)
            cells = "  ".join(f"set{s}: {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {sp:.3f}"
                              for s, ((q1, q2, q3), sp) in enumerate(zip(rows, spreads)))
            print(f"{name:13s} {cells}  worse-by {drift:+.3f}  bound {b['bound']}")
            report["summary"].setdefault(w, {})[name] = {
                "quartiles": rows, "spreads": spreads, "worse_by": drift, "bound": b["bound"]}
            if name != "setup_s":
                worst = max(worst, max(spreads) / b["bound"])
            worst = max(worst, drift / b["bound"])
        raw = [[r["raw"].get("op_s.p50") for r in runs] for runs in results[w]]
        if all(None not in v for v in raw):
            print("raw op_s.p50 per set: " + "  ".join(
                f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in map(quartiles, raw)))
    print(f"\nlargest spread or drift as a share of its bound: {worst:.3f}")

    for w in workloads:
        out, _ = run(w, 1, seconds, 1)
        untraced = statistics.median(
            r["out"]["metrics"]["op_s.p50"]["value"] for runs in results[w] for r in runs)
        traced = out["metrics"]["trace.op_s.p50"]["value"]
        report["traced"][w] = {"metrics": out["metrics"], "overhead_s": traced - untraced}
        print(f"\n== {w} traced (seed 1): overhead {traced - untraced:+.4g} s on op_s.p50 {untraced:.4g} s")
        for name, m in out["metrics"].items():
            print(f"  {name:46s} {m['value']:.6g} {m['unit']}")

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
