"""Benchmark of pooltest: run one workload and print its metrics.

    python3 benchmark/run.py --workload {design,study,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; pooltest is imported from its src/. Set-up
is measured in SETUP_RUNS fresh processes plus the measuring one, and the
median is reported. The measuring process times whole rounds of ops until
--seconds have passed and at least --min-ops ops ran. Times are printed in
reference-scaled seconds (see refpass.py), with raw wall seconds beside
them. The last line of stdout is the JSON result; with --trace 1 its
metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 4
CHILD_TIMEOUT = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def child(args, extra: list[str]) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    workdir = HERE / "out" / f"inputs-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--min-ops", str(args.min_ops),
        "--population", str(args.population), "--workdir", str(workdir), *extra,
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"measurement process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["design", "study", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--min-ops", type=int, default=100, help="ops a run reaches before it may stop")
    ap.add_argument("--population", type=int, default=150, help="items per design population")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pooltest" / "__init__.py").is_file():
        print(f"error: no pooltest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = [] if args.trace else [child(args, ["--setup-only"]) for _ in range(SETUP_RUNS)]
    main_run = child(args, [])
    setups.append(main_run)
    correct = main_run["correct"] and all(s["correct"] for s in setups)

    if args.trace:
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in main_run["layers"].items()}
        metrics["trace.op_s.p50"] = {"value": main_run["op_s.p50"], "unit": "s"}
        for name, m in metrics.items():
            print(f"{name:46s} {m['value']:12.6g} {m['unit']}")
    else:
        main_run["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        main_run["raw_setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        metrics = {name: {"value": main_run[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw = {name: main_run["raw_" + name] for name in ("ops_per_s", "op_s.p50", "op_s.p90", "setup_s")}
        for name, value in raw.items():
            print(f"{name:14s} {main_run[name]:12.6g} {END_TO_END[name]:4s} (raw {value:.6g})")
        print(f"{'peak_rss_mib':14s} {main_run['peak_rss_mib']:12.6g} MiB")
        print(f"reference pass median {main_run['ref_s.p50'] * 1e3:.4g} ms")
        print("raw " + json.dumps(raw))
    print(f"attempted {main_run['attempted']}  failed {main_run['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return "count" if metric.endswith(".calls") else "s"


if __name__ == "__main__":
    sys.exit(main())
