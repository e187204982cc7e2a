"""One measurement process: set up a workload, then time its ops.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
numpy's thread pools held to one thread. Prints one JSON object as its
last line of stdout. With --setup-only it stops after set-up, so run.py can
take set-up time from several fresh processes.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from refpass import R0, ReferenceKernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARMUP_OPS = 2
MAX_STRETCH = 2.0  # a run may outlast --seconds up to this factor to reach --min-ops


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=["design", "study", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--min-ops", type=int, default=100)
    ap.add_argument("--population", type=int, default=150)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    return ap.parse_args(argv)


def percentile(xs, q):
    """q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def run_op(wl, item, errors):
    try:
        return wl.op(item)
    except Exception:
        errors.append(traceback.format_exc(limit=3))
        return None


def check_op(wl, item, out, errors):
    if out is None:
        return
    try:
        errors.extend(wl.check(item, out))
    except Exception:
        errors.append(traceback.format_exc(limit=3))


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
    population = {"population": args.population} if args.workload == "design" else {}
    wl = WORKLOADS[args.workload](rng, workdir, **population)
    correct = True
    for item in wl.round(0)[:WARMUP_OPS]:
        errors: list[str] = []
        check_op(wl, item, run_op(wl, item, errors), errors)
        if errors:
            correct = False
            print(f"warm-up op failed: {item!r:.80}: " + "; ".join(errors), file=sys.stderr)
    setup_raw = time.perf_counter() - SETUP_START
    kernel = ReferenceKernel()
    setup_ref = statistics.median(kernel.run() for _ in range(5))
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * R0 / setup_ref, "correct": correct}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # The benchmark's own objects (modules, decks, expected values) are frozen
    # out of the collector, so a full collection during an op scans only what
    # pooltest allocated and its pause does not grow with the deck.
    gc.freeze()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    walls, refs, ok = [], [], []  # per attempted op
    start = time.perf_counter()
    r = 0
    while True:
        for item in wl.round(r):
            errors = []
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            out = run_op(wl, item, errors)
            walls.append(time.perf_counter() - t0)
            refs.append(kernel.run())
            if tracer:
                tracer.end_op()
            check_op(wl, item, out, errors)
            ok.append(not errors)
            if errors:
                print(f"op failed: {item!r:.80}: " + "; ".join(errors), file=sys.stderr)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (len(walls) >= args.min_ops or elapsed >= MAX_STRETCH * args.seconds):
            break
    # R for op i is the median of the passes after ops i-1, i and i+1: one
    # pass alone jitters by +-10 %, far more than the host drifts in a second.
    scales = [R0 / statistics.median(refs[max(0, i - 1) : i + 2]) for i in range(len(refs))]
    raw = [w for w, good in zip(walls, ok) if good]
    scaled = [w * sc for w, sc, good in zip(walls, scales, ok) if good]
    attempted, failed = len(ok), ok.count(False)
    if not raw:
        print("every op failed", file=sys.stderr)
        return 1
    result.update(
        {
            "correct": correct and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "ops_per_s": len(scaled) / sum(scaled),
            "op_s.p50": statistics.median(scaled),
            "op_s.p90": percentile(scaled, 90),
            "raw_ops_per_s": len(raw) / sum(raw),
            "raw_op_s.p50": statistics.median(raw),
            "raw_op_s.p90": percentile(raw, 90),
            "ref_s.p50": statistics.median(refs),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer:
        result["layers"] = tracer.metrics(scales)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
