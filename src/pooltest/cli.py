"""Command-line surface for plan evaluation, optimization, oracles,
simulation, bounds, and the simulation study.

Exit codes: 0 success, 2 input or validation error, 3 enumeration guard
exceeded, 4 counterexample reproduction failure.

Probability files are either JSON ({"p": [...]}) or plain text with one
decimal per line. Plan files are JSON: {"ordered_sizes": [...]} for
contiguous blocks over the p-sorted population, or {"blocks": [[...]]}
with 1-based item indices for arbitrary disjoint groups.

One argument parser serves a process: ``build_parser`` builds it on the
first call of ``main`` and caches it, since building argparse's seven
subparsers costs more than parsing a command line. ``main`` looks up the
subcommand's ``_cmd_<name>`` handler by name on every call, so a handler
rebound after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .bounds import all_above_ungar, check_bounds, ungar_threshold
from .cost import evaluate_plan
from .model import (
    PROCEDURES,
    STERRETT_RULES,
    EmptyInputError,
    InstanceTooLargeError,
    OrderedPartition,
    OutOfRangeError,
    ProbabilityVector,
    SetPartition,
    UnknownFormatError,
    plan_from_json,
    validate_probability_vector,
)
from .optimize import dp_ordered, exhaustive_ordered, exhaustive_set
from .simulate import RngSpec, estimate_cost
from .study import DEFAULT_P_TARGETS, StudyConfig, emit_table, run_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_REPRODUCTION = 4

# Built-in instance for the counterexample command: four items whose good
# probabilities are {0.6, 0.6, 0.99, 0.99}. The optimal ORDERED partition
# keeps the two risky items apart from the two safe ones, yet pairing one
# risky with one safe item beats it, so ordered plans are not optimal for
# the sequential procedures.
COUNTEREXAMPLE_P = (0.4, 0.4, 0.01, 0.01)
COUNTEREXAMPLE_REFERENCES = (
    ("ordered-optimal S", "dp", "S", 2.83794),
    ("ordered-optimal Dp", "dp", "Dp", 2.8438),
    ("unordered-optimal S", "set", "S", 2.832),
    ("unordered-optimal Dp", "set", "Dp", 2.832),
)
COUNTEREXAMPLE_TOL = 1e-4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


@contextlib.contextmanager
def _reading(path: str):
    """Turn a failed read of ``path``, or invalid JSON in it, into an
    UnknownFormatError that names the file."""
    try:
        yield
    except OSError as e:
        raise UnknownFormatError(f"{path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise UnknownFormatError(f"{path}, line {e.lineno}: invalid JSON: {e.msg}") from e


def _read_probs(path: str) -> ProbabilityVector:
    with _reading(path):
        text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        with _reading(path):
            payload = json.loads(text)
        return ProbabilityVector.from_json(payload)
    values: list[float] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        try:
            values.append(float(s))
        except ValueError:
            raise UnknownFormatError(f"{path}, line {lineno}: not a decimal number: {s!r}")
        linenos.append(lineno)
    if not values:
        raise EmptyInputError(f"{path}: no probabilities found")
    try:
        return validate_probability_vector(values)
    except OutOfRangeError as e:
        raise UnknownFormatError(
            f"{path}, line {linenos[e.index - 1]}: probability {e.value!r} "
            f"is not strictly inside (0, 1)"
        ) from e


def _read_plan(path: str) -> OrderedPartition | SetPartition:
    with _reading(path):
        payload = json.loads(Path(path).read_text())
    return plan_from_json(payload)


def _plan_from_args(args, pv: ProbabilityVector) -> OrderedPartition | SetPartition:
    if args.single_group:
        return SetPartition(blocks=(tuple(range(pv.n)),))
    return _read_plan(args.plan)


def _cmd_eval(args) -> int:
    pv = _read_probs(args.probs)
    plan = _plan_from_args(args, pv)
    report = evaluate_plan(plan, pv, args.procedure, arrange=args.arrange)
    _print_json(report.to_json())
    return EXIT_OK


def _cmd_optimize(args) -> int:
    pv = _read_probs(args.probs)
    if args.search == "dp":
        result = dp_ordered(pv, args.procedure)
    elif args.search == "exhaustive-ordered":
        result = exhaustive_ordered(pv, args.procedure)
    else:
        result = exhaustive_set(pv, args.procedure)
    _print_json(result.to_json())
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pv = _read_probs(args.probs)
    dp = dp_ordered(pv, args.procedure)
    ordered = exhaustive_ordered(pv, args.procedure)
    unordered = exhaustive_set(pv, args.procedure)
    payload = {
        "n": pv.n,
        "procedure": args.procedure,
        "dp_total": dp.total,
        "exhaustive_ordered_total": ordered.total,
        "exhaustive_set_total": unordered.total,
        "dp_matches_exhaustive_ordered": abs(dp.total - ordered.total) <= 1e-9,
        "unordered_beats_ordered": unordered.total < dp.total - 1e-9,
        "dp_plan": dp.plan.to_json(),
        "set_plan": unordered.plan.to_json(),
    }
    _print_json(payload)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    pv = _read_probs(args.probs)
    plan = _plan_from_args(args, pv)
    summary = estimate_cost(
        plan, pv, args.procedure, args.replicates, RngSpec(seed=args.seed), arrange=args.arrange
    )
    _print_json(summary.to_json())
    return EXIT_OK


def _cmd_bounds(args) -> int:
    pv = _read_probs(args.probs)
    if args.achieved is not None:
        achieved = args.achieved
        source = "flag"
    else:
        achieved = dp_ordered(pv, "S").total
        source = "dp-ordered-S"
    report = check_bounds(pv, achieved)
    payload = report.to_json()
    payload["achieved_source"] = source
    payload["ungar_threshold"] = ungar_threshold()
    payload["all_above_ungar"] = all_above_ungar(pv)
    _print_json(payload)
    return EXIT_OK


def _cmd_study(args) -> int:
    targets = tuple(float(x) for x in args.p_list.split(",") if x.strip())
    config = StudyConfig(
        p_targets=targets,
        n=args.n,
        m=args.m,
        seed=args.seed,
        common_draws=not args.independent_draws,
        sterrett_rule=args.sterrett_rule,
    )
    # open --out before the study runs, so a bad path costs no study
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        return _fail(f"{args.out}: {e.strerror}", EXIT_INPUT)
    with out as f:
        f.write(emit_table(run_study(config), args.format, metadata=dataclasses.asdict(config)))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    pv = validate_probability_vector(COUNTEREXAMPLE_P)
    results = {
        ("dp", "S"): dp_ordered(pv, "S").total,
        ("dp", "Dp"): dp_ordered(pv, "Dp").total,
        ("set", "S"): exhaustive_set(pv, "S").total,
        ("set", "Dp"): exhaustive_set(pv, "Dp").total,
    }
    checks = []
    for name, search, proc, reference in COUNTEREXAMPLE_REFERENCES:
        computed = results[(search, proc)]
        checks.append(
            {
                "name": name,
                "computed": computed,
                "reference": reference,
                "ok": abs(computed - reference) <= COUNTEREXAMPLE_TOL,
            }
        )
    all_ok = all(c["ok"] for c in checks)
    if args.json:
        _print_json({"checks": checks, "pass": all_ok})
    else:
        for c in checks:
            verdict = "PASS" if c["ok"] else "FAIL"
            print(
                "%-22s %-14s reference %-10s %s"
                % (c["name"], "%.10g" % c["computed"], "%.10g" % c["reference"], verdict)
            )
        beats = results[("set", "S")] < results[("dp", "S")]
        print(
            "unordered pairing %s the optimal ordered plan: overall %s"
            % ("beats" if beats else "does NOT beat", "PASS" if all_ok else "FAIL")
        )
    return EXIT_OK if all_ok else EXIT_REPRODUCTION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pooltest",
        description="Design and evaluate pooled testing plans for heterogeneous risks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_probs(p):
        p.add_argument("--probs", required=True, help="probability file (JSON or one per line)")

    def add_procedure(p):
        p.add_argument(
            "--procedure",
            required=True,
            choices=PROCEDURES,
            help="D=Dorfman, Dp=modified Dorfman, S=Sterrett",
        )

    def add_plan(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--plan", help="plan file (JSON)")
        grp.add_argument(
            "--single-group", action="store_true", help="treat the whole population as one group"
        )

    def add_arrange(p):
        p.add_argument(
            "--arrange",
            choices=["given", "optimal"],
            default="optimal",
            help="cost blocks as ordered, or rearrange each optimally (default)",
        )

    p_eval = sub.add_parser("eval", help="expected tests of a plan")
    add_probs(p_eval)
    add_procedure(p_eval)
    add_plan(p_eval)
    add_arrange(p_eval)

    p_opt = sub.add_parser("optimize", help="search for a minimum-cost plan")
    add_probs(p_opt)
    add_procedure(p_opt)
    p_opt.add_argument(
        "--search",
        choices=["dp", "exhaustive-ordered", "exhaustive-set"],
        default="dp",
    )

    p_oracle = sub.add_parser(
        "oracle", help="cross-check the DP against exhaustive enumeration"
    )
    add_probs(p_oracle)
    add_procedure(p_oracle)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of a plan's cost")
    add_probs(p_sim)
    add_procedure(p_sim)
    add_plan(p_sim)
    add_arrange(p_sim)
    p_sim.add_argument("--replicates", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=1)

    p_bounds = sub.add_parser("bounds", help="entropy and prefix-code lower bounds")
    add_probs(p_bounds)
    p_bounds.add_argument(
        "--achieved",
        type=float,
        default=None,
        help="plan cost to check; defaults to the DP-optimal Sterrett total",
    )

    p_study = sub.add_parser("study", help="simulation study over Beta-distributed risks")
    p_study.add_argument(
        "--p-list",
        default=",".join(str(p) for p in DEFAULT_P_TARGETS),
        help="comma-separated target mean risks",
    )
    p_study.add_argument("--n", type=int, default=100)
    p_study.add_argument("--m", type=int, default=200)
    p_study.add_argument("--seed", type=int, default=1)
    p_study.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p_study.add_argument("--out", default=None, help="output file (default stdout)")
    p_study.add_argument(
        "--independent-draws",
        action="store_true",
        help="draw separate risk vectors per procedure instead of sharing them",
    )
    p_study.add_argument(
        "--sterrett-rule",
        choices=STERRETT_RULES,
        default="smallest-last",
        help="within-block arrangement for the S column; smallest-last "
        "reproduces published tables, optimal is strictly better",
    )

    p_ce = sub.add_parser(
        "counterexample",
        help="reproduce the built-in instance where no ordered plan is optimal",
    )
    p_ce.add_argument("--json", action="store_true", help="machine-readable verdict")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up when called, so a rebound _cmd_* takes effect
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except InstanceTooLargeError as e:
        return _fail(str(e), EXIT_GUARD)
    except (ValueError, TypeError) as e:
        return _fail(str(e), EXIT_INPUT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
