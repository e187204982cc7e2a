"""Command-line surface for plan evaluation, optimization, oracles,
simulation, bounds, and the simulation study.

Exit codes: 0 success, 2 input or validation error, 3 enumeration guard
exceeded or memory that cannot be allocated, 4 counterexample reproduction
failure, 141 (128 + SIGPIPE, as a shell reports a process the signal ended)
stdout closed by its reader.
Only the console script ``entry`` turns a closed stdout into 141; ``main``,
called in process, lets the BrokenPipeError through.

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
import os
import reprlib
import sys
from pathlib import Path

from .bounds import UNGAR_THRESHOLD, all_above_ungar, check_bounds
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
    json_text,
    plan_from_json,
    validate_probability_vector,
)
from .optimize import dp_ordered, exhaustive_ordered, exhaustive_set
from .simulate import estimate_cost
from .study import StudyConfig, emit_table, run_study

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
    ("unordered-optimal S", "exhaustive-set", "S", 2.832),
    ("unordered-optimal Dp", "exhaustive-set", "Dp", 2.832),
)
COUNTEREXAMPLE_TOL = 1e-4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _searches() -> dict:
    """The plan searches by name. Built on every call, so that a search
    rebound in this module is the one called."""
    return {"dp": dp_ordered, "exhaustive-ordered": exhaustive_ordered, "exhaustive-set": exhaustive_set}


@contextlib.contextmanager
def _reading(path: str):
    """Turn a failed open or read of ``path``, text in it that is not UTF-8,
    or invalid or too deeply nested JSON in it into an UnknownFormatError
    that names the file."""
    try:
        yield
    except OSError as e:
        raise UnknownFormatError(f"{path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise UnknownFormatError(f"{path}, byte {e.start + 1}: not UTF-8 text") from e
    except json.JSONDecodeError as e:
        raise UnknownFormatError(f"{path}, line {e.lineno}: invalid JSON: {e.msg}") from e
    except RecursionError as e:
        raise UnknownFormatError(f"{path}: JSON nested too deeply") from e


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path`` without a leading byte-order mark. It is
    not decoded as "utf-8-sig", which would count the byte a decode error
    names from after the mark."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def _read_probs(path: str) -> ProbabilityVector:
    with _reading(path):
        text = _read_text(path)
        if text.lstrip().startswith("{"):
            return ProbabilityVector.from_json(json.loads(text))
    values: list[float] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        try:
            values.append(float(s))
        except ValueError:
            raise UnknownFormatError(f"{path}, line {lineno}: not a decimal number: {reprlib.repr(s)}")
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


def _plan_from_args(args, pv: ProbabilityVector) -> OrderedPartition | SetPartition:
    if args.single_group:
        return SetPartition(blocks=(tuple(range(pv.n)),))
    with _reading(args.plan):
        payload = json.loads(_read_text(args.plan))
    return plan_from_json(payload)


def _cmd_eval(args) -> int:
    pv = _read_probs(args.probs)
    plan = _plan_from_args(args, pv)
    report = evaluate_plan(plan, pv, args.procedure, arrange=args.arrange)
    print(json_text(report.to_json()))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    result = _searches()[args.search](_read_probs(args.probs), args.procedure)
    print(json_text(result.to_json()))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pv = _read_probs(args.probs)
    unordered = exhaustive_set(pv, args.procedure)  # the tightest guard: refuses before any search
    dp, ordered = dp_ordered(pv, args.procedure), exhaustive_ordered(pv, args.procedure)
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
    print(json_text(payload))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    pv = _read_probs(args.probs)
    plan = _plan_from_args(args, pv)
    summary = estimate_cost(plan, pv, args.procedure, args.replicates, args.seed, arrange=args.arrange)
    print(json_text(summary.to_json()))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    pv = _read_probs(args.probs)
    achieved, source = args.achieved, "flag"
    if achieved is None:
        achieved, source = dp_ordered(pv, "S").total, "dp-ordered-S"
    report = check_bounds(pv, achieved)
    payload = report.to_json()
    payload["achieved_source"] = source
    payload["ungar_threshold"] = UNGAR_THRESHOLD
    payload["all_above_ungar"] = all_above_ungar(pv)
    print(json_text(payload))
    return EXIT_OK


def _cmd_study(args) -> int:
    config = StudyConfig(
        p_targets=[x for x in args.p_list.split(",") if x.strip()],
        n=args.n,
        m=args.m,
        seed=args.seed,
        common_draws=not args.independent_draws,
        sterrett_rule=args.sterrett_rule,
    )
    # --out is held open through the study, so a bad path costs no study and
    # a refused one leaves an existing file as it was and removes one this
    # open made; the table goes through a second handle, which a pipe's
    # reader, kept open by the first, awaits
    held, made = contextlib.nullcontext(), False
    if args.out:
        with _reading(args.out):
            try:
                held, made = open(args.out, "x"), True
            except FileExistsError:
                held = open(args.out, "a")
    try:
        with held:
            table = emit_table(run_study(config), args.format, metadata=dataclasses.asdict(config))
            if args.out:
                with _reading(args.out), open(args.out, "w") as f:
                    f.write(table)
            else:
                sys.stdout.write(table)
    except BaseException:
        if made:
            Path(args.out).unlink(missing_ok=True)
        raise
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    pv = validate_probability_vector(COUNTEREXAMPLE_P)
    searches = _searches()
    checks = []
    for name, search, proc, reference in COUNTEREXAMPLE_REFERENCES:
        computed = searches[search](pv, proc).total
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
        print(json_text({"checks": checks, "pass": all_ok}))
    else:
        for c in checks:
            verdict = "PASS" if c["ok"] else "FAIL"
            print(
                "%-22s %-14s reference %-10s %s"
                % (c["name"], "%.10g" % c["computed"], "%.10g" % c["reference"], verdict)
            )
        totals = {c["name"]: c["computed"] for c in checks}
        beats = totals["unordered-optimal S"] < totals["ordered-optimal S"]
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

    # the arguments several subcommands share, each declared once
    probs = argparse.ArgumentParser(add_help=False)
    probs.add_argument("--probs", required=True, help="probability file (JSON or one per line)")
    procedure = argparse.ArgumentParser(add_help=False)
    procedure.add_argument(
        "--procedure",
        required=True,
        choices=PROCEDURES,
        help="D=Dorfman, Dp=modified Dorfman, S=Sterrett",
    )
    plan = argparse.ArgumentParser(add_help=False)
    grp = plan.add_mutually_exclusive_group(required=True)
    grp.add_argument("--plan", help="plan file (JSON)")
    grp.add_argument(
        "--single-group", action="store_true", help="treat the whole population as one group"
    )
    plan.add_argument(
        "--arrange",
        choices=["given", "optimal"],
        default="optimal",
        help="cost blocks as ordered, or rearrange each optimally (default)",
    )

    sub.add_parser("eval", help="expected tests of a plan", parents=[probs, procedure, plan])

    p_opt = sub.add_parser(
        "optimize", help="search for a minimum-cost plan", parents=[probs, procedure]
    )
    p_opt.add_argument("--search", choices=list(_searches()), default="dp")

    sub.add_parser(
        "oracle", help="cross-check the DP against exhaustive enumeration", parents=[probs, procedure]
    )

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo estimate of a plan's cost", parents=[probs, procedure, plan]
    )
    p_sim.add_argument("--replicates", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=1)

    p_bounds = sub.add_parser("bounds", help="entropy and prefix-code lower bounds", parents=[probs])
    p_bounds.add_argument(
        "--achieved",
        type=float,
        default=None,
        help="plan cost to check; defaults to the DP-optimal Sterrett total",
    )

    p_study = sub.add_parser("study", help="simulation study over Beta-distributed risks")
    p_study.add_argument(
        "--p-list",
        default=",".join(map(str, StudyConfig.p_targets)),
        help="comma-separated target mean risks",
    )
    p_study.add_argument("--n", type=int, default=StudyConfig.n)
    p_study.add_argument("--m", type=int, default=StudyConfig.m)
    p_study.add_argument("--seed", type=int, default=StudyConfig.seed)
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
        default=StudyConfig.sterrett_rule,
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
    except MemoryError as e:
        return _fail(f"not enough memory: {e}" if str(e) else "not enough memory", EXIT_GUARD)
    except (ValueError, TypeError) as e:
        return _fail(str(e), EXIT_INPUT)


def entry() -> None:
    # the recipe of the Python ``signal`` docs: flush inside the try, and
    # point stdout at devnull so the flush at exit cannot raise again
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
