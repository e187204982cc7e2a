"""Byte-for-byte CLI outputs on two small committed inputs.

Each case runs one command and compares its stdout with a committed file
in ``tests/golden``. A case that reads a probability file runs on each
input there and is compared with ``<input>.<case>.json``; a case that
reads none (``counterexample``, ``study``) runs once and is compared with
``<case>.json``, or ``<case>.csv`` for csv output. ``tied8`` has tied
risks, so the tie-breaking of arrangements and plan searches shows up in
the outputs too. ``deck150`` holds 150 risks drawn as
``numpy.random.default_rng(150).beta(1, 19, 150)`` and written with 17
significant digits; only the plan searches run on it, and their blocks of
up to 31 items pin long arrangements byte for byte. ``study-n1000`` runs
the study on 1000 items, whose D and Dp rows end at the width cut. After a
change that is meant to alter an output,
regenerate the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py [CASE_ID ...]

naming the cases it should alter by their test ids (for example
``mixed9-simulate-D`` or ``study-json``; none rewrites every golden), and
review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pooltest.cli import main
from pooltest.model import STERRETT_RULES

GOLDEN = Path(__file__).with_name("golden")
INPUTS = ("mixed9", "tied8")
LARGE_INPUT = "deck150"
CASES = {
    **{f"optimize-{p}": ["optimize", "--procedure", p] for p in ("D", "Dp", "S")},
    **{
        f"eval-{p}-{a}": ["eval", "--procedure", p, "--single-group", "--arrange", a]
        for p in ("D", "Dp", "S")
        for a in ("given", "optimal")
    },
    **{f"oracle-{p}": ["oracle", "--procedure", p] for p in ("D", "Dp", "S")},
    **{
        f"exhaustive-{kind}-{p}": ["optimize", "--procedure", p, "--search", f"exhaustive-{kind}"]
        for kind in ("set", "ordered")
        for p in ("D", "Dp", "S")
    },
    **{
        f"simulate-{p}": [
            "simulate", "--procedure", p, "--single-group", "--replicates", "300", "--seed", "5"
        ]
        for p in ("D", "Dp", "S")
    },
    "bounds": ["bounds"],
}
# cases that read no probability file
NO_INPUT_CASES = {
    "counterexample": ["counterexample", "--json"],
    **{
        f"study-{r}": ["study", "--m", "5", "--n", "12", "--format", "csv", "--sterrett-rule", r]
        for r in STERRETT_RULES
    },
    **{
        f"study-independent-{r}": [
            "study", "--m", "5", "--n", "12", "--format", "csv", "--independent-draws",
            "--sterrett-rule", r,
        ]
        for r in STERRETT_RULES
    },
    "study-json": ["study", "--m", "5", "--n", "12", "--format", "json"],
    "study-n1000": [
        "study", "--n", "1000", "--m", "3", "--p-list", "0.1,0.3", "--format", "csv",
        "--sterrett-rule", "optimal", "--seed", "5",
    ],
}


def run(name: str | None, case: str) -> str:
    if name is None:
        argv = NO_INPUT_CASES[case]
    else:
        argv = [*CASES[case], "--probs", str(GOLDEN / f"{name}.json")]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def golden(name: str | None, case: str) -> Path:
    if name is None:
        suffix = ".csv" if "csv" in NO_INPUT_CASES[case] else ".json"
        return GOLDEN / f"{case}{suffix}"
    return GOLDEN / f"{name}.{case}.json"


RUNS = [
    *[(name, case) for name in INPUTS for case in CASES],
    *[(LARGE_INPUT, f"optimize-{p}") for p in ("D", "Dp", "S")],
    *[(None, case) for case in NO_INPUT_CASES],
]
IDS = [f"{n}-{c}" if n else c for n, c in RUNS]


@pytest.mark.parametrize("name, case", RUNS, ids=IDS)
def test_output_matches_golden(name, case):
    assert run(name, case) == golden(name, case).read_text()


if __name__ == "__main__":
    chosen = sys.argv[1:] or IDS
    unknown = sorted(set(chosen) - set(IDS))
    if unknown:
        sys.exit(f"unknown case ids: {', '.join(unknown)}")
    for (name, case), case_id in zip(RUNS, IDS):
        if case_id in chosen:
            golden(name, case).write_text(run(name, case))
