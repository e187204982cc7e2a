"""Byte-for-byte CLI outputs on two small committed inputs.

Each case runs one command on a probability file in ``tests/golden`` and
compares its stdout with the committed ``<input>.<case>.json`` beside it.
``tied8`` has tied risks, so the tie-breaking of arrangements and plan
searches shows up in the outputs too. After a change that is meant to
alter an output, regenerate the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pooltest.cli import main

GOLDEN = Path(__file__).with_name("golden")
INPUTS = ("mixed9", "tied8")
CASES = {
    **{f"optimize-{p}": ["optimize", "--procedure", p] for p in ("D", "Dp", "S")},
    **{
        f"eval-{p}-{a}": ["eval", "--procedure", p, "--single-group", "--arrange", a]
        for p in ("D", "Dp", "S")
        for a in ("given", "optimal")
    },
    **{f"oracle-{p}": ["oracle", "--procedure", p] for p in ("D", "Dp", "S")},
    **{
        f"exhaustive-set-{p}": ["optimize", "--procedure", p, "--search", "exhaustive-set"]
        for p in ("D", "Dp", "S")
    },
    **{
        f"simulate-{p}": [
            "simulate", "--procedure", p, "--single-group", "--replicates", "300", "--seed", "5"
        ]
        for p in ("D", "Dp", "S")
    },
}


def run(name: str, case: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*CASES[case], "--probs", str(GOLDEN / f"{name}.json")])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", INPUTS)
def test_output_matches_golden(name, case):
    assert run(name, case) == (GOLDEN / f"{name}.{case}.json").read_text()


if __name__ == "__main__":
    for name in INPUTS:
        for case in CASES:
            (GOLDEN / f"{name}.{case}.json").write_text(run(name, case))
