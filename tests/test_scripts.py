import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def sweep(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dominance_sweep.py"), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_dominance_sweep_smoke():
    proc = sweep("--instances", "30", "--max-n", "12", "--oracle-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert "dominance violations: 0" in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--instances", "0"], "--instances must be at least 1"),
        (["--max-n", "1"], "--max-n must be at least 2"),
        (["--oracle-n", "18", "--max-n", "18"], "--oracle-n must be at most 15"),
        (["--p-max", "1.5"], "--p-max must lie strictly between 0 and 1"),
    ],
    ids=["instances", "max-n", "oracle-n", "p-max"],
)
def test_dominance_sweep_refuses_bad_arguments(argv, message):
    # argparse's exit 2, before any instance is run
    proc = sweep(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"error: {message}" in proc.stderr


def test_acceptance_script_runs_from_another_directory(tmp_path):
    # a plain checkout: no PYTHONPATH, run from outside the tree
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = [line for line in proc.stdout.splitlines() if line.startswith("PASS criterion")]
    assert len(passed) == 11
