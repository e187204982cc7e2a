import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_dominance_sweep_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--instances", "30", "--max-n", "12", "--oracle-n", "6"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dominance_sweep.py"), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dominance violations: 0" in proc.stdout.splitlines()
