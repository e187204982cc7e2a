import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(block, namespace)
    assert capsys.readouterr().out.startswith("(3, 1) ((0, 2), (1, 3)) ")
    # the totals the block's comments state
    assert abs(namespace["plan"].report.total - 2.83794) <= 1e-5
    assert abs(namespace["oracle"].total - 2.832) <= 1e-5


CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""

import math  # a trailing comment

# a comment line


class Point:
    """Class docstring."""

    def norm(self):
        """Function
        docstring."""
        return math.hypot(
            self.x,
            self.y)
'''


def test_code_lines_counts_a_fixture_module(tmp_path):
    # code: the import, the class and def lines and the three-line call
    package = tmp_path / "src" / "pooltest"
    package.mkdir(parents=True)
    (package / "point.py").write_text(CODE_LINES_FIXTURE)
    (package / "empty.py").write_text("")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert rows == [["empty.py", "0", "0"], ["point.py", "6", "17"], ["total", "6", "17"]]


def bench_result(failed=0, attempted=100, **values):
    return {"correct": True, "failed": failed, "attempted": attempted,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_bench_pairs_alternates_which_side_runs_first():
    bench_pairs = load_script("bench_pairs")
    assert bench_pairs.schedule(2, ["design", "study"]) == [
        (1, "design", "parent"), (1, "design", "change"),
        (1, "study", "parent"), (1, "study", "change"),
        (2, "design", "change"), (2, "design", "parent"),
        (2, "study", "change"), (2, "study", "parent"),
    ]


def test_bench_pairs_summary():
    bench_pairs = load_script("bench_pairs")
    end_to_end = [{"name": "op_s", "better": "lower", "bound": 0.15},
                  {"name": "ops_per_s", "better": "higher", "bound": 0.05}]
    parent = [(4.0, 100.0), (2.0, 100.0), (3.0, 80.0), (5.0, 90.0)]
    change = [(3.0, 90.0), (2.0, 110.0), (3.5, 70.0), (4.0, 95.0)]
    results = {"design": {
        "parent": [bench_result(op_s=a, ops_per_s=b) for a, b in parent],
        "change": [bench_result(failed=i, op_s=a, ops_per_s=b) for i, (a, b) in enumerate(change)],
    }}
    summary = bench_pairs.summarize(results, end_to_end)["design"]
    assert summary["pairs"] == 4
    assert summary["seeds"] == [1, 2, 3, 4]
    assert summary["failed_ops"] == {"parent": "0 of 400", "change": "6 of 400"}
    op_s, ops_per_s = summary["metrics"]["op_s"], summary["metrics"]["ops_per_s"]
    # lower is better: the change wins pairs 1 and 4, ties pair 2
    assert op_s == {
        "better": "lower", "bound": 0.15,
        "parent_median": 3.5, "change_median": 3.25, "median_change_rel": 3.25 / 3.5 - 1.0,
        "change_wins": "2/4", "parent_iqr": 4.75 - 2.25, "within_bound": True,
        "runs": {"parent": [4.0, 2.0, 3.0, 5.0], "change": [3.0, 2.0, 3.5, 4.0]},
    }
    # higher is better: the change wins pairs 2 and 4; its median falls by
    # 2.6 %, within 0.05 but not within 0.02
    assert ops_per_s["change_wins"] == "2/4"
    assert (ops_per_s["parent_median"], ops_per_s["change_median"]) == (95.0, 92.5)
    assert ops_per_s["within_bound"]
    end_to_end[1]["bound"] = 0.02
    assert not bench_pairs.summarize(results, end_to_end)["design"]["metrics"]["ops_per_s"]["within_bound"]


def test_bench_layers_alternates_which_side_runs_first():
    bench_layers = load_script("bench_layers")
    assert bench_layers.schedule(3, ["a", "b"]) == [
        (1, "a", "parent"), (1, "b", "parent"),
        (2, "a", "change"), (2, "b", "change"),
        (3, "a", "parent"), (3, "b", "parent"),
    ]


def test_bench_layers_alternates_the_trees_loop_by_loop(monkeypatch):
    # stub calls advance a fake clock, each by its tree's next duration;
    # every duration is over MIN_LOOP_S, so a loop is one call
    bench_layers = load_script("bench_layers")
    clock, log = [0.0], []
    durations = {"parent": iter([0.045, 0.09, 0.06, 0.07, 0.05, 0.08]),
                 "change": iter([0.045, 0.055, 0.07, 0.06, 0.09, 0.08])}

    def stub(side):
        def call():
            log.append(side)
            clock[0] += next(durations[side])
        return call

    monkeypatch.setattr(bench_layers, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    calls = {side: stub(side) for side in ("parent", "change")}
    # a round that starts with the change: the sizing loops, then five loops
    # whose first tree alternates; the sizing loops' times do not count
    seconds = bench_layers.time_case(calls, "change")
    assert log == ["change", "parent"] + ["change", "parent", "parent", "change"] * 2 + ["change", "parent"]
    assert seconds == pytest.approx({"parent": 0.05, "change": 0.055})
    log.clear()
    durations = {side: iter([0.045] + [0.1] * 5) for side in ("parent", "change")}
    bench_layers.time_case(calls, "parent")
    assert log == ["parent", "change"] + ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]


def test_bench_layers_loads_a_tree_twice_in_one_process():
    bench_layers = load_script("bench_layers")
    saved = dict(sys.modules)
    try:
        first = bench_layers.load(ROOT, "pooltest_first")
        second = bench_layers.load(ROOT, "pooltest_second")
        assert first is not second
        assert first.dp_table is not second.dp_table
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] in ("pooltest_first", "pooltest_second")]
        for module in loaded:
            assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "pooltest")
        assert sys.modules.get("pooltest") is saved.get("pooltest")
    finally:
        for name in set(sys.modules) - set(saved):
            del sys.modules[name]


def test_bench_layers_summary():
    bench_layers = load_script("bench_layers")

    def child(**cases):
        return {name: {"seconds": s, "digest": d} for name, (s, d) in cases.items()}

    runs = {
        "parent": [child(a=(4.0, "x"), b=(1.0, "y")), child(a=(2.0, "x"), b=(1.0, "y")),
                   child(a=(3.0, "x"), b=(1.0, "y"))],
        "change": [child(a=(3.0, "x"), b=(1.0, "y")), child(a=(2.0, "x"), b=(2.0, "z")),
                   child(a=(1.0, "x"), b=(0.5, "y"))],
    }
    summary = bench_layers.summarize(runs)
    # the change wins rounds 1 and 3 of a and round 3 of b; a tie wins for
    # neither; the parent's rounds of a, 2, 3 and 4 s, have quartiles 2 and 4
    assert summary["a"] == {
        "parent_median_s": 3.0, "change_median_s": 2.0, "median_change_rel": 2.0 / 3.0 - 1.0,
        "change_wins": "2/3", "parent_iqr": 2.0, "bit_identical": True,
        "seconds": {"parent": [4.0, 2.0, 3.0], "change": [3.0, 2.0, 1.0]},
    }
    assert summary["b"]["change_wins"] == "1/3"
    assert summary["b"]["median_change_rel"] == 0.0
    assert summary["b"]["parent_iqr"] == 0.0
    # one round of the change gave another result
    assert not summary["b"]["bit_identical"]


def test_bench_layers_cases_cover_the_layers():
    # the table of cases is built, not timed: every layer is there at its sizes
    import pooltest

    names = set(load_script("bench_layers").cases(pooltest))
    for proc in ("D", "Dp", "S"):
        assert {f"arranged_cost {proc} k={k}" for k in (4, 12, 60)} <= names
        assert {f"group_cost {proc} k={k}" for k in (4, 12, 60)} <= names
        assert {f"tables.dp_totals {proc} n=100 m={m}" for m in (10, 1000)} <= names
        assert f"tables.dp_totals {proc} n=2800 m=2" in names
        assert {f"exhaustive_ordered {proc} N={n}" for n in (8, 16)} <= names
        assert {f"exhaustive_set {proc} N={n}" for n in (8, 12)} <= names
    for rule in ("D", "Dp", "S optimal", "S smallest-last"):
        for n in (100, 400, 1000):
            assert {f"dp_table {rule} N={n} uniform", f"dp_table {rule} N={n} equal-0.01"} <= names
    assert {"exact_expected_tests S k=16", "estimate_cost S N=14 m=1200",
            "huffman_length N=14", "huffman_length N=20"} <= names
