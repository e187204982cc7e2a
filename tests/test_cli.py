import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pooltest.optimize
from pooltest.cli import build_parser, main
from pooltest.cost import evaluate_plan
from pooltest.model import plan_from_json, validate_probability_vector
from pooltest.study import StudyConfig

E3_PROBS = [0.4, 0.4, 0.01, 0.01]
GOLDEN = Path(__file__).with_name("golden")
# the full S table one item over the DP cell budget
S_REFUSED = "S DP over 5293 items: cell count 14005278 exceeds the enumeration guard 14000000"
SUBCOMMANDS = ("eval", "optimize", "oracle", "simulate", "bounds", "study", "counterexample")


@pytest.fixture()
def probs_file(tmp_path):
    def write(probs, name="probs.json", as_text=False):
        path = tmp_path / name
        if as_text:
            path.write_text("".join(f"{p}\n" for p in probs))
        else:
            path.write_text(json.dumps({"p": probs}))
        return str(path)

    return write


@pytest.fixture()
def plan_file(tmp_path):
    def write(payload, name="plan.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_single_group_pair(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "eval", "--probs", probs_file([0.1, 0.2]), "--procedure", "S",
            "--single-group", "--arrange", "optimal",
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(1.38, abs=1e-9)

    def test_single_item(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "eval", "--probs", probs_file([0.5]), "--procedure", "D", "--single-group"
        )
        assert code == 0
        assert json.loads(out)["total"] == 1.0

    def test_unordered_pairing_plan(self, capsys, probs_file, plan_file):
        code, out, _ = run_cli(
            capsys, "eval", "--probs", probs_file(E3_PROBS), "--procedure", "S",
            "--plan", plan_file({"blocks": [[1, 3], [2, 4]]}),
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.832, abs=1e-9)

    def test_plain_text_probs(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "eval", "--probs", probs_file([0.1, 0.2], as_text=True),
            "--procedure", "S", "--single-group",
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(1.38, abs=1e-9)

    def test_bad_line_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\nnot-a-number\n0.3\n")
        code, _, err = run_cli(
            capsys, "eval", "--probs", str(path), "--procedure", "S", "--single-group"
        )
        assert code == 2
        assert "line 2" in err

    def test_out_of_range_line_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n\n1.5\n")
        code, _, err = run_cli(
            capsys, "eval", "--probs", str(path), "--procedure", "S", "--single-group"
        )
        assert code == 2
        assert "line 3" in err

    def test_conflicting_plan_flags_rejected(self, capsys, probs_file, plan_file):
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--probs", probs_file([0.1]), "--procedure", "S",
                "--single-group", "--plan", plan_file({"ordered_sizes": [1]}),
            ])
        assert exc.value.code == 2

    def test_output_reevaluates_identically(self, capsys, probs_file, plan_file):
        code, out, _ = run_cli(
            capsys, "eval", "--probs", probs_file(E3_PROBS), "--procedure", "S",
            "--plan", plan_file({"ordered_sizes": [3, 1]}),
        )
        assert code == 0
        report = json.loads(out)
        pv = validate_probability_vector(E3_PROBS)
        # the emitted block orders, costed exactly as printed, give the total back
        plan = plan_from_json({"blocks": [b["order"] for b in report["per_block"]]})
        again = evaluate_plan(plan, pv, "S", arrange="given").total
        assert again == pytest.approx(report["total"], abs=1e-12)

    @pytest.mark.parametrize(
        "payload, entry",
        [
            ({"ordered_sizes": [1.9, 2.1]}, "ordered_sizes entry 1: 1.9"),
            ({"ordered_sizes": [True, 2]}, "ordered_sizes entry 1: True"),
            ({"blocks": [[1.5, 2], [3]]}, "block 1 entry 1: 1.5"),
            ({"blocks": [[1, 2], [False]]}, "block 2 entry 1: False"),
        ],
        ids=["sizes-fraction", "sizes-bool", "blocks-fraction", "blocks-bool"],
    )
    def test_rejects_non_integral_plan_entries(
        self, capsys, probs_file, plan_file, payload, entry
    ):
        code, _, err = run_cli(
            capsys, "eval", "--probs", probs_file([0.1, 0.2, 0.3]), "--procedure", "S",
            "--plan", plan_file(payload),
        )
        assert code == 2
        assert entry in err and "is not an integer" in err

    def test_accepts_integral_float_plan_entries(self, capsys, probs_file, plan_file):
        probs = probs_file([0.1, 0.2, 0.3])
        _, by_int, _ = run_cli(
            capsys, "eval", "--probs", probs, "--procedure", "S",
            "--plan", plan_file({"blocks": [[1, 3], [2]]}),
        )
        code, by_float, _ = run_cli(
            capsys, "eval", "--probs", probs, "--procedure", "S",
            "--plan", plan_file({"blocks": [[1.0, 3.0], [2.0]]}),
        )
        assert code == 0
        assert by_float == by_int

    @pytest.mark.parametrize("ids", [[], ["a"]])
    def test_rejects_ids_of_other_length(self, capsys, tmp_path, ids):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps({"p": [0.1, 0.2], "ids": ids}))
        code, _, err = run_cli(
            capsys, "eval", "--probs", str(path), "--procedure", "S", "--single-group"
        )
        assert code == 2
        assert f"ids length {len(ids)} does not match 2 probabilities" in err


class TestUnreadableInput:
    # each message names the file as given on the command line
    @pytest.mark.parametrize(
        "files, argv, err",
        [
            ({}, ["--probs", "nope.json", "--single-group"],
             "error: nope.json: No such file or directory\n"),
            ({"probs.json": '{"p": [0.1]}'}, ["--probs", "probs.json", "--plan", "nope.json"],
             "error: nope.json: No such file or directory\n"),
            ({"bad.json": '{"p": [0.1,'}, ["--probs", "bad.json", "--single-group"],
             "error: bad.json, line 1: invalid JSON: Expecting value\n"),
            ({"probs.json": '{"p": [0.1]}', "bad.json": '{"blocks": '},
             ["--probs", "probs.json", "--plan", "bad.json"],
             "error: bad.json, line 1: invalid JSON: Expecting value\n"),
            ({"empty.txt": ""}, ["--probs", "empty.txt", "--single-group"],
             "error: empty.txt: no probabilities found\n"),
            ({"deep.json": '{"p": ' + "[" * 100_000 + "]" * 100_000 + "}"},
             ["--probs", "deep.json", "--single-group"],
             "error: deep.json: JSON nested too deeply\n"),
            ({"probs.json": '{"p": [0.1]}', "deep.json": "[" * 100_000 + "]" * 100_000},
             ["--probs", "probs.json", "--plan", "deep.json"],
             "error: deep.json: JSON nested too deeply\n"),
        ],
        ids=["missing-probs", "missing-plan", "truncated-probs", "truncated-plan", "empty-probs",
             "nested-probs", "nested-plan"],
    )
    def test_exit_two_and_message(self, capsys, tmp_path, monkeypatch, files, argv, err):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run_cli(capsys, "eval", "--procedure", "S", *argv) == (2, "", err)

    def test_integer_too_large_for_a_float(self, capsys, probs_file):
        # a 401-digit integer: one line naming the entry, not its digits
        code, out, err = run_cli(
            capsys, "optimize", "--probs", probs_file([0.1, 10**400]), "--procedure", "S"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: entry 2: probability is not strictly inside (0, 1): "
            "int too large to convert to float\n"
        )


class TestStrictSchema:
    # "p" is an array of numbers, "ids" an array, plans arrays of integers
    # counted from 1, and every file UTF-8; each message names the entry
    @pytest.mark.parametrize(
        "probs, err",
        [
            ('{"p": "0.5"}', 'error: "p" must be an array, not a string\n'),
            ('{"p": {"a": 0.1}}', 'error: "p" must be an array, not an object\n'),
            ('{"p": ["0.1", 0.2]}', "error: entry 1: probability '0.1' is not a number\n"),
            ('{"p": [0.1, true]}', "error: entry 2: probability True is not a number\n"),
            ('{"p": [0.1, null]}', "error: entry 2: probability None is not a number\n"),
            ('{"p": [0.1, 0.2], "ids": 3}', 'error: "ids" must be an array, not a number\n'),
            ('{"p": [0.1, 0.2], "ids": "ab"}', 'error: "ids" must be an array, not a string\n'),
            ('{"q": [0.1, 0.2]}', 'error: probability vector JSON must have a "p" key\n'),
        ],
        ids=["p-string", "p-object", "entry-string", "entry-bool", "entry-null", "ids-number",
             "ids-string", "no-p"],
    )
    def test_probability_json(self, capsys, tmp_path, probs, err):
        path = tmp_path / "probs.json"
        path.write_text(probs)
        argv = ["eval", "--probs", str(path), "--procedure", "S", "--single-group"]
        assert run_cli(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize(
        "plan, err",
        [
            ('{"blocks": [[1, 2], 3]}', "error: block 2 must be an array, not a number\n"),
            ('{"blocks": "ab"}', 'error: "blocks" must be an array, not a string\n'),
            ('{"blocks": [[0, 1], [2, 3]]}',
             "error: block 1 entry 1: 0 is not an item number; items are numbered from 1\n"),
            ('{"blocks": [[1, 2], [3, -1]]}',
             "error: block 2 entry 2: -1 is not an item number; items are numbered from 1\n"),
            ('{"ordered_sizes": 3}', 'error: "ordered_sizes" must be an array, not a number\n'),
            ('{"ordered_sizes": "12"}', 'error: "ordered_sizes" must be an array, not a string\n'),
            ("[2, 1]", "error: plan JSON must be an object, not an array\n"),
            ('"blocks"', "error: plan JSON must be an object, not a string\n"),
            # cover errors number items from 1, as the plan does
            ('{"blocks": [[1, 2, 3, 5, 4]]}',
             "error: set partition names item 4; the items are 1..3\n"),
            ('{"blocks": [[3], [1]]}', "error: set partition misses item 2; the items are 1..3\n"),
            ('{"ordered_sizes": [3], "blocks": [[1, 2, 3]]}',
             'error: plan JSON must have an "ordered_sizes" or "blocks" key, not both\n'),
            ('{"blocks": [[1, 1], [2]]}', "error: item 1 appears twice in block 1\n"),
            ('{"blocks": [[1, 2], [3, 2]]}', "error: item 2 appears in more than one block\n"),
        ],
        ids=["block-number", "blocks-string", "entry-zero", "entry-negative", "sizes-number",
             "sizes-string", "top-array", "top-string", "cover-stray", "cover-missing",
             "both-keys", "blocks-repeat-within", "blocks-repeat-across"],
    )
    def test_plan_json(self, capsys, tmp_path, probs_file, plan, err):
        path = tmp_path / "plan.json"
        path.write_text(plan)
        argv = ["eval", "--probs", probs_file([0.1, 0.2, 0.3]), "--procedure", "S",
                "--plan", str(path)]
        assert run_cli(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("flag", ["--probs", "--plan"])
    def test_file_not_utf8(self, capsys, tmp_path, monkeypatch, probs_file, flag):
        monkeypatch.chdir(tmp_path)
        Path("bad.txt").write_bytes(b"0.1\n\xff\n")
        probs = "bad.txt" if flag == "--probs" else probs_file([0.1, 0.2])
        plan = ["--plan", "bad.txt"] if flag == "--plan" else ["--single-group"]
        argv = ["eval", "--probs", probs, "--procedure", "S", *plan]
        assert run_cli(capsys, *argv) == (2, "", "error: bad.txt, byte 5: not UTF-8 text\n")

    # a UTF-8 file may start with a byte-order mark: it reads as the same
    # file without the mark
    @pytest.mark.parametrize(
        "probs, marked",
        [('{"p": [0.4, 0.01, 0.4]}', "probs"), ("0.4\n0.01\n0.4\n", "probs"),
         ('{"p": [0.4, 0.01, 0.4]}', "plan")],
        ids=["probability-json", "probability-text", "plan"],
    )
    def test_byte_order_mark_skipped(self, capsys, tmp_path, probs, marked):
        texts = {"probs": probs, "plan": '{"blocks": [[1, 2], [3]]}'}
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ["eval", "--probs", str(tmp_path / "probs"), "--procedure", "S",
                "--plan", str(tmp_path / "plan")]
        unmarked = run_cli(capsys, *argv)
        assert unmarked[0] == 0
        (tmp_path / marked).write_text("\ufeff" + texts[marked], encoding="utf-8")
        assert run_cli(capsys, *argv) == unmarked

    def test_file_not_utf8_after_a_byte_order_mark(self, capsys, tmp_path, monkeypatch):
        # the bad byte is counted from the start of the file, mark included
        monkeypatch.chdir(tmp_path)
        Path("bad.txt").write_bytes(b"\xef\xbb\xbf0.1\n\xff\n")
        argv = ["optimize", "--probs", "bad.txt", "--procedure", "S"]
        assert run_cli(capsys, *argv) == (2, "", "error: bad.txt, byte 8: not UTF-8 text\n")

    # a long bad value is echoed shortened, so its error stays one short line
    @pytest.mark.parametrize(
        "probs, plan",
        [
            (json.dumps({"p": [[0.1] * 200_000]}), None),
            (json.dumps({"p": ["x" * 100_000]}), None),
            ("x" * 100_000 + "\n", None),
            ("0.1\n0.2\n0.3\n", {"ordered_sizes": [[1] * 100_000]}),
        ],
        ids=["entry-long-array", "entry-long-string", "line-long-text", "sizes-long-array"],
    )
    def test_long_bad_value(self, capsys, tmp_path, plan_file, probs, plan):
        path = tmp_path / "probs.json"
        path.write_text(probs)
        if plan is None:
            argv = ["optimize", "--probs", str(path), "--procedure", "S"]
        else:
            argv = ["eval", "--probs", str(path), "--procedure", "S", "--plan", plan_file(plan)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200


def run_main(argv):
    """``main(argv)`` with its stdout and stderr captured, for tests that
    cannot take pytest's per-test capture fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    # an answer, or one error line and exit 2 or 3; an exception fails the test
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
RISKS = st.lists(st.floats(0.0, 1.0) | st.integers(-1, 2) | JSON_LEAVES, max_size=7)
PROBS_COMMANDS = (
    ["eval", "--procedure", "S", "--single-group"],
    ["optimize", "--procedure", "Dp"],
    ["oracle", "--procedure", "S"],
    ["simulate", "--procedure", "D", "--single-group", "--replicates", "2"],
    ["bounds"],
)


class TestMalformedInputFuzz:
    # arbitrary JSON values in every key the readers take, and arbitrary
    # text or bytes, through every subcommand that reads them
    @settings(max_examples=60, deadline=None)
    @given(p=RISKS | JSON_VALUES, ids=st.none() | JSON_VALUES)
    def test_probability_json(self, p, ids):
        payload = {"p": p} if ids is None else {"p": p, "ids": ids}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "probs.json")
            path.write_text(json.dumps(payload))
            for command in PROBS_COMMANDS:
                assert_clean_exit([*command, "--probs", str(path)])

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.text(max_size=10) | st.floats().map(repr), max_size=7))
    def test_probability_text(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "probs.txt")
            path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
            for command in PROBS_COMMANDS:
                assert_clean_exit([*command, "--probs", str(path)])

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=24))
    def test_probability_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "probs.txt")
            path.write_bytes(data)
            assert_clean_exit(["eval", "--procedure", "S", "--single-group", "--probs", str(path)])

    @settings(max_examples=100, deadline=None)
    @given(
        key=st.sampled_from(["ordered_sizes", "blocks", "other"]),
        value=JSON_VALUES
        | st.lists(st.integers(-1, 4) | st.lists(st.integers(-1, 4), max_size=3), max_size=4),
        top_level=st.booleans(),
    )
    def test_plan_json(self, key, value, top_level):
        with tempfile.TemporaryDirectory() as tmp:
            probs = Path(tmp, "probs.json")
            probs.write_text(json.dumps({"p": [0.1, 0.2, 0.3]}))
            plan = Path(tmp, "plan.json")
            plan.write_text(json.dumps(value if top_level else {key: value}))
            for command in (["eval", "--procedure", "S"],
                            ["simulate", "--procedure", "Dp", "--replicates", "2"]):
                assert_clean_exit([*command, "--probs", str(probs), "--plan", str(plan)])


class TestOptimize:
    def test_dp(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "optimize", "--probs", probs_file(E3_PROBS), "--procedure", "S"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["total"] == pytest.approx(2.83794, abs=1e-9)
        assert payload["plan"] == {"ordered_sizes": [3, 1]}

    def test_exhaustive_set(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "optimize", "--probs", probs_file(E3_PROBS), "--procedure", "S",
            "--search", "exhaustive-set",
        )
        assert code == 0
        assert json.loads(out)["report"]["total"] == pytest.approx(2.832, abs=1e-9)

    def test_above_threshold_all_singletons(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "optimize", "--probs", probs_file([0.5] * 6), "--procedure", "Dp"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"] == {"ordered_sizes": [1] * 6}
        assert payload["report"]["total"] == 6.0

    def test_guard_exit_code(self, capsys, probs_file):
        code, _, err = run_cli(
            capsys, "optimize", "--probs", probs_file([0.1] * 16), "--procedure", "S",
            "--search", "exhaustive-set",
        )
        assert code == 3
        assert "guard" in err

    def test_exhaustive_set_refuses_sixteen_items(self, capsys, probs_file):
        # oracle runs the set-partition search too, whose guard stops at 15
        code, _, err = run_cli(
            capsys, "oracle", "--probs", probs_file([0.1] * 16), "--procedure", "Dp"
        )
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize(
        "argv", [["optimize", "--procedure", "S"], ["oracle", "--procedure", "S"], ["bounds"]]
    )
    def test_sterrett_dp_guard_exit_code(self, capsys, probs_file, argv):
        code, _, err = run_cli(capsys, argv[0], "--probs", probs_file([0.1] * 5293), *argv[1:])
        assert code == 3
        if argv[0] == "oracle":  # its exhaustive searches' guards come first
            assert "guard" in err
        else:
            assert err == f"error: {S_REFUSED}\n"

    @pytest.mark.parametrize("procedure", ["D", "Dp"])
    def test_dp_cell_budget_exit_code(self, capsys, probs_file, procedure):
        # low risks: no block start is cut, so the table would visit all N(N-1)/2 cells
        code, out, err = run_cli(
            capsys, "optimize", "--probs", probs_file([1e-4] * 5300), "--procedure", procedure
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: {procedure} DP over 5300 items: cell count 14042350 "
            "exceeds the enumeration guard 14000000\n"
        )

    def test_risky_ten_thousand_items_finish(self, capsys, probs_file):
        # risks spread over [0.05, 0.35): the width cut leaves 567 246 of the
        # table's 49 995 000 cells
        probs = [0.05 + 0.3 * ((i * 7919) % 10_000) / 10_000 for i in range(10_000)]
        path = probs_file(probs)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "optimize", "--probs", path, "--procedure", "D")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["plan"]["ordered_sizes"]
        assert elapsed < 1.0


class TestOracle:
    @pytest.mark.parametrize(
        "n, err",
        [
            (16, "error: set-partition search size 16 exceeds the enumeration guard 15\n"),
            (21, "error: set-partition search size 21 exceeds the enumeration guard 15\n"),
            (5000, "error: set-partition search size 5000 exceeds the enumeration guard 15\n"),
        ],
    )
    def test_refuses_before_any_search(self, capsys, probs_file, monkeypatch, n, err):
        calls = []
        table = pooltest.optimize.dp_table
        monkeypatch.setattr(
            pooltest.optimize, "dp_table", lambda *a, **k: calls.append(a) or table(*a, **k)
        )
        assert run_cli(
            capsys, "oracle", "--probs", probs_file([1e-4] * n), "--procedure", "D"
        ) == (3, "", err)
        assert calls == []

    def test_counterexample_instance(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "oracle", "--probs", probs_file(E3_PROBS), "--procedure", "S"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dp_matches_exhaustive_ordered"]
        assert payload["unordered_beats_ordered"]
        assert payload["exhaustive_set_total"] == pytest.approx(2.832, abs=1e-9)


class TestSimulate:
    def test_singleton_plan(self, capsys, probs_file, plan_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--probs", probs_file([0.3, 0.6]), "--procedure", "S",
            "--plan", plan_file({"ordered_sizes": [1, 1]}), "--replicates", "100",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_tests"] == 2.0
        assert payload["std_error"] == 0.0
        assert payload["expected_total"] == 2.0

    def test_evaluates_the_plan_once(self, capsys, probs_file, monkeypatch):
        import pooltest.cli
        import pooltest.simulate

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_plan(*args, **kwargs)

        monkeypatch.setattr(pooltest.cli, "evaluate_plan", counted)
        monkeypatch.setattr(pooltest.simulate, "evaluate_plan", counted)
        code, _, _ = run_cli(
            capsys, "simulate", "--probs", probs_file([0.1, 0.2, 0.3]), "--procedure", "S",
            "--single-group", "--replicates", "50",
        )
        assert code == 0
        assert len(calls) == 1

    def test_deterministic_output(self, capsys, probs_file):
        args = (
            "simulate", "--probs", probs_file([0.1, 0.2, 0.3]), "--procedure", "Dp",
            "--single-group", "--replicates", "500", "--seed", "42",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBounds:
    def test_explicit_achieved(self, capsys, probs_file):
        code, out, _ = run_cli(
            capsys, "bounds", "--probs", probs_file([0.1, 0.2]), "--achieved", "1.38"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["huffman_bits"] == pytest.approx(1.38, abs=1e-9)
        assert payload["achieved_ok"] and payload["coding_ok"]
        assert payload["achieved_source"] == "flag"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_achieved(self, capsys, probs_file, value):
        code, out, err = run_cli(
            capsys, "bounds", "--probs", probs_file([0.1, 0.2]), f"--achieved={value}"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_space_separated_negative_infinity_is_refused(self, capsys, probs_file):
        # argparse reads "-inf" after a space as an option and stops before
        # the finite check; only the --achieved=-inf form reaches it
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--probs", probs_file([0.1, 0.2]), "--achieved", "-inf"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "expected one argument" in out.err

    def test_default_achieved_from_dp(self, capsys, probs_file):
        code, out, _ = run_cli(capsys, "bounds", "--probs", probs_file(E3_PROBS))
        assert code == 0
        payload = json.loads(out)
        assert payload["achieved_source"] == "dp-ordered-S"
        assert payload["achieved"] == pytest.approx(2.83794, abs=1e-9)
        assert payload["all_above_ungar"] is False
        assert payload["ungar_threshold"] == pytest.approx(0.3819660113, abs=1e-9)


class TestStudy:
    def test_small_run_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "study", "--p-list", "0.1", "--n", "8", "--m", "5", "--seed", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,std,D_mean")
        assert len(lines) == 2

    def test_rejects_single_replicate(self, capsys):
        code, _, err = run_cli(capsys, "study", "--p-list", "0.1", "--m", "1")
        assert code == 2
        assert "replicates" in err

    @pytest.mark.parametrize("target", ["1e-18", "0.99999999"])
    def test_target_outside_range_exits_two(self, capsys, target):
        code, out, err = run_cli(capsys, "study", "--p-list", target, "--m", "2", "--n", "1")
        assert code == 2
        assert out == ""
        assert "target risks must lie in [1e-12, 0.8]" in err

    def test_unparsable_target_exits_two(self, capsys):
        # blank entries are skipped; the first bad one is named as written
        code, out, err = run_cli(capsys, "study", "--p-list", "0.1, ,abc", "--m", "2", "--n", "1")
        assert (code, out) == (2, "")
        assert err == "error: could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("target", ["1e-12", "0.8"])
    def test_range_ends_finish(self, capsys, target):
        code, out, _ = run_cli(capsys, "study", "--p-list", target, "--m", "2", "--n", "100")
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_seed_determinism_bytes(self, capsys):
        args = ("study", "--p-list", "0.05,0.2", "--n", "6", "--m", "4", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_metadata_and_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "study", "--p-list", "0.1", "--n", "5", "--m", "3", "--seed", "1",
            "--format", "json", "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(dest.read_text())
        assert payload["metadata"]["n"] == 5
        assert payload["metadata"]["common_draws"] is True
        assert payload["metadata"]["sterrett_rule"] == "smallest-last"

    @pytest.mark.parametrize(
        "argv",
        [["--independent-draws"], ["--sterrett-rule", "optimal"], []],
        ids=["independent-draws", "S-optimal", "S-smallest-last"],
    )
    def test_cell_budget_refused_before_any_dp_work(self, capsys, monkeypatch, argv):
        import pooltest.study

        # every draw mode and Sterrett rule is refused on its uncut S table
        monkeypatch.setattr(pooltest.study, "sample_beta_one", lambda *a: pytest.fail("drew"))
        monkeypatch.setattr(pooltest.study, "dp_totals", lambda *a: pytest.fail("DP ran"))
        code, out, err = run_cli(
            capsys, "study", "--p-list", "0.001", "--m", "100000", "--n", "5293", *argv
        )
        assert (code, out, err) == (3, "", f"error: {S_REFUSED}\n")

    def test_unwritable_out_file_exits_two(self, capsys, tmp_path, monkeypatch):
        import pooltest.cli

        # the path is refused before any study work starts
        monkeypatch.setattr(pooltest.cli, "run_study", lambda config: pytest.fail("study ran"))
        dest = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(
            capsys, "study", "--p-list", "0.1", "--n", "5", "--m", "3", "--out", str(dest)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {dest}: No such file or directory\n"

    def test_out_file_kept_after_a_refused_study(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        dest.write_bytes(b"an earlier table\n")
        code, out, err = run_cli(
            capsys, "study", "--p-list", "0.1", "--n", "5293", "--m", "2", "--out", str(dest)
        )
        assert (code, out) == (3, "")
        assert err == f"error: {S_REFUSED}\n"
        assert dest.read_bytes() == b"an earlier table\n"
        argv = ("study", "--p-list", "0.1", "--n", "5", "--m", "3", "--seed", "1")
        code, out, _ = run_cli(capsys, *argv, "--out", str(dest))
        assert (code, out) == (0, "")
        _, table, _ = run_cli(capsys, *argv)
        assert dest.read_text() == table

    def test_no_out_file_made_by_a_refused_study(self, capsys, tmp_path):
        dest = tmp_path / "new.csv"
        code, out, err = run_cli(
            capsys, "study", "--p-list", "0.1", "--n", "5293", "--m", "2", "--out", str(dest)
        )
        assert (code, out, err) == (3, "", f"error: {S_REFUSED}\n")
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "message, err",
        [
            ("Unable to allocate 74.5 GiB", "error: not enough memory: Unable to allocate 74.5 GiB\n"),
            ("", "error: not enough memory\n"),
        ],
        ids=["message", "empty-message"],
    )
    def test_memory_refused_exits_three(self, capsys, monkeypatch, message, err):
        import pooltest.cli

        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr(pooltest.cli, "run_study", refuse)
        assert run_cli(capsys, "study", "--n", "5", "--m", "2") == (3, "", err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_exits_two(self, capsys):
        # /dev/full opens but refuses every write
        code, out, err = run_cli(capsys, "study", "--n", "5", "--m", "2", "--out", "/dev/full")
        assert (code, out, err) == (2, "", "error: /dev/full: No space left on device\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_out_to_a_pipe(self, capsys, tmp_path):
        # a pipe holds nothing to truncate: the table is written as it is
        fifo = tmp_path / "table.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ("study", "--p-list", "0.1", "--n", "5", "--m", "3", "--seed", "1")
        code, out, _ = run_cli(capsys, *argv, "--out", str(fifo))
        reader.join(10)
        _, table, _ = run_cli(capsys, *argv)
        assert (code, out, got) == (0, "", [table])


class TestCounterexample:
    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        assert out.count("PASS") >= 4
        assert "beats the optimal ordered plan" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["checks"]) == 4
        names = {c["name"] for c in payload["checks"]}
        assert "ordered-optimal S" in names

    def test_reproduction_failure_exits_four(self, capsys, monkeypatch):
        import pooltest.cli as cli_mod

        broken = tuple(
            (name, search, proc, ref + 1.0)
            for name, search, proc, ref in cli_mod.COUNTEREXAMPLE_REFERENCES
        )
        monkeypatch.setattr(cli_mod, "COUNTEREXAMPLE_REFERENCES", broken)
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 4
        assert "FAIL" in out


def run_any(capsys, argv):
    """Exit code, stdout and stderr of one main call, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
    def test_help_text(self, capsys, monkeypatch, command):
        # COLUMNS fixes argparse's wrap width
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_any(capsys, [command, "--help"] if command else ["--help"])
        assert code == 0
        assert out == (GOLDEN / (f"help-{command}.txt" if command else "help.txt")).read_text()

    def test_calls_in_one_process_match_calls_alone(self, capsys, probs_file):
        path = probs_file(E3_PROBS)
        calls = [
            ["optimize", "--probs", path, "--procedure", "S"],
            ["optimize", "--probs", path, "--procedure", "X"],  # argparse error
            ["bounds", "--probs", path, "--achieved=nan"],  # validation error
            ["bounds", "--probs", path],
        ]
        alone = []
        for argv in calls:
            build_parser.cache_clear()  # a new parser, as in a new process
            alone.append(run_any(capsys, argv))
        together = [run_any(capsys, argv) for argv in calls]
        assert together == alone
        assert [code for code, _, _ in alone] == [0, 2, 2, 0]

    @pytest.mark.parametrize(
        "name, flag, counts",
        [
            ("dp_ordered", "dp", (1, 1, 2)),
            ("exhaustive_ordered", "exhaustive-ordered", (1, 1, 0)),
            ("exhaustive_set", "exhaustive-set", (1, 1, 2)),
        ],
    )
    def test_rebound_searches_are_the_ones_called(
        self, capsys, monkeypatch, probs_file, name, flag, counts
    ):
        import pooltest.cli as cli_mod

        # the first call builds the cached parser; a search rebound after it
        # is still the one that optimize, oracle and counterexample call, as
        # the benchmark's tracer needs
        assert run_any(capsys, ["counterexample", "--json"])[0] == 0
        calls = []
        search = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name, lambda *a: calls.append(a) or search(*a))
        path = probs_file(E3_PROBS)
        got = []
        for argv in (
            ["optimize", "--probs", path, "--procedure", "S", "--search", flag],
            ["oracle", "--probs", path, "--procedure", "S"],
            ["counterexample"],
        ):
            calls.clear()
            assert run_any(capsys, argv)[0] == 0
            got.append(len(calls))
        assert tuple(got) == counts

    def test_handler_rebound_after_first_call_runs(self, capsys, monkeypatch):
        import pooltest.cli as cli_mod

        assert run_any(capsys, ["counterexample", "--json"])[0] == 0
        monkeypatch.setattr(cli_mod, "_cmd_counterexample", lambda args: 7)
        assert run_any(capsys, ["counterexample", "--json"])[0] == 7

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["eval", "--probs", "p", "--procedure", "S", "--single-group"],
             {"probs": "p", "procedure": "S", "plan": None, "single_group": True,
              "arrange": "optimal"}),
            (["optimize", "--probs", "p", "--procedure", "S"],
             {"probs": "p", "procedure": "S", "search": "dp"}),
            (["oracle", "--probs", "p", "--procedure", "S"], {"probs": "p", "procedure": "S"}),
            (["simulate", "--probs", "p", "--procedure", "S", "--single-group"],
             {"probs": "p", "procedure": "S", "plan": None, "single_group": True,
              "arrange": "optimal", "replicates": 10000, "seed": 1}),
            (["bounds", "--probs", "p"], {"probs": "p", "achieved": None}),
            (["study"],
             {"p_list": "0.001,0.01,0.05,0.1,0.2,0.3", "n": 100, "m": 200, "seed": 1,
              "format": "csv", "out": None, "independent_draws": False,
              "sterrett_rule": "smallest-last"}),
            (["counterexample"], {"json": False}),
        ],
        ids=SUBCOMMANDS,
    )
    def test_parsed_defaults(self, argv, expected):
        # the help texts print no defaults, so a lost default= shows only here
        assert vars(build_parser().parse_args(argv)) == {"command": argv[0], **expected}

    def test_study_defaults_are_the_config_defaults(self, capsys, monkeypatch):
        import pooltest.cli as cli_mod

        configs = []
        monkeypatch.setattr(cli_mod, "run_study", configs.append)
        monkeypatch.setattr(cli_mod, "emit_table", lambda *a, **k: "")
        assert run_cli(capsys, "study") == (0, "", "")
        assert configs == [StudyConfig()]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    # the child starts with its stdout pipe's read end already closed, so
    # its first write or its flush at exit meets a broken pipe
    root = GOLDEN.parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pooltest.cli", "optimize",
             "--probs", "tests/golden/mixed9.json", "--procedure", "S"],
            stdout=write_end, stderr=subprocess.PIPE, cwd=root, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# the child's address space: the interpreter and numpy fit in it, and the
# (m, 1, n) draw buffer of a study at --m 100000000, 74.5 GiB, does not
ADDRESS_SPACE_CAP = 5 * 2**29  # 2.5 GiB


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_unallocatable_study_exits_3_with_one_line(tmp_path, out):
    resource = pytest.importorskip("resource")
    root = GOLDEN.parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pooltest.cli", "study", "--n", "100", "--m", "100000000",
            "--p-list", "0.1"]
    proc = subprocess.run(
        argv + (["--out", str(tmp_path / "new.csv")] if out else []),
        capture_output=True, text=True, cwd=root, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP)
        ),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: not enough memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
