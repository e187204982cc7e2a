import json
from pathlib import Path

import pytest

from pooltest.cli import build_parser, main
from pooltest.cost import evaluate_plan
from pooltest.model import plan_from_json, validate_probability_vector

E3_PROBS = [0.4, 0.4, 0.01, 0.01]
GOLDEN = Path(__file__).with_name("golden")
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
        ],
        ids=["missing-probs", "missing-plan", "truncated-probs", "truncated-plan", "empty-probs"],
    )
    def test_exit_two_and_message(self, capsys, tmp_path, monkeypatch, files, argv, err):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run_cli(capsys, "eval", "--procedure", "S", *argv) == (2, "", err)


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
        code, _, err = run_cli(capsys, argv[0], "--probs", probs_file([0.1] * 2801), *argv[1:])
        assert code == 3
        assert "guard" in err


class TestOracle:
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

    def test_handler_rebound_after_first_call_runs(self, capsys, monkeypatch):
        import pooltest.cli as cli_mod

        assert run_any(capsys, ["counterexample", "--json"])[0] == 0
        monkeypatch.setattr(cli_mod, "_cmd_counterexample", lambda args: 7)
        assert run_any(capsys, ["counterexample", "--json"])[0] == 7
