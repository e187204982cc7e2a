"""The three workloads: their input decks, their ops and the checks on each
op's output.

A workload is built from its seed in set-up: it draws its inputs and
writes the files the CLI reads. ``round(r)`` gives the inputs of round r;
every round has the same ops, so a run of whole rounds attempts the same
mix whatever its length. ``op`` is the timed call into pooltest; ``check``
runs after it, untimed, and returns the reasons the output is wrong (empty
when it is right). Every pooltest function is looked up on its module at
call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import pooltest.cli
import pooltest.model
import pooltest.simulate
import pooltest.study
from crosscheck import (
    COST,
    best_order,
    best_ordered_plan,
    close,
    dorfman_optimum,
    entropy_bits,
    neighbour_totals,
)

TARGETS = (0.001, 0.01, 0.05, 0.10, 0.20, 0.30)  # the study's six mean risks
PROCEDURES = ("D", "Dp", "S")
SLACK = 1e-9


def draw_risks(rng: np.random.Generator, n: int, p: float) -> list[float]:
    """n risks from Beta(1, (1-p)/p), each strictly inside (0, 1)."""
    out: list[float] = []
    while len(out) < n:
        out.extend(x for x in rng.beta(1.0, (1.0 - p) / p, n - len(out)).tolist() if 0.0 < x < 1.0)
    return out


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pooltest.cli.main(argv)
    return code, buf.getvalue()


def write_probs(path, ps) -> str:
    path.write_text(json.dumps({"p": ps}))
    return str(path)


def cli_json(name: str, result: tuple[int, str], errors: list[str]) -> dict | None:
    code, text = result
    if code != 0:
        errors.append(f"{name}: exit code {code}")
        return None
    return json.loads(text)


class Design:
    """Plan one population under D, Dp and S through ``pooltest optimize``."""

    def __init__(self, rng: np.random.Generator, workdir, population: int = 150):
        self.items = []
        for t, p in enumerate(TARGETS):
            ps = draw_risks(rng, population, p)
            q_desc = sorted((1.0 - x for x in ps), reverse=True)
            self.items.append(
                {
                    "path": write_probs(workdir / f"design-{t}.json", ps),
                    "p": ps,
                    "q_desc": q_desc,
                    "d_optimum": dorfman_optimum(q_desc),
                    "entropy": entropy_bits(ps),
                }
            )

    def round(self, r: int):
        return self.items

    def op(self, item):
        return [
            call_cli(["optimize", "--probs", item["path"], "--procedure", proc])
            for proc in PROCEDURES
        ]

    def check(self, item, out) -> list[str]:
        errors: list[str] = []
        ps, q_desc = item["p"], item["q_desc"]
        n = len(ps)
        totals = {}
        for proc, result in zip(PROCEDURES, out):
            res = cli_json(f"optimize {proc}", result, errors)
            if res is None:
                continue
            report = res["report"]
            seen, own_total, start = [], 0.0, 0
            for block in report["per_block"]:
                order = [i - 1 for i in block["order"]]
                own = COST[proc]([1.0 - ps[i] for i in order])
                if not close(own, block["expected_tests"]):
                    errors.append(f"{proc}: block {block['items']} costs {own}, reported {block['expected_tests']}")
                stop = start + len(order)
                if sorted(1.0 - ps[i] for i in order) != sorted(q_desc[start:stop]):
                    errors.append(f"{proc}: block {block['items']} is not contiguous in risk order")
                seen += order
                own_total += own
                start = stop
            if sorted(seen) != list(range(n)):
                errors.append(f"{proc}: blocks do not cover every item once")
            total = report["total"]
            if not close(own_total, total):
                errors.append(f"{proc}: blocks sum to {own_total}, reported total {total}")
            if not (item["entropy"] - SLACK <= total <= n + SLACK):
                errors.append(f"{proc}: total {total} outside [H, N] = [{item['entropy']}, {n}]")
            if proc in ("Dp", "S"):
                floor = total - SLACK * max(1.0, total)
                better = [t for t in neighbour_totals(q_desc, res["plan"]["ordered_sizes"], proc) if t < floor]
                if better:
                    errors.append(f"{proc}: a neighbouring plan costs {min(better)} < {total}")
            totals[proc] = total
        if "D" in totals and not close(totals["D"], item["d_optimum"]):
            errors.append(f"D: total {totals['D']} but the ordered optimum is {item['d_optimum']}")
        if "D" in totals and "Dp" in totals and totals["Dp"] > totals["D"] + SLACK:
            errors.append(f"Dp total {totals['Dp']} exceeds D total {totals['D']}")
        return errors


class Study:
    """One target of the published comparison table, rendered as CSV."""

    N = 100
    M = 10
    STD_TOLERANCE = 0.35  # relative; the sample std of N*M = 1000 draws has a relative SE of at most 0.045

    def __init__(self, rng: np.random.Generator, workdir):
        self.rng = rng

    def round(self, r: int):
        return [(p, int(self.rng.integers(2**63))) for p in TARGETS]

    def op(self, item):
        p, seed = item
        config = pooltest.study.StudyConfig(p_targets=(p,), n=self.N, m=self.M, seed=seed)
        return pooltest.study.emit_table(pooltest.study.run_study(config), "csv")

    def check(self, item, text) -> list[str]:
        errors: list[str] = []
        p, _ = item
        header, *lines = text.splitlines()
        if len(lines) != 1:
            return [f"expected one row, got {len(lines)}"]
        row = dict(zip(header.split(","), map(float, lines[0].split(","))))
        means = [row["D_mean"], row["Dp_mean"], row["S_mean"]]
        if row["H_mean"] > min(means) + SLACK:
            errors.append(f"H_mean {row['H_mean']} exceeds min(D, Dp, S)_mean {min(means)}")
        if row["Dp_mean"] > row["D_mean"] + SLACK:
            errors.append(f"Dp_mean {row['Dp_mean']} exceeds D_mean {row['D_mean']}")
        if max(means) > self.N + SLACK:
            errors.append(f"a mean exceeds n = {self.N}: {means}")
        sigma = p * math.sqrt((1.0 - p) / (1.0 + p))
        if abs(row["std"] / sigma - 1.0) > self.STD_TOLERANCE:
            errors.append(f"draw std {row['std']} is not within {self.STD_TOLERANCE:.0%} of {sigma}")
        if self.op(item) != text:
            errors.append("rerunning the slice with the same seed changed its rows")
        return errors


class Verify:
    """Cross-check a plan: oracles, exact outcome enumeration, bounds and
    Monte Carlo, each through the CLI except exact_expected_tests."""

    ORACLE_N = 8
    BOUNDS_N = 14
    RISK = 0.10
    REPLICATES = 1200
    DECK = 4  # instances, cycled; few, so a 4-SE Monte Carlo check rarely trips by chance

    def __init__(self, rng: np.random.Generator, workdir):
        self.items = []
        for d in range(self.DECK):
            small = draw_risks(rng, self.ORACLE_N, self.RISK)
            big = draw_risks(rng, self.BOUNDS_N, self.RISK)
            small_q = sorted((1.0 - x for x in small), reverse=True)
            big_total, big_sizes = best_ordered_plan(sorted((1.0 - x for x in big), reverse=True), "S")
            plan_path = workdir / f"verify-{d}-plan.json"
            plan_path.write_text(json.dumps({"ordered_sizes": big_sizes}))
            # blocks of the small instance's S plan, each in its cheapest test order
            s_total, s_sizes = best_ordered_plan(small_q, "S")
            by_risk = sorted(range(self.ORACLE_N), key=lambda i: small[i])
            groups, start = [], 0
            for size in s_sizes:
                members = by_risk[start : start + size]
                order = best_order([1.0 - small[i] for i in members], "S")
                groups.append(pooltest.model.Group(items=tuple(members[i] for i in order)))
                start += size
            self.items.append(
                {
                    "small": write_probs(workdir / f"verify-{d}-small.json", small),
                    "big": write_probs(workdir / f"verify-{d}-big.json", big),
                    "plan": str(plan_path),
                    "seed": str(int(rng.integers(2**32))),
                    "small_p": small,
                    "small_pv": pooltest.model.validate_probability_vector(small),
                    "groups": groups,
                    "own": {"S": s_total, "Dp": best_ordered_plan(small_q, "Dp")[0]},
                    "big_total": big_total,
                    "big_entropy": entropy_bits(big),
                }
            )

    def round(self, r: int):
        return self.items

    def op(self, item):
        return {
            "oracle S": call_cli(["oracle", "--probs", item["small"], "--procedure", "S"]),
            "oracle Dp": call_cli(["oracle", "--probs", item["small"], "--procedure", "Dp"]),
            "exact": [
                pooltest.simulate.exact_expected_tests(g, item["small_pv"], "S") for g in item["groups"]
            ],
            "bounds": call_cli(["bounds", "--probs", item["big"]]),
            "simulate": call_cli(
                ["simulate", "--probs", item["big"], "--procedure", "S", "--plan", item["plan"],
                 "--replicates", str(self.REPLICATES), "--seed", item["seed"]]
            ),
        }

    def check(self, item, out) -> list[str]:
        errors: list[str] = []
        for proc in ("S", "Dp"):
            res = cli_json(f"oracle {proc}", out[f"oracle {proc}"], errors)
            if res is None:
                continue
            dp, ordered, unordered = res["dp_total"], res["exhaustive_ordered_total"], res["exhaustive_set_total"]
            if not close(dp, ordered):
                errors.append(f"oracle {proc}: DP total {dp} != exhaustive ordered total {ordered}")
            if not close(dp, item["own"][proc]):
                errors.append(f"oracle {proc}: DP total {dp} != ordered optimum {item['own'][proc]}")
            if unordered > min(dp, ordered) + SLACK:
                errors.append(f"oracle {proc}: exhaustive set total {unordered} exceeds the ordered totals")
        for g, exact in zip(item["groups"], out["exact"]):
            own = COST["S"]([1.0 - item["small_p"][i] for i in g.items])
            if not close(exact, own):
                errors.append(f"exact_expected_tests {exact} != closed form {own} on {g.items}")
        res = cli_json("bounds", out["bounds"], errors)
        if res is not None:
            h, length, achieved = res["entropy_bits"], res["huffman_bits"], res["achieved"]
            if not close(h, item["big_entropy"]):
                errors.append(f"bounds: entropy {h} != {item['big_entropy']}")
            if not (h - SLACK <= length <= h + 1.0 + SLACK):
                errors.append(f"bounds: L = {length} outside [H, H + 1] with H = {h}")
            if length > achieved + SLACK:
                errors.append(f"bounds: L = {length} exceeds the achieved cost {achieved}")
            if not close(achieved, item["big_total"]):
                errors.append(f"bounds: achieved {achieved} != S optimum {item['big_total']}")
        res = cli_json("simulate", out["simulate"], errors)
        if res is not None:
            mean, se, expected = res["mean_tests"], res["std_error"], item["big_total"]
            if not close(res["expected_total"], expected):
                errors.append(f"simulate: expected_total {res['expected_total']} != {expected}")
            if not (0.0 < se and abs(mean - expected) <= 4.0 * se):
                errors.append(f"simulate: mean {mean} is not within 4 SE ({se}) of {expected}")
        return errors


WORKLOADS = {"design": Design, "study": Study, "verify": Verify}
