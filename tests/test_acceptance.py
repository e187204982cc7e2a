"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` or
execute this file directly).

Reference constants for criterion 6 are the published comparison values
for the default study design: N=100 risks per replicate drawn from
Beta(1, (1-p)/p), optimal ordered plans per procedure, M=1000 replicates,
standard error of the mean in parentheses. Criterion 11 reruns the study at
M=1000 with the tolerance of three standard errors; criterion 6 reruns it at
desk scale, M=200, which widens the tolerance by sqrt(1000/200).
"""

import itertools
import math
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

if __name__ == "__main__":
    # run directly: import pooltest from this checkout's src/, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pooltest.bounds import entropy_bits, huffman_length
from pooltest.cost import (
    _cost_modified_dorfman_q,
    _cost_sterrett_q,
    arranged_cost,
    group_cost,
)
from pooltest.model import Group, sort_ascending, validate_probability_vector
from pooltest.optimize import dp_ordered, dp_table, exhaustive_ordered, exhaustive_set
from pooltest.simulate import exact_expected_tests
from pooltest.study import StudyConfig, run_study
from reference import cost_sterrett_recursive, pair_costs

# (mean, se-of-mean) per column at M=1000, keyed by target risk
REFERENCE_ROWS = {
    0.001: {"D": (5.7519, 0.009), "Dp": (5.7383, 0.009), "S": (3.7453, 0.006), "H": (1.0807, 0.003)},
    0.01: {"D": (17.47, 0.0279), "Dp": (17.345, 0.0271), "S": (13.121, 0.0235), "H": (7.4735, 0.0191)},
    0.05: {"D": (38.102, 0.0581), "Dp": (37.095, 0.0567), "S": (31.801, 0.0565), "H": (25.653, 0.0584)},
    0.10: {"D": (52.866, 0.0762), "Dp": (50.758, 0.0695), "S": (46.105, 0.0736), "H": (40.855, 0.0780)},
    0.20: {"D": (70.266, 0.0826), "Dp": (67.536, 0.0762), "S": (64.33, 0.0828), "H": (60.11, 0.0878)},
    0.30: {"D": (80.067, 0.0802), "Dp": (77.598, 0.0772), "S": (75.358, 0.0844), "H": (70.303, 0.0874)},
}

STUDY_SEED = 20250809
STUDY_M = 200


@contextmanager
def criterion(num, summary, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
    except BaseException:
        print(f"FAIL criterion {num}: {summary}")
        raise
    print(f"PASS criterion {num}: {summary} ({elapsed:.2f}s)")


def _pv_from_q(qs):
    return validate_probability_vector([1.0 - q for q in qs])


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "counterexample instance reproduces all four reference totals", 1.0):
        pv = validate_probability_vector([0.4, 0.4, 0.01, 0.01])
        assert abs(dp_ordered(pv, "S").total - 2.83794) <= 1e-4
        assert abs(dp_ordered(pv, "Dp").total - 2.8438) <= 1e-4
        assert abs(exhaustive_set(pv, "S").total - 2.832) <= 1e-4
        assert abs(exhaustive_set(pv, "Dp").total - 2.832) <= 1e-4


def test_criterion_2_closed_form_vs_recursion():
    with criterion(2, "Sterrett closed form equals the recursive oracle on 1000 groups", 5.0):
        rng = random.Random(101)
        for _ in range(1000):
            k = rng.randint(1, 12)
            pv = validate_probability_vector([rng.uniform(0.01, 0.99) for _ in range(k)])
            g = Group(items=tuple(range(k)))
            assert abs(group_cost(g, pv, "S") - cost_sterrett_recursive(g, pv)) <= 1e-12 * k


def test_criterion_3_protocol_outcome_oracle():
    with criterion(
        3, "probability-weighted protocol test counts equal the closed forms for k <= 10", 30.0
    ):
        rng = random.Random(102)
        for k in range(1, 11):
            pv = validate_probability_vector([rng.uniform(0.02, 0.98) for _ in range(k)])
            g = Group(items=tuple(range(k)))
            for proc in ("D", "Dp", "S"):
                exact = exact_expected_tests(g, pv, proc)
                assert abs(exact - group_cost(g, pv, proc)) <= 1e-12


def test_criterion_4_arrangement_optimality():
    with criterion(4, "arrangements achieve the exact minimum over all k! orders", 60.0):
        rng = random.Random(103)
        for _ in range(500):
            k = rng.randint(1, 7)
            pv = validate_probability_vector([rng.uniform(0.01, 0.99) for _ in range(k)])
            g = Group(items=tuple(range(k)))
            # every order costed by the given-order kernels on its q tuple, in
            # the arithmetic group_cost applies to the same order
            orders = list(itertools.permutations(pv.q))
            best_s = min(map(_cost_sterrett_q, orders))
            assert group_cost(arranged_cost(g, pv, "S")[0], pv, "S") == best_s
            best_dp = min(_cost_modified_dorfman_q((q[-1], *sorted(q[:-1]))) for q in orders)
            arranged = arranged_cost(g, pv, "Dp")[0]
            assert group_cost(arranged, pv, "Dp") == best_dp


def test_criterion_5_dp_vs_exhaustive_ordered():
    with criterion(5, "DP equals exhaustive ordered-partition search on 200 instances", 60.0):
        rng = random.Random(104)
        for _ in range(200):
            n = rng.randint(1, 12)
            pv = validate_probability_vector([rng.uniform(0.01, 0.99) for _ in range(n)])
            for proc in ("D", "Dp", "S"):
                a = dp_ordered(pv, proc).total
                b = exhaustive_ordered(pv, proc).total
                assert abs(a - b) <= 1e-12 * max(1.0, a)


def assert_matches_reference(m):
    """Run the study at m replicates per target and check all 24 means
    against the reference table, within three of its standard errors
    scaled to m replicates."""
    rows = run_study(StudyConfig(p_targets=tuple(REFERENCE_ROWS), n=100, m=m, seed=STUDY_SEED))
    scale = math.sqrt(1000 / m)
    for row in rows:
        ref = REFERENCE_ROWS[row.p]
        for name, mine in (
            ("D", row.d_mean),
            ("Dp", row.dp_mean),
            ("S", row.s_mean),
            ("H", row.h_mean),
        ):
            mean, se = ref[name]
            assert abs(mine - mean) <= 3 * se * scale, (
                f"p={row.p} {name}: {mine:.4f} vs {mean} "
                f"(tolerance {3 * se * scale:.4f})"
            )


def test_criterion_6_study_reproduction():
    with criterion(
        6, "desk-scale study matches the reference table on all 24 means", 600.0
    ):
        assert_matches_reference(STUDY_M)


def test_criterion_7_information_bounds():
    with criterion(7, "coding bounds hold and no plan beats the prefix-code length", 120.0):
        rng = random.Random(105)
        for _ in range(200):
            n = rng.randint(1, 12)
            pv = validate_probability_vector([rng.uniform(0.02, 0.98) for _ in range(n)])
            h = entropy_bits(pv.probs)
            length = huffman_length(pv)
            assert h - 1e-9 <= length <= h + 1.0 + 1e-9
            for proc in ("D", "Dp", "S"):
                assert dp_ordered(pv, proc).total >= length - 1e-9
        # two items, both good-probabilities above 1/2 with s*(1+L) > 1:
        # the sequential procedures attain the prefix-code length exactly
        done = 0
        while done < 100:
            small = rng.uniform(0.51, 0.99)
            lo = max(small, (1.0 - small) / small)
            if lo >= 0.999:
                continue
            big = rng.uniform(lo + 1e-6, 0.999)
            pv = validate_probability_vector([1.0 - big, 1.0 - small])
            cost = group_cost(Group(items=(0, 1)), pv, "S")
            assert abs(cost - huffman_length(pv)) <= 1e-12
            done += 1


def test_criterion_8_no_pooling_above_threshold():
    with criterion(8, "all-singleton plans with total exactly N above the threshold", 10.0):
        rng = random.Random(106)
        for _ in range(100):
            n = rng.randint(1, 40)
            pv = validate_probability_vector([rng.uniform(0.382, 0.999) for _ in range(n)])
            sorted_pv, _ = sort_ascending(pv)
            for proc in ("D", "Dp", "S"):
                result = dp_ordered(pv, proc)
                assert result.plan.sizes == (1,) * n
                assert result.total == float(n)
                # the raw table (no threshold shortcut) must agree exactly
                assert dp_table(sorted_pv, proc).total == float(n)


def test_criterion_9_dominance_sweep():
    with criterion(9, "optimal ordered totals satisfy S <= Dp <= D on 1000 low-risk instances", 120.0):
        rng = random.Random(107)
        for _ in range(1000):
            n = rng.randint(1, 50)
            pv = validate_probability_vector([rng.uniform(1e-9, 0.3) for _ in range(n)])
            sorted_pv, _ = sort_ascending(pv)
            s = dp_table(sorted_pv, "S").total
            dp_ = dp_table(sorted_pv, "Dp").total
            d = dp_table(sorted_pv, "D").total
            assert s <= dp_ + 1e-12
            assert dp_ <= d + 1e-12


def test_criterion_10_pair_interchange():
    with criterion(10, "swapping the middle pair never raises the cost", 5.0):
        rng = random.Random(108)
        for _ in range(1000):
            q1, q2, q3, q4 = sorted((rng.uniform(0.01, 0.99) for _ in range(4)), reverse=True)
            ordered, swapped = pair_costs(q1, q2, q3, q4)
            assert swapped <= ordered + 1e-12


def test_criterion_11_published_scale_study():
    with criterion(
        11, "published-scale study (M = 1000) matches the reference table on all 24 means", 60.0
    ):
        assert_matches_reference(1000)


if __name__ == "__main__":
    tests = [
        (int(name.split("_")[2]), fn)
        for name, fn in globals().items()
        if name.startswith("test_criterion")
    ]
    failures = 0
    for _, fn in sorted(tests):
        try:
            fn()
        except BaseException as exc:  # keep going so every line prints
            failures += 1
            print(f"  -> {exc}")
    raise SystemExit(1 if failures else 0)
