import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pooltest.simulate
from pooltest.bounds import outcome_distribution
from pooltest.cost import evaluate_plan, group_cost
from pooltest.model import (
    Group,
    InstanceTooLargeError,
    OrderedPartition,
    ProbabilityVector,
    SetPartition,
    validate_probability_vector,
)
from pooltest.optimize import dp_ordered
from pooltest.simulate import (
    CHUNK_DRAWS,
    count_tests,
    estimate_cost,
    exact_expected_tests,
    sample_beta_one,
    stream_generator,
)
from pooltest.study import StudyConfig
from reference import PROTOCOLS, run_sterrett


def group_of(k):
    return Group(items=tuple(range(k)))


def count_one(procedure, defects):
    return int(count_tests(np.array([defects], dtype=bool), procedure)[0])


def all_vectors(k):
    return np.array(list(itertools.product([False, True], repeat=k)), dtype=bool)


def count_chunks(monkeypatch, draws):
    """Set CHUNK_DRAWS to ``draws`` and count the calls of ``count_tests``."""
    calls = []

    def counting(defects, procedure):
        calls.append(len(defects))
        return count_tests(defects, procedure)

    monkeypatch.setattr(pooltest.simulate, "CHUNK_DRAWS", draws)
    monkeypatch.setattr(pooltest.simulate, "count_tests", counting)
    return calls


class TestDorfmanProtocol:
    def test_negative_pool(self):
        assert count_one("D", (False, False, False)) == 1

    def test_positive_pool_tests_everyone(self):
        assert count_one("D", (False, True, False)) == 4

    def test_single_item(self):
        assert count_one("D", (True,)) == 1


class TestModifiedDorfmanProtocol:
    def test_last_item_inferred(self):
        assert count_one("Dp", (False, False, True)) == 3

    def test_early_positive_forces_all_tests(self):
        assert count_one("Dp", (True, False, False)) == 4

    def test_negative_pool(self):
        assert count_one("Dp", (False, False)) == 1

    def test_never_more_tests_than_dorfman(self):
        for k in range(1, 9):
            vectors = all_vectors(k)
            assert (count_tests(vectors, "Dp") <= count_tests(vectors, "D")).all()


class TestSterrettProtocol:
    def test_trailing_defective_inferred(self):
        assert count_one("S", (False, False, True)) == 3

    def test_middle_defective_restarts(self):
        # pool, item 1, item 2 positive, then a fresh single-item test
        assert count_one("S", (False, True, False)) == 4

    def test_negative_pool(self):
        assert count_one("S", (False, False)) == 1

    def test_all_defective_worst_case(self):
        for k in range(1, 8):
            assert count_one("S", (True,) * k) <= 2 * k - 1

    def test_deep_group_iterative(self):
        k = 10_000
        defects = tuple(i % 3 == 0 for i in range(k))
        assert count_one("S", defects) == run_sterrett(defects)


@pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
def test_block_counter_matches_executors(procedure):
    # every defect vector of every block size up to 10, one per row
    run = PROTOCOLS[procedure]
    for k in range(1, 11):
        vectors = all_vectors(k)
        assert count_tests(vectors, procedure).tolist() == [run(d) for d in vectors]


@pytest.mark.parametrize("k", [1, 3])
def test_counter_rejects_unknown_procedure(k):
    with pytest.raises(ValueError, match="unknown procedure"):
        count_tests(np.zeros((1, k), dtype=bool), "X")


class TestExactExpectation:
    """Probability-weighted enumeration of every defect vector must
    reproduce the closed forms; this ties the formulas to the protocols."""

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_small_groups_random_probs(self, procedure):
        rng = random.Random(7)
        for k in range(1, 8):
            pv = validate_probability_vector([rng.uniform(0.02, 0.98) for _ in range(k)])
            g = group_of(k)
            exact = exact_expected_tests(g, pv, procedure)
            assert exact == pytest.approx(group_cost(g, pv, procedure), abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_sterrett_property(self, probs):
        pv = validate_probability_vector(probs)
        g = group_of(pv.n)
        assert exact_expected_tests(g, pv, "S") == pytest.approx(
            group_cost(g, pv, "S"), abs=1e-12
        )

    @staticmethod
    def executor_expected_tests(group, pv, procedure):
        # reference: one executor run per outcome, summed in mask order
        run = PROTOCOLS[procedure]
        weights = outcome_distribution(ProbabilityVector(tuple(pv.probs[i] for i in group.items)))
        total = 0.0
        for mask, w in enumerate(weights.tolist()):
            d = tuple(bool(mask >> t & 1) for t in range(group.size))
            total += w * run(d)
        return total

    @staticmethod
    def shuffled_group(rng, k, pv):
        return Group(items=tuple(rng.sample(range(pv.n), k)))

    def check(self, group, pv, procedure):
        expected = self.executor_expected_tests(group, pv, procedure)
        assert exact_expected_tests(group, pv, procedure) == expected

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_equals_executor_loop(self, procedure):
        # random and tied risks, members in shuffled order
        rng = random.Random(11)
        for k in range(1, 13):
            for probs in (
                [rng.uniform(0.01, 0.99) for _ in range(k + 2)],
                [rng.choice([0.05, 0.3, 0.5]) for _ in range(k + 2)],
            ):
                pv = validate_probability_vector(probs)
                self.check(self.shuffled_group(rng, k, pv), pv, procedure)

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_two_chunks(self, procedure, monkeypatch):
        # 2^13 = 8192 outcomes in chunks of 3000: two whole ones and a short one
        calls = count_chunks(monkeypatch, 13 * 3000)
        rng = random.Random(13)
        pv = validate_probability_vector([rng.uniform(0.01, 0.6) for _ in range(15)])
        self.check(self.shuffled_group(rng, 13, pv), pv, procedure)
        assert calls == [3000, 3000, 2192]

    def test_small_chunks(self, monkeypatch):
        rng = random.Random(17)
        # chunks of 3 outcomes: 8 = 3 + 3 + 2 and 512 = 170 * 3 + 2
        for k, chunks in ((3, 3), (9, 171)):
            calls = count_chunks(monkeypatch, 3 * k)
            pv = validate_probability_vector([rng.uniform(0.01, 0.99) for _ in range(k)])
            g = self.shuffled_group(rng, k, pv)
            for procedure in ("D", "Dp", "S"):
                calls.clear()
                self.check(g, pv, procedure)
                assert len(calls) == chunks and calls[-1] == 2

    def test_guard_size(self):
        # k = 20 is the largest group outcome_distribution accepts; the 2^k
        # sum itself drifts about 1e-11 relative from the closed form there
        rng = random.Random(20)
        pv = validate_probability_vector([rng.uniform(0.01, 0.3) for _ in range(20)])
        g = self.shuffled_group(rng, 20, pv)
        assert exact_expected_tests(g, pv, "S") == pytest.approx(group_cost(g, pv, "S"), rel=1e-9)

    def test_refuses_groups_above_outcome_guard(self):
        pv = validate_probability_vector([0.1] * 21)
        with pytest.raises(InstanceTooLargeError):
            exact_expected_tests(group_of(21), pv, "S")

    def test_bad_inputs_raise_value_error(self):
        # the CLI maps ValueError to exit 2, as for group_cost and the searches
        pv = validate_probability_vector([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="unknown procedure"):
            exact_expected_tests(group_of(3), pv, "X")
        with pytest.raises(ValueError, match="out of range"):
            exact_expected_tests(Group(items=(0, 5)), pv, "S")


class TestStreamGenerator:
    def test_same_address_same_draws(self):
        a = stream_generator(9, (3,)).random(5)
        b = stream_generator(9, (3,)).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = stream_generator(9, (0,)).random(5)
        b = stream_generator(9, (1,)).random(5)
        assert not np.array_equal(a, b)


class TestEstimateCost:
    def test_singleton_plan_is_deterministic(self):
        pv = validate_probability_vector([0.3, 0.5, 0.7])
        plan = OrderedPartition(sizes=(1, 1, 1))
        summary = estimate_cost(plan, pv, "S", 50, 1)
        assert summary.mean_tests == 3.0
        assert summary.std_error == 0.0

    def test_pair_matches_closed_form(self):
        pv = validate_probability_vector([0.1, 0.2])
        plan = OrderedPartition(sizes=(2,))
        summary = estimate_cost(plan, pv, "S", 40_000, 11)
        assert summary.std_error > 0
        assert abs(summary.mean_tests - 1.38) <= 4 * summary.std_error

    def test_counterexample_pairing(self):
        pv = validate_probability_vector([0.4, 0.4, 0.01, 0.01])
        plan = SetPartition(blocks=((0, 2), (1, 3)))
        summary = estimate_cost(plan, pv, "S", 40_000, 12)
        assert abs(summary.mean_tests - 2.832) <= 4 * summary.std_error

    def test_reproducible(self):
        pv = validate_probability_vector([0.2, 0.3, 0.4])
        plan = OrderedPartition(sizes=(3,))
        a = estimate_cost(plan, pv, "Dp", 500, 5)
        b = estimate_cost(plan, pv, "Dp", 500, 5)
        assert a == b

    def test_rejects_single_replicate(self):
        pv = validate_probability_vector([0.2])
        with pytest.raises(ValueError):
            estimate_cost(OrderedPartition(sizes=(1,)), pv, "S", 1, 1)

    def test_rejects_unknown_procedure(self):
        pv = validate_probability_vector([0.2, 0.3])
        with pytest.raises(ValueError, match="unknown procedure"):
            estimate_cost(OrderedPartition(sizes=(2,)), pv, "X", 10, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_64_bits(self, monkeypatch, seed):
        monkeypatch.setattr(pooltest.simulate, "stream_generator", lambda *a: pytest.fail("drew"))
        pv = validate_probability_vector([0.2, 0.3])
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            estimate_cost(OrderedPartition(sizes=(2,)), pv, "S", 10, seed)

    def test_names_the_replicate_count_before_the_seed(self, monkeypatch):
        # Monte Carlo and the study refuse a bad run by one rule: m first
        monkeypatch.setattr(pooltest.simulate, "stream_generator", lambda *a: pytest.fail("drew"))
        pv = validate_probability_vector([0.2, 0.3])
        for refused in (lambda: estimate_cost(OrderedPartition(sizes=(2,)), pv, "S", 1, -1),
                        lambda: StudyConfig(m=1, seed=2**64)):
            with pytest.raises(ValueError, match="^at least two replicates are required$"):
                refused()

    def test_given_order_matches_its_own_closed_form(self):
        # blocks costed exactly as written: the risky item first is the
        # expensive way around, and the estimate must track that form
        pv = validate_probability_vector([0.4, 0.01])
        plan = SetPartition(blocks=((0, 1),))
        expected = evaluate_plan(plan, pv, "S", arrange="given").total
        summary = estimate_cost(plan, pv, "S", 40_000, 31, arrange="given")
        assert expected == pytest.approx(1.806, abs=1e-12)
        assert abs(summary.mean_tests - expected) <= 4 * summary.std_error

    def test_consistency_over_seeds(self):
        # the mean should land within four standard errors nearly always
        pv = validate_probability_vector([0.15, 0.3, 0.45])
        plan = OrderedPartition(sizes=(3,))
        expected = evaluate_plan(plan, pv, "S", arrange="optimal").total
        hits = 0
        for seed in range(100):
            s = estimate_cost(plan, pv, "S", 2000, seed)
            if abs(s.mean_tests - expected) <= 4 * s.std_error:
                hits += 1
        assert hits >= 99


def scalar_estimate(plan, pv, procedure, m, seed, arrange="optimal"):
    """Reference copy of the Monte Carlo loop: the run's stream gives one
    flat draw of m·n uniforms, row r of it is replicate r, and each defect
    vector runs through the scalar executors block by block. Returns the
    mean and standard error from the full list of per-replicate totals, and
    that list."""
    report = evaluate_plan(plan, pv, procedure, arrange=arrange)
    p = np.asarray(pv.probs)
    uniforms = stream_generator(seed, (0,)).random(m * pv.n).reshape(m, pv.n)
    totals = []
    for r in range(m):
        defective = uniforms[r] < p
        totals.append(
            sum(PROTOCOLS[procedure](defective[list(b.order)]) for b in report.per_block)
        )
    s, sq = sum(totals), sum(t * t for t in totals)
    se = math.sqrt((m * sq - s * s) / (m * (m - 1))) / math.sqrt(m)
    return s / m, se, totals


class TestEstimateCostMatchesScalarLoop:
    """The chunked array counts reproduce the per-replicate executor loop
    bit for bit, on the same draws."""

    PV = validate_probability_vector([0.02, 0.3, 0.05, 0.11, 0.4, 0.01, 0.2, 0.07, 0.15, 0.09])

    def check(self, plan, procedure, m, seed, arrange="optimal", pv=PV):
        summary = estimate_cost(plan, pv, procedure, m, seed, arrange=arrange)
        mean, se, totals = scalar_estimate(plan, pv, procedure, m, seed, arrange=arrange)
        assert (summary.mean_tests, summary.std_error) == (mean, se)
        assert summary.mean_tests == float(np.mean(totals))
        assert summary.std_error == pytest.approx(
            statistics.stdev(totals) / math.sqrt(m), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    @pytest.mark.parametrize("arrange", ["optimal", "given"])
    def test_ordered_plan(self, procedure, arrange):
        plan = OrderedPartition(sizes=(1, 3, 4, 2))
        self.check(plan, procedure, 700, 4, arrange)

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    @pytest.mark.parametrize("arrange", ["optimal", "given"])
    def test_set_partition_plan(self, procedure, arrange):
        plan = SetPartition(blocks=((4, 0, 7), (1, 5), (2, 9, 3, 8, 6)))
        self.check(plan, procedure, 700, 9, arrange)

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_second_stream(self, procedure):
        plan = OrderedPartition(sizes=(6, 4))
        self.check(plan, procedure, 500, 3)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_extreme_seeds(self, seed):
        self.check(OrderedPartition(sizes=(3, 7)), "S", 300, seed)

    def test_replicates_across_a_chunk_boundary(self):
        m = CHUNK_DRAWS // self.PV.n + 3
        plan = SetPartition(blocks=((0, 2, 4, 6, 8), (1, 3, 5, 7, 9)))
        self.check(plan, "S", m, 17)

    def test_small_chunks(self, monkeypatch):
        # chunks of 64 replicates: three whole ones and a short last one,
        # each counted block by block
        calls = count_chunks(monkeypatch, 64 * self.PV.n)
        for procedure in ("D", "Dp", "S"):
            calls.clear()
            self.check(OrderedPartition(sizes=(2, 5, 3)), procedure, 64 * 3 + 5, 6)
            assert calls == [64] * 9 + [5] * 3

    def test_one_row_chunks(self, monkeypatch):
        # a draw budget below n still takes one whole replicate per chunk
        monkeypatch.setattr(pooltest.simulate, "CHUNK_DRAWS", 1)
        rng = random.Random(23)
        pv = validate_probability_vector([rng.uniform(1e-4, 0.3) for _ in range(200)])
        plan = dp_ordered(pv, "S").plan
        for procedure in ("D", "Dp", "S"):
            self.check(plan, procedure, 150, 8, pv=pv)


class TestBetaSampler:
    @pytest.mark.parametrize("beta", [0.37, 1.0, 9.0, 999.0])
    def test_quantile_bit_for_bit(self, beta):
        # each uniform of one rng.random call through the quantile in Python
        # floats; at these betas no draw lands on 0 or 1 and is redrawn
        clone = stream_generator(24, (0,))
        expected = [1.0 - (1.0 - u) ** (1.0 / beta) for u in clone.random(500).tolist()]
        assert sample_beta_one(500, beta, stream_generator(24, (0,))) == expected

    def test_quantile_rejects_bad_beta(self):
        rng = stream_generator(25, (0,))
        state = rng.bit_generator.state
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="^beta must be positive$"):
                sample_beta_one(3, beta, rng)
        assert rng.bit_generator.state == state  # refused before any draw

    def test_mean_matches_target(self):
        # Beta(1, 9) has mean 0.1
        rng = stream_generator(21, (0,))
        draws = sample_beta_one(40_000, 9.0, rng)
        assert np.mean(draws) == pytest.approx(0.1, abs=0.005)

    def test_sd_matches_target(self):
        # for mean 0.1 the population sd is 0.1 * sqrt(0.9 / 1.1) = 0.0905
        rng = stream_generator(22, (0,))
        beta = (1 - 0.1) / 0.1
        draws = sample_beta_one(40_000, beta, rng)
        assert np.std(draws, ddof=1) == pytest.approx(0.0905, abs=0.003)

    def test_draws_strictly_inside_unit_interval(self):
        rng = stream_generator(23, (0,))
        draws = sample_beta_one(2000, 0.01, rng)  # heavy mass near 1
        assert len(draws) == 2000
        assert all(0.0 < x < 1.0 for x in draws)
