import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pooltest.bounds import (
    MAX_OUTCOME_N,
    all_above_ungar,
    check_bounds,
    entropy_bits,
    huffman_length,
    outcome_distribution,
    UNGAR_THRESHOLD,
)
from pooltest.cost import group_cost
from pooltest.model import Group, InstanceTooLargeError, validate_probability_vector
from pooltest.optimize import dp_ordered, exhaustive_set


def pv(probs):
    return validate_probability_vector(probs)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy_bits(pv([0.5]).probs) == pytest.approx(1.0, abs=1e-15)

    def test_additivity_of_fair_coins(self):
        assert entropy_bits(pv([0.5] * 100).probs) == pytest.approx(100.0, abs=1e-9)

    def test_two_items(self):
        assert entropy_bits(pv([0.1, 0.2]).probs) == pytest.approx(1.1909, abs=1e-4)

    def test_matches_outcome_distribution_entropy(self):
        # independent oracle: brute-force entropy of the full 2^N pattern
        # distribution must agree with the per-item sum
        rng = random.Random(2)
        for _ in range(20):
            v = pv([rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 8))])
            dist = outcome_distribution(v)
            brute = float(-(dist * np.log2(dist)).sum())
            assert entropy_bits(v.probs) == pytest.approx(brute, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=10),
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=10),
    )
    @settings(max_examples=200)
    def test_additive_over_concatenation(self, a, b):
        assert entropy_bits(pv(a + b).probs) == pytest.approx(
            entropy_bits(pv(a).probs) + entropy_bits(pv(b).probs), abs=1e-12
        )


class TestOutcomeDistribution:
    def test_sums_to_one_and_positive(self):
        dist = outcome_distribution(pv([0.1, 0.5, 0.9]))
        assert len(dist) == 8
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist > 0).all()

    def test_index_convention(self):
        dist = outcome_distribution(pv([0.1, 0.3]))
        # bit 0 = item 0 defective, bit 1 = item 1 defective
        assert dist[0] == pytest.approx(0.9 * 0.7, abs=1e-15)
        assert dist[1] == pytest.approx(0.1 * 0.7, abs=1e-15)
        assert dist[2] == pytest.approx(0.9 * 0.3, abs=1e-15)

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            outcome_distribution(pv([0.5] * 21))

    @pytest.mark.parametrize("shape", ["random", "tied", "near-boundary"])
    def test_bit_identical_to_concatenated_halves(self, shape):
        # the in-place fill forms the same products in the same places as
        # doubling the array by concatenation, item by item
        rng = random.Random(shape)
        edges = [5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
        for n in range(1, 15):
            probs = {
                "random": [rng.uniform(1e-4, 0.3) for _ in range(n)],
                "tied": [0.01] * n,
                "near-boundary": [rng.choice(edges) for _ in range(n)],
            }[shape]
            dist = np.ones(1)
            for p in probs:
                dist = np.concatenate([dist * (1.0 - p), dist * p])
            assert np.array_equal(outcome_distribution(pv(probs)), dist)


class TestHuffman:
    def test_single_item(self):
        assert huffman_length(pv([0.37])) == pytest.approx(1.0, abs=1e-15)

    def test_two_items_hand_merge(self):
        # outcomes {0.72, 0.18, 0.08, 0.02} merge to lengths (1, 2, 3, 3):
        # L = 0.72 + 0.36 + 0.24 + 0.06 = 1.38
        assert huffman_length(pv([0.1, 0.2])) == pytest.approx(1.38, abs=1e-12)

    def test_two_item_sequential_cost_attains_length(self):
        v = pv([0.1, 0.2])
        group = Group(items=(0, 1))  # larger q first
        assert group_cost(group, v, "S") == pytest.approx(huffman_length(v), abs=1e-12)

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            huffman_length(pv([0.5] * 21))

    @given(st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_noiseless_coding_bounds(self, probs):
        v = pv(probs)
        h = entropy_bits(v.probs)
        length = huffman_length(v)
        assert h - 1e-9 <= length <= h + 1.0 + 1e-9


def heap_huffman_length(v):
    """Reference Huffman construction with a binary heap."""
    heap = outcome_distribution(v).tolist()
    heapq.heapify(heap)
    length = 0.0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        heapq.heappush(heap, merged)
        length += merged
    return length


def one_merge_huffman_length(v):
    """Reference two-queue Huffman that makes one merge at a time."""
    leaves = np.sort(outcome_distribution(v)).tolist() + [math.inf]
    sums = [math.inf] * len(leaves)
    i = j = 0
    length = 0.0
    for w in range(len(leaves) - 2):
        pair = []
        for _ in range(2):
            if sums[j] < leaves[i]:
                pair.append(sums[j])
                j += 1
            else:
                pair.append(leaves[i])
                i += 1
        sums[w] = pair[0] + pair[1]
        length += sums[w]
    return length


def tiny_risks(rng, n):
    return [rng.uniform(1e-6, 1e-4) for _ in range(n)]


def log_uniform_risks(rng, n):
    return [math.exp(rng.uniform(math.log(1e-6), math.log(0.5))) for _ in range(n)]


class TestTwoQueueMatchesHeap:
    def test_random_risks(self):
        rng = random.Random(8)
        for _ in range(150):
            v = pv([rng.uniform(1e-4, 0.95) for _ in range(rng.randint(1, 12))])
            assert huffman_length(v) == heap_huffman_length(v)

    def test_tied_risks(self):
        rng = random.Random(9)
        for _ in range(150):
            n = rng.randint(1, 12)
            v = pv([rng.choice([0.05, 0.1, 0.2, 0.5]) for _ in range(n)])
            assert huffman_length(v) == heap_huffman_length(v)

    @pytest.mark.parametrize("p", [1e-9, 0.37, 0.5, 0.99])
    def test_single_item(self, p):
        assert huffman_length(pv([p])) == heap_huffman_length(pv([p]))

    @pytest.mark.parametrize("risks", [tiny_risks, log_uniform_risks])
    def test_many_rounds(self, risks):
        # tiny or widely spread risks spread the pattern weights over many
        # scales, so the merge runs in many small rounds (about 180 at N = 14)
        rng = random.Random(risks.__name__)
        for n in [*(rng.randint(1, 12) for _ in range(100)), 13, 14, 15, 16]:
            v = pv(risks(rng, n))
            assert huffman_length(v) == heap_huffman_length(v)

    @pytest.mark.parametrize("base", [2.0, 1.5])
    def test_chain_risks(self, base):
        # risk odds base^-(2^i): every pattern outweighs all lighter ones
        # together, so every round merges one pair, padded with the next
        # leaf; the float range ends such chains at 11 items
        for n in range(1, 12):
            v = pv([o / (1.0 + o) for o in (base ** -(2**i) for i in range(n))])
            assert huffman_length(v) == heap_huffman_length(v), n

    def test_at_the_guard(self):
        # a heap takes seconds on 2^20 weights; the one-merge loop, checked
        # against the heap above, is the reference here
        v = pv(log_uniform_risks(random.Random(20), MAX_OUTCOME_N))
        assert huffman_length(v) == one_merge_huffman_length(v)

    def test_one_merge_reference_matches_heap(self):
        rng = random.Random(10)
        for n in [*(rng.randint(1, 12) for _ in range(50)), 14]:
            v = pv(log_uniform_risks(rng, n))
            assert one_merge_huffman_length(v) == heap_huffman_length(v)


class TestTwoItemOptimality:
    """With both good-probabilities above one half and the smaller one s
    satisfying s * (1 + L) > 1 for the larger L, the two-stage sequential
    procedures are optimal: their cost equals the prefix-code length."""

    def test_random_pairs(self):
        rng = random.Random(12)
        done = 0
        while done < 100:
            s = rng.uniform(0.51, 0.99)
            lo = max(s, (1.0 - s) / s)
            if lo >= 0.999:
                continue
            big = rng.uniform(lo + 1e-6, 0.999)
            v = pv([1.0 - big, 1.0 - s])  # larger q first
            group = Group(items=(0, 1))
            length = huffman_length(v)
            assert group_cost(group, v, "S") == pytest.approx(length, abs=1e-12)
            assert group_cost(group, v, "Dp") == pytest.approx(length, abs=1e-12)
            done += 1


class TestCheckBounds:
    def test_two_item_example(self):
        report = check_bounds(pv([0.1, 0.2]), achieved_cost=1.38)
        assert report.entropy_bits == pytest.approx(1.1909, abs=1e-4)
        assert report.huffman_bits == pytest.approx(1.38, abs=1e-12)
        assert report.coding_ok
        assert report.achieved_ok

    def test_single_item(self):
        report = check_bounds(pv([0.3]), achieved_cost=1.0)
        assert report.entropy_bits == pytest.approx(0.8813, abs=1e-4)
        assert report.huffman_bits == pytest.approx(1.0, abs=1e-15)
        assert report.coding_ok and report.achieved_ok

    def test_infeasible_cost_flagged(self):
        report = check_bounds(pv([0.5, 0.5]), achieved_cost=0.5)
        assert not report.achieved_ok

    def test_large_population_skips_huffman(self):
        report = check_bounds(pv([0.3] * 25), achieved_cost=30.0)
        assert report.huffman_bits is None
        assert report.coding_ok is None
        assert report.achieved_ok

    def test_plans_never_beat_the_prefix_code_bound(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(1, 10)
            v = pv([rng.uniform(0.02, 0.6) for _ in range(n)])
            length = huffman_length(v)
            for proc in ("D", "Dp", "S"):
                assert dp_ordered(v, proc).total >= length - 1e-9
            if n <= 8:
                assert exhaustive_set(v, "S").total >= length - 1e-9


class TestUngar:
    def test_threshold_value(self):
        assert UNGAR_THRESHOLD == pytest.approx(0.3819660113, abs=1e-9)

    def test_above(self):
        assert all_above_ungar(pv([0.39, 0.5]))

    def test_below(self):
        assert not all_above_ungar(pv([0.38, 0.5]))
