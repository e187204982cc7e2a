import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pooltest.cost import (
    _arranged_cost_q,
    _cost_sterrett_q,
    _optimal_sterrett_ascending,
    _subset_costs,
    arranged_cost,
    evaluate_plan,
    group_cost,
)
from pooltest import optimize, tables
from pooltest.model import (
    REL_TOL,
    STERRETT_RULES,
    Group,
    InstanceTooLargeError,
    NotSortedError,
    OrderedPartition,
    sort_ascending,
    validate_probability_vector,
)
from pooltest.optimize import (
    DpTable,
    dp_ordered,
    dp_table,
    exhaustive_ordered,
    exhaustive_set,
)
from pooltest.tables import CHUNK, _budgeted_stops, _row_stops
from reference import (
    exact_block_cost,
    exact_sterrett,
    exact_table,
    ordered_mask_scan,
    pair_costs,
    scalar_sterrett_table,
    subset_costs,
    uncut_dorfman_table,
)

# q values {0.6, 0.6, 0.99, 0.99}: optimal ordered plans are beaten by an
# unordered pairing under both sequential procedures
COUNTEREXAMPLE = [0.4, 0.4, 0.01, 0.01]


def random_pv(rng, n, lo=0.01, hi=0.99):
    return validate_probability_vector([rng.uniform(lo, hi) for _ in range(n)])


# exact ties abound when risks are drawn from a few rationals
TIED_RISKS = (1 / 10, 1 / 20, 1 / 50, 1 / 5, 1 / 100, 3 / 10, 1 / 2)

PROCEDURE_RULES = (("D", "optimal"), ("Dp", "optimal"), ("S", "optimal"), ("S", "smallest-last"))


def risk_corpus(rng, count, max_n):
    """Uniform, tied and log-uniform risk vectors, sorted ascending by p."""
    for trial in range(count):
        n = rng.randint(1, max_n)
        if trial % 3 == 0:
            probs = [rng.uniform(0.001, 0.5) for _ in range(n)]
        elif trial % 3 == 1:
            pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
            probs = [rng.choice(pool) for _ in range(n)]
        else:
            probs = [10 ** rng.uniform(-6, -0.3) for _ in range(n)]
        yield sort_ascending(validate_probability_vector(probs))[0]


def block_cost(v, procedure, s_rule):
    """One-shot cost of a block whose q values ``v`` ascend, arranged as
    ``dp_table(..., procedure, s_rule)`` arranges it: by the library's
    kernel, or for S smallest-last with the ascending head and the smallest
    q last, the rule only ``dp_table`` keeps."""
    if s_rule == "smallest-last":
        return _cost_sterrett_q((*v[1:], v[0]))
    return _arranged_cost_q(v, procedure)[0]


def reference_dp(qs, procedure, s_rule):
    """The ordered-partition DP with every block costed afresh by the
    one-shot ``block_cost``, O(N^3), under dp_table's tie rule."""
    n = len(qs)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    for k in range(1, n + 1):
        best = bound = float("inf")
        for i in range(k - 1, -1, -1):
            cand = block_cost(qs[i:k][::-1], procedure, s_rule) + cost[i]
            if cand < bound:
                best, bound, split[k] = cand, cand - REL_TOL * cand, i
        cost[k] = best
    return cost, split


def ordered_oracle(pv, procedure, s_rule):
    """Total and block sizes of the cheapest ordered partition of ``pv``.

    The optimal arrangement asks ``exhaustive_ordered``; smallest-last,
    which the library's oracle does not cost, is a brute force here over
    all 2^(N-1) compositions under the same tie rule: bit t of a mask cuts
    after sorted position t, the masks count down from all cuts, and a
    later plan wins only if cheaper by more than REL_TOL.
    """
    if s_rule == "optimal":
        result = exhaustive_ordered(pv, procedure)
        return result.total, result.plan.sizes
    qs = sort_ascending(pv)[0].q
    n = len(qs)
    bc = {}
    best = bound = math.inf
    for mask in range((1 << (n - 1)) - 1, -1, -1):
        edges = [0, *(t + 1 for t in range(n - 1) if mask >> t & 1), n]
        blocks = list(zip(edges, edges[1:]))
        total = 0.0
        for a, b in blocks:
            if (a, b) not in bc:
                bc[a, b] = block_cost(qs[a:b][::-1], procedure, s_rule)
            total += bc[a, b]
        if total < bound:
            best, bound, sizes = total, total - REL_TOL * total, tuple(b - a for a, b in blocks)
    return best, sizes


def set_partitions(n):
    """All set partitions of {0..n-1}, blocks in creation order, in
    increasing restricted-growth-string order: item i joins each existing
    block in turn, then a new one."""

    def place(i, blocks):
        if i == n:
            yield tuple(map(tuple, blocks))
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from place(i + 1, blocks)
        blocks.pop()

    yield from place(1, [[0]])


def restricted_growth_string(blocks, n):
    label = {i: t for t, b in enumerate(sorted(blocks, key=min)) for i in b}
    return tuple(label[i] for i in range(n))


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


class TestCounterexampleInstance:
    def test_dp_sterrett(self):
        result = dp_ordered(validate_probability_vector(COUNTEREXAMPLE), "S")
        assert result.total == pytest.approx(2.83794, abs=1e-9)
        assert sorted(result.plan.sizes) == [1, 3]

    def test_dp_modified_dorfman(self):
        result = dp_ordered(validate_probability_vector(COUNTEREXAMPLE), "Dp")
        assert result.total == pytest.approx(2.8438, abs=1e-4)

    def test_exhaustive_set_pairing(self):
        result = exhaustive_set(validate_probability_vector(COUNTEREXAMPLE), "S")
        assert result.total == pytest.approx(2.832, abs=1e-9)
        assert result.plan.blocks == ((0, 2), (1, 3))

    def test_exhaustive_set_modified_dorfman(self):
        result = exhaustive_set(validate_probability_vector(COUNTEREXAMPLE), "Dp")
        assert result.total == pytest.approx(2.832, abs=1e-9)

    def test_exhaustive_ordered_matches_dp(self):
        pv = validate_probability_vector(COUNTEREXAMPLE)
        assert exhaustive_ordered(pv, "S").total == pytest.approx(
            dp_ordered(pv, "S").total, abs=1e-12
        )


class TestDpTable:
    def test_base_cases(self):
        pv, _ = sort_ascending(validate_probability_vector([0.1, 0.2, 0.3]))
        table = dp_table(pv, "S")
        assert table.cost_to_go[0] == 0.0
        assert table.cost_to_go[1] == 1.0

    def test_requires_sorted(self):
        pv = validate_probability_vector([0.3, 0.1])
        with pytest.raises(NotSortedError):
            dp_table(pv, "S")

    def test_singleton_append_bound(self):
        rng = random.Random(4)
        for _ in range(50):
            pv, _ = sort_ascending(random_pv(rng, rng.randint(1, 30)))
            for proc in ("D", "Dp", "S"):
                table = dp_table(pv, proc)
                for k in range(1, pv.n + 1):
                    assert table.cost_to_go[k] <= table.cost_to_go[k - 1] + 1.0 + 1e-12

    def test_plan_sizes_recover_total(self):
        rng = random.Random(5)
        for _ in range(30):
            pv = random_pv(rng, rng.randint(1, 15))
            result = dp_ordered(pv, "S")
            assert sum(result.plan.sizes) == pv.n

    def test_tie_break_prefers_small_trailing_block(self):
        # two identical items above the no-pooling threshold: {1}{1} ties with
        # nothing, and every split index yields the same cost, so the largest
        # split (singleton blocks) must be chosen
        pv, _ = sort_ascending(validate_probability_vector([0.5, 0.5]))
        table = dp_table(pv, "S")
        assert table.split[2] == 1
        assert table.plan_sizes() == (1, 1)


class TestDpAgainstExhaustive:
    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_random_instances(self, procedure):
        rng = random.Random(17)
        for _ in range(40):
            pv = random_pv(rng, rng.randint(1, 12))
            dp = dp_ordered(pv, procedure)
            brute = exhaustive_ordered(pv, procedure)
            assert abs(dp.total - brute.total) <= 1e-12 * max(1.0, dp.total)

    @pytest.mark.parametrize("s_rule", ["optimal", "smallest-last"])
    def test_sterrett_rules_consistent(self, s_rule):
        rng = random.Random(23)
        for _ in range(30):
            pv = random_pv(rng, rng.randint(1, 11))
            spv, _ = sort_ascending(pv)
            a = dp_table(spv, "S", s_rule=s_rule).total
            b = ordered_oracle(pv, "S", s_rule)[0]
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_optimal_rule_never_worse_than_smallest_last(self):
        rng = random.Random(29)
        for _ in range(40):
            pv, _ = sort_ascending(random_pv(rng, rng.randint(1, 25)))
            assert (
                dp_table(pv, "S", "optimal").total
                <= dp_table(pv, "S", "smallest-last").total + 1e-12
            )

    def test_single_item(self):
        pv = validate_probability_vector([0.5])
        assert exhaustive_ordered(pv, "S").total == 1.0
        assert dp_ordered(pv, "S").total == 1.0

    @pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
    def test_same_plan_on_tied_risks(self, procedure, s_rule):
        # both searches prefer the smallest trailing block, then the smallest
        # block before it, and switch only on a gain above REL_TOL
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 12)
            pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
            pv, _ = sort_ascending(validate_probability_vector([rng.choice(pool) for _ in range(n)]))
            dp = dp_table(pv, procedure, s_rule)
            _, sizes = ordered_oracle(pv, procedure, s_rule)
            assert dp.plan_sizes() == sizes, (pv.probs, procedure, s_rule)

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_ordered_oracle_breaks_ties_as_the_dp(self, procedure):
        # exhaustive_ordered keeps the first of equal-looking totals, and its
        # docstring says ties go as in the DP; half the corpus is tied
        rng = random.Random(67)
        for trial in range(1000):
            n = rng.randint(2, 10)
            if trial % 2:
                pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
                pv = validate_probability_vector([rng.choice(pool) for _ in range(n)])
            else:
                pv = random_pv(rng, n, hi=rng.choice((0.05, 0.3, 0.5, 0.9)))
            assert exhaustive_ordered(pv, procedure).plan == dp_ordered(pv, procedure).plan, pv.probs


class TestDpAgainstReference:
    @pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
    def test_matches_one_shot_block_costs(self, procedure, s_rule):
        # beyond exhaustive_ordered's guard: the running sums against blocks
        # costed afresh, same table entries and same splits
        rng = random.Random(67)
        for pv in risk_corpus(rng, 30, 60):
            table = dp_table(pv, procedure, s_rule)
            cost, split = reference_dp(pv.q, procedure, s_rule)
            if (procedure, s_rule) == ("S", "optimal"):
                # the one-shot kernel walks the DP's running minimum of phi
                # in the DP's arithmetic order, so the tables agree exactly
                assert table.cost_to_go == tuple(cost), pv.probs
            for a, b in zip(table.cost_to_go, cost):
                assert abs(a - b) <= REL_TOL * b, (pv.probs, procedure, s_rule)
            assert table.split == tuple(split), (pv.probs, procedure, s_rule)


class TestExactOracle:
    def test_sterrett_arrangement_is_the_cheapest_order(self):
        # the exact oracle tries each last value after the others ascending;
        # on small blocks, no order of the values costs less
        rng = random.Random(83)
        for _ in range(40):
            v = [Fraction(rng.uniform(0.3, 1.0)) for _ in range(rng.randint(1, 6))]
            best = min(map(exact_sterrett, itertools.permutations(v)))
            assert exact_block_cost(v, "S", "optimal") == best

    @pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
    def test_tables_within_float_error_of_exact(self, procedure, s_rule):
        # every cost-to-go entry within 1e-13 relative of the exact optimum,
        # on uniform, tied and log-uniform risks and on risks near 1e-12;
        # for D and Dp also on low risks, where (1 + m) - m P cancels most
        rng = random.Random(89)
        tiny = (
            sort_ascending(validate_probability_vector(
                [1e-12 * rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 12))]
            ))[0]
            for _ in range(10)
        )
        low = (
            sort_ascending(validate_probability_vector([rng.uniform(1e-6, 1e-3) for _ in range(24)]))[0]
            for _ in range(3 if procedure != "S" else 0)
        )
        for pv in itertools.chain(risk_corpus(rng, 30, 12), tiny, low):
            table = dp_table(pv, procedure, s_rule)
            exact = exact_table(pv.q, procedure, s_rule)[0]
            for got, want in zip(table.cost_to_go, exact):
                assert abs(Fraction(got) - want) <= want / 10**13, (pv.probs, procedure, s_rule)


def sterrett_corpus(rng, sizes):
    """Random, tied, log-uniform and p ~ 1e-12 risk vectors of each size, sorted."""
    draws = (
        lambda: rng.uniform(1e-4, 0.3),
        lambda: rng.choice(TIED_RISKS[:3]),
        lambda: 10 ** rng.uniform(-6, -0.3),
        lambda: 1e-12 * rng.uniform(0.5, 2.0),
    )
    for n in sizes:
        for draw in draws:
            yield sort_ascending(validate_probability_vector([draw() for _ in range(n)]))[0]


def cut_corpus(rng, count, max_n):
    """Random, tied, log-uniform, low-risk and risky vectors, sorted."""
    yield from risk_corpus(rng, count, max_n)
    for trial in range(count):
        n = rng.randint(1, max_n)
        if trial % 2:
            probs = [rng.uniform(1e-6, 1e-3) for _ in range(n)]
        else:
            probs = [min(rng.betavariate(1.0, 2.3), 0.999) or 0.5 for _ in range(n)]
        yield sort_ascending(validate_probability_vector(probs))[0]


def assert_scalar_sterrett_table(pv, s_rule):
    table = dp_table(pv, "S", s_rule)
    cost, split = scalar_sterrett_table(pv.q, s_rule)
    assert table.cost_to_go == tuple(cost), (pv.probs, s_rule)
    assert table.split == tuple(split), (pv.probs, s_rule)


class TestSterrettSlabs:
    """The S table runs in chunks of CHUNK rows of numpy slabs, and equals
    the one-cell-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("s_rule", STERRETT_RULES)
    def test_equal_to_scalar_loop(self, s_rule):
        B = CHUNK
        rng = random.Random(97)
        for pv in sterrett_corpus(rng, (1, B - 1, B, B + 1, 2 * B + 1, 150, 400)):
            assert_scalar_sterrett_table(pv, s_rule)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("s_rule", STERRETT_RULES)
    def test_equal_to_scalar_loop_in_small_chunks(self, monkeypatch, chunk, s_rule):
        # many chunk edges; on tied risks, rows whose settled candidates
        # tie within NEAR_TIE rescan them
        monkeypatch.setattr(tables, "CHUNK", chunk)
        rng = random.Random(101 + chunk)
        sizes = (chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3 * chunk + 2, 61)
        corpus = itertools.chain(sterrett_corpus(rng, sizes[chunk == 1 :]), risk_corpus(rng, 30, 60))
        for pv in corpus:
            assert_scalar_sterrett_table(pv, s_rule)


def near_one_corpus(rng, sizes):
    """Risks up to 1 - 1e-6 among low ones, sorted: many rows are cut
    whole, down to the trailing singleton, so chunks start on rows whose
    every longer block is cut."""
    def draw():
        return 1.0 - 10 ** rng.uniform(-6, -0.5) if rng.random() < 0.4 else rng.uniform(1e-4, 0.3)

    for n in sizes:
        yield sort_ascending(validate_probability_vector([draw() for _ in range(n)]))[0]


class TestDorfmanSlabs:
    """The D and Dp tables run in the same chunks of CHUNK rows, and equal
    the loop that tries every start bit for bit: across chunk edges, on
    rows cut inside a chunk or cut whole, and where near ties rescan."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, CHUNK])
    @pytest.mark.parametrize("procedure", ["D", "Dp"])
    def test_equal_to_uncut_loop(self, monkeypatch, procedure, chunk):
        monkeypatch.setattr(tables, "CHUNK", chunk)
        rng = random.Random(107 + chunk)
        sizes = (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)[chunk == 1 :]
        corpus = itertools.chain(
            sterrett_corpus(rng, sizes),
            near_one_corpus(rng, (*sizes, 60, 150)),
            cut_corpus(rng, 20, 200),
        )
        for pv in corpus:
            table = dp_table(pv, procedure)
            cost, split = uncut_dorfman_table(pv.q, procedure)
            assert table.cost_to_go == tuple(cost), (procedure, chunk, pv.probs)
            assert table.split == tuple(split), (procedure, chunk, pv.probs)


def rational_tied_corpus(rng):
    """Risks all 1/10, all 1/20, or a mix of the two, sorted."""
    for n in range(1, 13):
        for pool in ((1 / 10,), (1 / 20,), (1 / 10, 1 / 20), (1 / 10, 1 / 20)):
            risks = [rng.choice(pool) for _ in range(n)]
            yield sort_ascending(validate_probability_vector(risks))[0]


@pytest.fixture(scope="module")
def exact_tied_tables():
    """Each rational tied population with its exact table per procedure
    and Sterrett rule."""
    def table(pv, procedure, s_rule):
        return DpTable(*map(tuple, exact_table(pv.q, procedure, s_rule)))

    corpus = rational_tied_corpus(random.Random(103))
    return [(pv, {pair: table(pv, *pair) for pair in PROCEDURE_RULES}) for pv in corpus]


class TestExactTieRule:
    """On rational tied risks the candidates tie exactly, and the float
    searches must break every tie as the exact DP does: the largest i,
    unless a smaller one is strictly cheaper."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, CHUNK])
    def test_sterrett_splits(self, monkeypatch, exact_tied_tables, chunk):
        monkeypatch.setattr(tables, "CHUNK", chunk)
        for pv, exact_tables in exact_tied_tables:
            for s_rule in STERRETT_RULES:
                exact = exact_tables["S", s_rule]
                assert dp_table(pv, "S", s_rule).split == exact.split, (pv.probs, s_rule)

    @pytest.mark.parametrize("chunk", [1, 2, 7, CHUNK])
    def test_dorfman_splits(self, monkeypatch, exact_tied_tables, chunk):
        monkeypatch.setattr(tables, "CHUNK", chunk)
        for pv, exact_tables in exact_tied_tables:
            for procedure in ("D", "Dp"):
                exact = exact_tables[procedure, "optimal"]
                assert dp_table(pv, procedure).split == exact.split, (pv.probs, procedure)

    def test_ordered_oracle_plan(self, exact_tied_tables):
        for pv, exact_tables in exact_tied_tables:
            plan = exhaustive_ordered(pv, "S").plan
            assert plan.sizes == exact_tables["S", "optimal"].plan_sizes(), pv.probs


class TestWidthCut:
    @pytest.mark.parametrize("procedure", ["D", "Dp"])
    def test_same_table_as_every_start_tried(self, procedure):
        rng = random.Random(71)
        for pv in cut_corpus(rng, 30, 400):
            table = dp_table(pv, procedure)
            cost, split = uncut_dorfman_table(pv.q, procedure)
            assert table.cost_to_go == tuple(cost), (procedure, pv.probs)
            assert table.split == tuple(split), (procedure, pv.probs)

    @pytest.mark.parametrize("procedure", ["D", "Dp"])
    def test_cuts_only_starts_whose_product_is_small(self, procedure):
        # a cut start's product is below the threshold 0.5/(N+1), and a
        # visited one's is not below half of it; the cell count is the sum
        rng = random.Random(73)
        for pv in cut_corpus(rng, 30, 300):
            qs, n = pv.q, pv.n
            stops, cells = _row_stops(qs, procedure)
            threshold = 0.5 / (n + 1)
            for k in range(2, n + 1):
                end = k if procedure == "D" else k - 1  # product of qs[i..end-1]
                if stops[k] >= 0:
                    assert math.prod(qs[stops[k]:end]) < threshold, (procedure, pv.probs, k)
                if stops[k] + 1 <= k - 2:
                    assert math.prod(qs[stops[k] + 1:end]) >= threshold / 2, (pv.probs, k)
            assert cells == sum(max(0, k - 2 - stops[k]) for k in range(n + 1))

    @pytest.mark.parametrize("procedure", ["D", "Dp"])
    def test_stops_never_fall(self, procedure):
        # a chunk's slab begins at its first row's stop, which then holds
        # every start a later row of the chunk visits
        rng = random.Random(79)
        for pv in cut_corpus(rng, 30, 400):
            stops = _row_stops(pv.q, procedure)[0]
            assert all(a <= b for a, b in zip(stops, stops[1:])), (procedure, pv.probs)

    def test_low_risk_tables_are_not_cut(self):
        # the whole population's product stays above the threshold: no set-up
        pv = validate_probability_vector([0.001] * 300)
        for procedure in ("D", "Dp", "S"):
            assert _row_stops(pv.q, procedure) == ([-1] * 301, 300 * 299 // 2)

    @pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
    def test_refused_above_cell_budget(self, procedure, s_rule):
        # one budget for every procedure and rule: the full table of 5292
        # items is the largest that fits it
        assert _budgeted_stops(np.full((1, 5292), 1 - 1e-4), procedure, s_rule) == [-1] * 5293
        pv = validate_probability_vector([1e-4] * 5293)
        with pytest.raises(InstanceTooLargeError) as refused:
            dp_table(pv, procedure, s_rule)
        assert str(refused.value) == (
            f"{procedure} DP over 5293 items: cell count 14005278 "
            "exceeds the enumeration guard 14000000"
        )


class TestExhaustiveSet:
    # the first three check the brute-force reference ``set_partitions``
    def test_enumeration_counts_match_bell_numbers(self):
        assert sum(1 for _ in set_partitions(3)) == 5
        assert sum(1 for _ in set_partitions(5)) == 52

    def test_partitions_are_partitions(self):
        for blocks in set_partitions(4):
            items = sorted(i for b in blocks for i in b)
            assert items == [0, 1, 2, 3]

    def test_restricted_growth_strings_increase(self):
        for n in range(1, 9):
            strings = [restricted_growth_string(b, n) for b in set_partitions(n)]
            assert all(a < b for a, b in zip(strings, strings[1:]))
            assert len(strings) == BELL[n]

    def test_matches_brute_force_and_tie_rule(self):
        # plans within REL_TOL of the minimum tie; the oracle must return the
        # one with the lexicographically smallest restricted growth string
        rng = random.Random(59)
        for trial in range(300):
            n = rng.randint(1, 8)
            if trial % 2:
                pool = [rng.uniform(0.01, 0.45) for _ in range(rng.randint(1, 3))]
                pv = validate_probability_vector([rng.choice(pool) for _ in range(n)])
            else:
                pv = random_pv(rng, n, hi=0.5)
            for proc in ("D", "Dp", "S"):
                block_cost = {}
                totals = []
                for blocks in set_partitions(n):
                    total = 0.0
                    for b in blocks:
                        if b not in block_cost:
                            v = sorted(pv.q[i] for i in b)
                            block_cost[b] = _arranged_cost_q(v, proc)[0]
                        total += block_cost[b]
                    totals.append((total, blocks))
                best = min(t for t, _ in totals)
                tied = [b for t, b in totals if t - best <= REL_TOL * best]
                want = min(restricted_growth_string(b, n) for b in tied)
                result = exhaustive_set(pv, proc)
                assert abs(result.total - best) <= REL_TOL * best
                assert restricted_growth_string(result.plan.blocks, n) == want, (pv.probs, proc)

    def test_sandwich_below_dp(self):
        rng = random.Random(31)
        for _ in range(25):
            pv = random_pv(rng, rng.randint(1, 8))
            for proc in ("D", "Dp", "S"):
                unordered = exhaustive_set(pv, proc).total
                ordered = dp_ordered(pv, proc).total
                assert unordered <= ordered + 1e-12
                assert ordered <= pv.n + 1e-12

    def test_ordered_partition_optimal_for_dorfman(self):
        # Hwang (1975): under D some optimal set partition is ordered, its
        # blocks runs of the population sorted by risk; half the corpus is tied
        rng = random.Random(37)
        for trial in range(200):
            n = rng.randint(1, 10)
            if trial % 2:
                pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
                pv = validate_probability_vector([rng.choice(pool) for _ in range(n)])
            else:
                pv = random_pv(rng, n, hi=rng.choice((0.05, 0.3, 0.5, 0.9)))
            ordered = dp_ordered(pv, "D").total
            unordered = exhaustive_set(pv, "D").total
            assert abs(ordered - unordered) <= REL_TOL * unordered, pv.probs

    @pytest.mark.parametrize("proc", ["D", "Dp", "S"])
    def test_ordered_partition_optimal_for_equal_risks(self, proc):
        # with all risks equal every set partition is an ordered one up to
        # relabelling, so the DP's optimum is the set oracle's under every
        # procedure
        rng = random.Random(41)
        for _ in range(80):
            pv = validate_probability_vector([rng.uniform(0.001, 0.35)] * rng.randint(1, 10))
            ordered = dp_ordered(pv, proc).total
            unordered = exhaustive_set(pv, proc).total
            assert abs(ordered - unordered) <= REL_TOL * unordered, pv.probs

    def test_guards(self, monkeypatch):
        # each oracle refuses before it costs any block
        def no_work(*args):
            raise AssertionError("a block was costed")

        monkeypatch.setattr(optimize, "_subset_costs", no_work)
        monkeypatch.setattr(optimize, "_arranged_cost_q", no_work)
        for n in (16, 18):
            pv = validate_probability_vector([0.1] * n)
            with pytest.raises(InstanceTooLargeError):
                exhaustive_set(pv, "S")
        pv = validate_probability_vector([0.1] * 21)
        with pytest.raises(InstanceTooLargeError):
            exhaustive_ordered(pv, "S")
        pv = validate_probability_vector([0.1] * 5293)
        with pytest.raises(InstanceTooLargeError):
            dp_table(pv, "S")

    def test_report_matches_reevaluation(self):
        pv = validate_probability_vector(COUNTEREXAMPLE)
        result = exhaustive_set(pv, "S")
        again = evaluate_plan(result.plan, pv, "S", arrange="optimal")
        assert abs(result.total - again.total) <= 1e-12 * max(1.0, result.total)


def oracle_risks(rng, n, kind):
    """n risks: distinct, drawn from a few values, or all equal."""
    if kind == "distinct":
        return [rng.uniform(0.001, 0.5) for _ in range(n)]
    if kind == "tied":
        pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
        return [rng.choice(pool) for _ in range(n)]
    return [rng.uniform(0.001, 0.35)] * n


class TestExhaustivePasses:
    # the oracles' numpy passes against the scalar loops in ``reference``
    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_subset_costs_equal_the_per_subset_loop(self, procedure):
        rng = random.Random(71)
        for n in range(1, 13):
            for kind in ("distinct", "tied", "equal"):
                qs = validate_probability_vector(oracle_risks(rng, n, kind)).q
                got = _subset_costs(qs, procedure).tolist()
                assert got[1:] == subset_costs(qs, procedure)[1:], (qs, procedure)

    @pytest.mark.parametrize("procedure", ["D", "Dp", "S"])
    def test_ordered_plan_equals_the_mask_loop(self, procedure):
        rng = random.Random(73)
        for n in range(1, 15):
            for kind in ("distinct", "tied", "equal"):
                pv = validate_probability_vector(oracle_risks(rng, n, kind))
                result = exhaustive_ordered(pv, procedure)
                sizes, total = ordered_mask_scan(sort_ascending(pv)[0].q, procedure)
                assert result.plan.sizes == sizes, (pv.probs, procedure)
                assert abs(result.total - total) <= REL_TOL * total, (pv.probs, procedure)


def test_fast_block_cost_matches_arrangement_route():
    # the oracles' one-shot block cost on ascending q values and the public
    # arrange-then-cost path must agree for every procedure
    rng = random.Random(53)
    for _ in range(300):
        k = rng.randint(1, 12)
        pv = random_pv(rng, k)
        v = sorted(pv.q)
        g = Group(items=tuple(range(k)))
        for procedure in ("D", "Dp", "S"):
            fast = _arranged_cost_q(v, procedure)[0]
            _, slow = arranged_cost(g, pv, procedure)
            assert abs(fast - slow) <= 1e-12 * max(1.0, slow)
        fast, _ = _optimal_sterrett_ascending(v)
        slow = group_cost(arranged_cost(g, pv, "S")[0], pv, "S")
        assert abs(fast - slow) <= 1e-12 * max(1.0, slow)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pv, g: dp_table(pv, "X"), "unknown procedure 'X'"),
        (lambda pv, g: dp_table(pv, "S", "largest-last"), "unknown Sterrett block rule"),
        (lambda pv, g: exhaustive_ordered(pv, "X"), "unknown procedure 'X'"),
        (lambda pv, g: exhaustive_set(pv, "X"), "unknown procedure 'X'"),
        (lambda pv, g: group_cost(g, pv, "X"), "unknown procedure 'X'"),
        (lambda pv, g: arranged_cost(g, pv, "X"), "unknown procedure 'X'"),
        (lambda pv, g: evaluate_plan(OrderedPartition(sizes=(2,)), pv, "S", arrange="X"),
         "arrange must be 'optimal' or 'given'"),
    ],
    ids=["dp_table-procedure", "dp_table-s_rule", "exhaustive_ordered", "exhaustive_set",
         "group_cost", "arranged_cost", "evaluate_plan-arrange"],
)
def test_unknown_names_are_refused(call, message):
    pv = validate_probability_vector([0.1, 0.2])
    with pytest.raises(ValueError, match=message):
        call(pv, Group(items=(0, 1)))


class TestInterchange:
    def test_counterexample_quadruple(self):
        ordered, swapped = pair_costs(0.99, 0.99, 0.6, 0.6)
        assert ordered == pytest.approx(3.0699, abs=1e-9)
        assert swapped == pytest.approx(2.832, abs=1e-9)

    def test_equal_values_tie(self):
        ordered, swapped = pair_costs(0.7, 0.7, 0.7, 0.7)
        assert ordered == pytest.approx(swapped, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=4, max_size=4))
    @settings(max_examples=500)
    def test_swapped_never_worse(self, qs):
        q1, q2, q3, q4 = sorted(qs, reverse=True)
        ordered, swapped = pair_costs(q1, q2, q3, q4)
        assert swapped <= ordered + 1e-12


class TestStructuralProperties:
    def test_ungar_region_yields_singletons(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(1, 20)
            pv = validate_probability_vector([rng.uniform(0.39, 0.99) for _ in range(n)])
            for proc in ("D", "Dp", "S"):
                result = dp_ordered(pv, proc)
                assert result.plan.sizes == (1,) * n
                assert result.total == float(n)

    def test_dominance_chain_on_optimal_plans(self):
        # with m the D-optimal plan and m' the Dp-optimal plan:
        # E_Dp(m') <= E_Dp(m) <= E_D(m)
        rng = random.Random(41)
        for _ in range(40):
            pv = random_pv(rng, rng.randint(1, 30), hi=0.5)
            m = dp_ordered(pv, "D")
            mprime = dp_ordered(pv, "Dp")
            e_dp_on_m = evaluate_plan(m.plan, pv, "Dp", arrange="optimal").total
            assert mprime.total <= e_dp_on_m + 1e-12
            assert e_dp_on_m <= m.total + 1e-12

    def test_sequential_dominance_low_risk(self):
        rng = random.Random(43)
        for _ in range(40):
            pv = random_pv(rng, rng.randint(1, 25), hi=0.3)
            s = dp_ordered(pv, "S").total
            dp_ = dp_ordered(pv, "Dp").total
            d = dp_ordered(pv, "D").total
            assert s <= dp_ + 1e-12
            assert dp_ <= d + 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_sequential_dominance_on_any_risks(self, probs):
        pv, _ = sort_ascending(validate_probability_vector(probs))
        s, dp_, d = (dp_table(pv, procedure).total for procedure in ("S", "Dp", "D"))
        assert s <= dp_ * (1 + 1e-12)
        assert dp_ <= d * (1 + 1e-12)

    risks = st.one_of(st.floats(min_value=1e-6, max_value=0.9), st.sampled_from([0.01, 0.05, 0.3]))

    @given(st.lists(risks, min_size=1, max_size=24), risks, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_optimum_ignores_input_order_and_grows_with_items(self, probs, extra, rnd):
        pv = validate_probability_vector(probs)
        shuffled = validate_probability_vector(rnd.sample(probs, len(probs)))
        grown = validate_probability_vector([*probs, extra])
        for procedure in ("D", "Dp", "S"):
            total = dp_ordered(pv, procedure).total
            assert dp_ordered(shuffled, procedure).total == total
            assert dp_ordered(grown, procedure).total >= total * (1 - 1e-12)


def test_plan_result_json_shape():
    pv = validate_probability_vector(COUNTEREXAMPLE)
    payload = dp_ordered(pv, "S").to_json()
    assert payload["search"] == "dp-ordered"
    assert payload["plan"] == {"ordered_sizes": [3, 1]}
    assert payload["permutation"] == [3, 4, 1, 2]
    assert payload["report"]["total"] == pytest.approx(2.83794, abs=1e-9)
