import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pooltest.cost import arranged_cost, evaluate_plan, group_cost
from pooltest.model import Group, OrderedPartition, SetPartition, validate_probability_vector
from reference import cost_sterrett_equal_prob, cost_sterrett_recursive


def pv_from_q(qs):
    return validate_probability_vector([1.0 - q for q in qs])


def whole_group(pv):
    return Group(items=tuple(range(pv.n)))


q_lists = st.lists(
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False), min_size=1, max_size=12
)


class TestDorfman:
    def test_single_item(self):
        assert group_cost(whole_group(pv_from_q([0.2])), pv_from_q([0.2]), "D") == 1.0

    def test_three_items_equal_q(self):
        pv = pv_from_q([0.9, 0.9, 0.9])
        assert group_cost(whole_group(pv), pv, "D") == pytest.approx(1.813, abs=1e-12)

    def test_pair(self):
        pv = pv_from_q([0.99, 0.6])
        assert group_cost(whole_group(pv), pv, "D") == pytest.approx(1.812, abs=1e-12)

    @given(q_lists)
    def test_order_invariant(self, qs):
        pv = pv_from_q(qs)
        base = group_cost(whole_group(pv), pv, "D")
        perm = tuple(reversed(range(pv.n)))
        assert group_cost(Group(items=perm), pv, "D") == pytest.approx(base, rel=1e-12)


class TestModifiedDorfman:
    def test_pair(self):
        pv = pv_from_q([0.9, 0.8])
        assert group_cost(whole_group(pv), pv, "Dp") == pytest.approx(1.38, abs=1e-12)

    def test_three_items_equal_q(self):
        pv = pv_from_q([0.9, 0.9, 0.9])
        assert group_cost(whole_group(pv), pv, "Dp") == pytest.approx(1.732, abs=1e-12)

    def test_single_item(self):
        pv = validate_probability_vector([0.99])
        assert group_cost(whole_group(pv), pv, "Dp") == 1.0

    @given(q_lists)
    def test_never_exceeds_dorfman(self, qs):
        pv = pv_from_q(qs)
        g = whole_group(pv)
        assert group_cost(g, pv, "Dp") <= group_cost(g, pv, "D") + 1e-12

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    def test_equals_sterrett_for_pairs(self, q1, q2):
        pv = pv_from_q([q1, q2])
        g = whole_group(pv)
        assert group_cost(g, pv, "Dp") == pytest.approx(group_cost(g, pv, "S"), abs=1e-12)


class TestSterrett:
    def test_pair(self):
        pv = pv_from_q([0.9, 0.8])
        assert group_cost(whole_group(pv), pv, "S") == pytest.approx(1.38, abs=1e-12)

    def test_triple(self):
        pv = pv_from_q([0.9, 0.95, 0.6])
        assert group_cost(whole_group(pv), pv, "S") == pytest.approx(2.067, abs=1e-12)

    def test_single_item(self):
        pv = validate_probability_vector([0.5])
        assert group_cost(whole_group(pv), pv, "S") == 1.0

    def test_recursion_matches_pair(self):
        pv = pv_from_q([0.9, 0.8])
        assert cost_sterrett_recursive(whole_group(pv), pv) == pytest.approx(1.38, abs=1e-12)

    def test_recursion_matches_chain_of_five(self):
        pv = pv_from_q([0.9, 0.8, 0.7, 0.6, 0.5])
        g = whole_group(pv)
        assert abs(group_cost(g, pv, "S") - cost_sterrett_recursive(g, pv)) <= 1e-12 * 5

    def test_recursion_single_item(self):
        pv = validate_probability_vector([0.3])
        assert cost_sterrett_recursive(whole_group(pv), pv) == 1.0

    @given(q_lists)
    @settings(max_examples=300)
    def test_recursion_agrees_with_closed_form(self, qs):
        pv = pv_from_q(qs)
        g = whole_group(pv)
        assert abs(group_cost(g, pv, "S") - cost_sterrett_recursive(g, pv)) <= 1e-12 * pv.n


class TestEqualProbability:
    def test_pair(self):
        assert cost_sterrett_equal_prob(2, 0.9) == pytest.approx(1.29, abs=1e-12)

    def test_triple(self):
        assert cost_sterrett_equal_prob(3, 0.9) == pytest.approx(1.661, abs=1e-12)

    def test_single(self):
        assert cost_sterrett_equal_prob(1, 0.5) == 1.0

    @given(st.integers(min_value=1, max_value=50), st.floats(min_value=0.01, max_value=0.99))
    def test_matches_general_form_on_constant_vectors(self, k, q):
        pv = pv_from_q([q] * k)
        general = group_cost(whole_group(pv), pv, "S")
        assert abs(cost_sterrett_equal_prob(k, q) - general) <= 1e-12 * max(1, k)


class TestArrangements:
    def test_sterrett_triple_example(self):
        pv = pv_from_q([0.95, 0.9, 0.6])
        arranged = arranged_cost(whole_group(pv), pv, "S")[0]
        assert pv.q[arranged.items[0]] == 0.9
        assert pv.q[arranged.items[1]] == 0.95
        assert pv.q[arranged.items[2]] == 0.6
        assert group_cost(arranged, pv, "S") == pytest.approx(2.067, abs=1e-12)

    def test_sterrett_pair_larger_q_first(self):
        pv = pv_from_q([0.8, 0.9])
        arranged = arranged_cost(whole_group(pv), pv, "S")[0]
        assert [pv.q[i] for i in arranged.items] == [0.9, 0.8]

    def test_sterrett_singleton_unchanged(self):
        pv = validate_probability_vector([0.2])
        arranged = arranged_cost(whole_group(pv), pv, "S")[0]
        assert arranged.items == (0,)

    def test_modified_dorfman_smallest_q_last(self):
        pv = pv_from_q([0.6, 0.99])
        arranged = arranged_cost(whole_group(pv), pv, "Dp")[0]
        assert [pv.q[i] for i in arranged.items] == [0.99, 0.6]
        assert group_cost(arranged, pv, "Dp") == pytest.approx(1.416, abs=1e-12)

    def test_modified_dorfman_equal_q_invariant(self):
        pv = pv_from_q([0.9, 0.9, 0.9])
        arranged = arranged_cost(whole_group(pv), pv, "Dp")[0]
        assert group_cost(arranged, pv, "Dp") == pytest.approx(1.732, abs=1e-12)

    # dyadic grid values keep every product exactly representable, so the
    # exact-tie assertion cannot be disturbed by rounding
    dyadic_q = st.integers(min_value=1, max_value=127).map(lambda n: n / 128.0)

    @given(st.lists(dyadic_q, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_sterrett_arrangement_is_minimal(self, qs):
        pv = pv_from_q(qs)
        g = whole_group(pv)
        best = min(
            group_cost(Group(items=perm), pv, "S")
            for perm in itertools.permutations(range(pv.n))
        )
        assert group_cost(arranged_cost(g, pv, "S")[0], pv, "S") == best

    @given(st.lists(dyadic_q, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_modified_dorfman_arrangement_is_minimal(self, qs):
        pv = pv_from_q(qs)
        g = whole_group(pv)
        best = min(
            group_cost(Group(items=perm), pv, "Dp")
            for perm in itertools.permutations(range(pv.n))
        )
        assert group_cost(arranged_cost(g, pv, "Dp")[0], pv, "Dp") == best

    def test_sterrett_beats_smallest_last_rule_on_larger_groups(self):
        # the simple rule (ascending head, smallest q last) is exact for
        # k <= 3; from k = 4 it is usually beaten
        pv = pv_from_q([0.507, 0.949, 0.969, 0.992])
        g = whole_group(pv)
        simple = group_cost(Group(items=(1, 2, 3, 0)), pv, "S")
        optimal = group_cost(arranged_cost(g, pv, "S")[0], pv, "S")
        brute = min(
            group_cost(Group(items=perm), pv, "S")
            for perm in itertools.permutations(range(pv.n))
        )
        assert optimal == brute
        assert optimal < simple - 1e-6

    @given(st.lists(st.sampled_from([0.5, 0.7, 0.8, 0.9, 0.95, 0.99]), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_sterrett_tied_values_send_the_lowest_index_last(self, qs):
        # equal q values make one order by value; of the value that goes
        # last, the lowest-indexed item is the one moved to the end
        pv = pv_from_q(qs)
        last = arranged_cost(whole_group(pv), pv, "S")[0].items[-1]
        assert last == qs.index(qs[last])


@given(q_lists)
def test_cost_ranges(qs):
    pv = pv_from_q(qs)
    g = whole_group(pv)
    k = pv.n
    assert 1.0 <= group_cost(g, pv, "S") <= 2 * k - 1 + 1e-12
    assert 1.0 <= group_cost(g, pv, "D") <= k + 1 + 1e-12
    assert 1.0 <= group_cost(g, pv, "Dp") <= k + 1 + 1e-12


@given(
    st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=1, max_size=8),
    st.data(),
)
def test_costs_weakly_decrease_when_any_q_rises(qs, data):
    pv = pv_from_q(qs)
    g = whole_group(pv)
    idx = data.draw(st.integers(min_value=0, max_value=len(qs) - 1))
    raised = list(qs)
    raised[idx] = min(0.999, raised[idx] + 0.05)
    pv_up = pv_from_q(raised)
    for procedure in ("D", "Dp", "S"):
        assert group_cost(g, pv_up, procedure) <= group_cost(g, pv, procedure) + 1e-12


class TestEvaluatePlan:
    def test_ordered_partition_blocks_and_total(self):
        pv = validate_probability_vector([0.4, 0.4, 0.01, 0.01])
        report = evaluate_plan(OrderedPartition(sizes=(3, 1)), pv, "S", arrange="optimal")
        assert report.total == pytest.approx(2.83794, abs=1e-12)
        assert len(report.per_block) == 2
        assert {len(b.items) for b in report.per_block} == {1, 3}

    def test_set_partition_given_order(self):
        pv = validate_probability_vector([0.4, 0.4, 0.01, 0.01])
        plan = SetPartition(blocks=((0, 2), (1, 3)))
        optimal = evaluate_plan(plan, pv, "S", arrange="optimal")
        assert optimal.total == pytest.approx(2.832, abs=1e-12)
        given_order = evaluate_plan(plan, pv, "S", arrange="given")
        # blocks as written put the risky item first, which costs more
        assert given_order.total > optimal.total

    def test_size_mismatch_rejected(self):
        pv = validate_probability_vector([0.1, 0.2])
        with pytest.raises(ValueError):
            evaluate_plan(OrderedPartition(sizes=(3,)), pv, "S")

    def test_cover_mismatch_rejected(self):
        pv = validate_probability_vector([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            evaluate_plan(SetPartition(blocks=((0, 1),)), pv, "S")
