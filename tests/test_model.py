import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pooltest.model import (
    EmptyInputError,
    Group,
    OrderedPartition,
    OutOfRangeError,
    ProbabilityVector,
    SetPartition,
    json_text,
    plan_from_json,
    sort_ascending,
    validate_probability_vector,
)

probs_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False), min_size=1, max_size=30
)


def test_validate_single_entry():
    pv = validate_probability_vector([0.5])
    assert pv.n == 1
    assert pv.probs == (0.5,)


def test_validate_counterexample_vector():
    # p_i = 1 - q_i for good-probabilities {0.6, 0.6, 0.99, 0.99}
    pv = validate_probability_vector([0.4, 0.4, 0.01, 0.01])
    assert pv.n == 4
    assert pv.q == (0.6, 0.6, 0.99, 0.99)


def test_validate_rejects_boundary_zero():
    with pytest.raises(OutOfRangeError) as exc:
        validate_probability_vector([0.0, 0.5])
    assert exc.value.index == 1
    assert exc.value.value == 0.0


def test_validate_rejects_boundary_one():
    with pytest.raises(OutOfRangeError) as exc:
        validate_probability_vector([0.5, 1.0])
    assert exc.value.index == 2


def test_first_entry_too_large_for_a_float_is_named():
    # the first of two integers that overflow a float, in one pass
    with pytest.raises(ValueError, match="^entry 2: probability is not strictly inside"):
        ProbabilityVector([0.1, 10**400, 10**500])


def test_first_bad_entry_is_named_whatever_its_fault():
    # an entry out of range is named before a later one that overflows
    with pytest.raises(OutOfRangeError) as exc:
        ProbabilityVector([0.1, 1.5, 10**400])
    assert exc.value.index == 2


def test_validate_rejects_empty():
    with pytest.raises(EmptyInputError):
        validate_probability_vector([])


def test_q_never_stored():
    pv = validate_probability_vector([0.25])
    assert pv.q == (0.75,)


def test_sort_ascending_example():
    pv = validate_probability_vector([0.4, 0.01, 0.4, 0.01])
    s, perm = sort_ascending(pv)
    assert s.probs == (0.01, 0.01, 0.4, 0.4)
    assert perm == (1, 3, 0, 2)


def test_sort_ascending_singleton():
    s, perm = sort_ascending(validate_probability_vector([0.5]))
    assert s.probs == (0.5,)
    assert perm == (0,)


def test_sort_ascending_stable_on_ties():
    _, perm = sort_ascending(validate_probability_vector([0.3, 0.3]))
    assert perm == (0, 1)


@given(probs_strategy)
def test_sort_ascending_idempotent(raw):
    pv = validate_probability_vector(raw)
    once, _ = sort_ascending(pv)
    twice, perm2 = sort_ascending(once)
    assert twice == once
    assert perm2 == tuple(range(pv.n))


def test_group_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Group(items=(0, 0))
    with pytest.raises(EmptyInputError):
        Group(items=())


def test_group_range_check():
    g = Group(items=(0, 5))
    with pytest.raises(ValueError):
        g.check_against(validate_probability_vector([0.1, 0.2]))
    with pytest.raises(ValueError, match="group items must be nonnegative indices"):
        Group(items=(0, -1))


def test_ordered_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition(sizes=(2, 0))
    with pytest.raises(EmptyInputError):
        OrderedPartition(sizes=())
    assert OrderedPartition(sizes=(2, 3)).n == 5


def test_set_partition_validation():
    with pytest.raises(ValueError, match="^item 1 appears in more than one block$"):
        SetPartition(blocks=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="^set partition blocks must be nonempty$"):
        SetPartition(blocks=((0,), ()))
    sp = SetPartition(blocks=((0, 2), (1,)))
    sp.check_cover(3)
    with pytest.raises(ValueError):
        sp.check_cover(4)


@pytest.mark.parametrize(
    "blocks, message",
    [(((0, 0),), "item 0 appears twice in block 1"),
     (((0, 1), (2, 3, 2)), "item 2 appears twice in block 2")],
    ids=["first-block", "later-block"],
)
def test_set_partition_names_a_repeat_within_one_block(blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SetPartition(blocks=blocks)


@pytest.mark.parametrize(
    "make",
    [
        lambda: OrderedPartition(sizes=(1.9, 2.1)),
        lambda: SetPartition(blocks=((0.5, True),)),
        lambda: Group(items=(1.7, 0)),
    ],
    ids=["sizes", "blocks", "group"],
)
def test_plan_types_reject_non_integral_entries(make):
    with pytest.raises(ValueError, match="entry 1: .* is not an integer"):
        make()


@pytest.mark.parametrize(
    "entry, accepted",
    [(True, None), (2.0, 2), (2.5, None), (np.int64(3), 3), (Fraction(1, 2), None), ("1", None)],
    ids=["bool", "integral-float", "fraction-float", "numpy-int", "fraction", "string"],
)
def test_plan_entry_types(entry, accepted):
    if accepted is None:
        with pytest.raises(ValueError, match="ordered_sizes entry 2: .* is not an integer"):
            OrderedPartition(sizes=(1, entry))
    else:
        sizes = OrderedPartition(sizes=(1, entry)).sizes
        assert sizes == (1, accepted) and type(sizes[1]) is int


def test_plan_types_accept_integral_numbers():
    assert Group(items=tuple(np.arange(3))).items == (0, 1, 2)
    assert OrderedPartition(sizes=(2.0, np.int64(1))).sizes == (2, 1)
    assert SetPartition(blocks=((1.0, 0),)).blocks == ((1, 0),)


# round-trips through the JSON forms


def _roundtrip(obj, from_json):
    return from_json(json.loads(json.dumps(obj.to_json())))


@given(probs_strategy)
def test_probability_vector_roundtrip(raw):
    pv = validate_probability_vector(raw)
    assert ProbabilityVector.from_json(json.loads(json.dumps({"p": list(pv.probs)}))) == pv


def test_probability_vector_ids_are_ignored():
    # a length mismatch is an input error, checked in test_cli
    pv = ProbabilityVector.from_json({"p": [0.1, 0.2], "ids": ["a", "b"]})
    assert pv == validate_probability_vector([0.1, 0.2])


def test_plan_roundtrips():
    op = OrderedPartition(sizes=(1, 3, 2))
    assert _roundtrip(op, plan_from_json) == op
    sp = SetPartition(blocks=((0, 2), (1, 3)))
    assert _roundtrip(sp, plan_from_json) == sp
    assert sp.to_json() == {"blocks": [[1, 3], [2, 4]]}


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), "\u2603\n\"\\", ""]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.integers()),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


@given(json_values)
# lists of plain ints are joined in one step; bools and int subclasses
# take the general path, so True still prints as true
@example([True, 1, 2])
@example([1, False, 0])
@example({"order": [Colour.RED, Colour.BLUE, 3]})
def test_json_text_is_json_dumps_indent_2(payload):
    assert json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "leaf", [object(), {1}, np.int64(1), 1j], ids=["object", "set", "int64", "complex"]
)
@pytest.mark.parametrize(
    "wrap", [lambda x: x, lambda x: [1, x], lambda x: {"a": [0.5, {"b": x}]}],
    ids=["bare", "in-list", "nested"],
)
def test_json_text_refuses_as_json_dumps(leaf, wrap):
    # an unserializable leaf raises json.dumps's own TypeError
    payload = wrap(leaf)
    with pytest.raises(TypeError) as want:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(payload)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key", [1, None, (1, 2), 0.5])
def test_json_text_refuses_non_str_keys(key):
    # json.dumps would write 1, None and 0.5 as strings; json_text takes str keys only
    with pytest.raises(TypeError):
        json_text({"a": {key: 1}})
