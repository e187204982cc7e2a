import random

import numpy as np
import pytest

import pooltest.batch
from pooltest.batch import dp_totals
from pooltest.model import (
    InstanceTooLargeError,
    NotSortedError,
    sort_ascending,
    validate_probability_vector,
)
from pooltest.optimize import _row_stops, dp_table

PROCEDURE_RULES = (("D", "optimal"), ("Dp", "optimal"), ("S", "optimal"), ("S", "smallest-last"))

# exact ties abound when risks are drawn from a few rationals
TIED_RISKS = (1 / 10, 1 / 20, 1 / 50, 1 / 5, 1 / 100, 3 / 10, 1 / 2)


def draw(rng, family, n):
    if family == "uniform":
        return [rng.uniform(0.001, 0.5) for _ in range(n)]
    if family == "tied":
        pool = rng.sample(TIED_RISKS, rng.randint(1, 3))
        return [rng.choice(pool) for _ in range(n)]
    if family == "log-uniform":
        return [10 ** rng.uniform(-6, -0.3) for _ in range(n)]
    # risky: the product of q falls below the width cut's 0.5/(N+1) within a
    # few items, and an item with q itself below it cuts every longer block
    return [rng.uniform(0.2, 0.6) if rng.random() < 0.9 else 1 - 10 ** rng.uniform(-7, -3)
            for _ in range(n)]


FAMILIES = ("uniform", "tied", "log-uniform", "risky")


def batch(rng, family, m, n):
    """m populations of n items, each sorted ascending by p."""
    return [sort_ascending(validate_probability_vector(draw(rng, family, n)))[0] for _ in range(m)]


def q_matrix(pvs):
    return np.array([pv.q for pv in pvs])


def assert_bitwise(pvs, procedure, s_rule):
    totals = dp_totals(q_matrix(pvs), procedure, s_rule)
    assert totals.tolist() == [dp_table(pv, procedure, s_rule).total for pv in pvs]


@pytest.mark.parametrize("m", [2, 10])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_totals_equal_dp_table_bit_for_bit(procedure, s_rule, family, m):
    rng = random.Random(f"{procedure}-{s_rule}-{family}-{m}")
    for n in (1, 2, 3, 17, 40, 100, rng.randint(4, 80)):
        assert_bitwise(batch(rng, family, m, n), procedure, s_rule)


def test_tied_batches_rerun_the_scan(monkeypatch):
    # near ties send rows to the sequential scan; without them the minimum stands
    calls = []
    scan = pooltest.batch._scan
    monkeypatch.setattr(pooltest.batch, "_scan", lambda c: calls.append(c) or scan(c))
    rng = random.Random(5)
    for procedure, s_rule in PROCEDURE_RULES:
        calls.clear()
        assert_bitwise(batch(rng, "tied", 10, 40), procedure, s_rule)
        assert calls, (procedure, s_rule)
    calls.clear()
    assert_bitwise(batch(rng, "uniform", 10, 40), "D", "optimal")
    assert calls == []


@pytest.mark.parametrize("procedure", ["D", "Dp"])
def test_risky_batches_are_cut(procedure):
    # the widest stop over the batch cuts rows of every replicate, and the
    # starts cut for some replicates only are costed harmlessly
    rng = random.Random(7)
    pvs = batch(rng, "risky", 10, 100)
    stops = [_row_stops(pv.q, procedure)[0] for pv in pvs]
    widest = [min(column) for column in zip(*stops)]
    assert widest[-1] >= 0
    assert any(len(set(column)) > 1 for column in zip(*stops))
    assert_bitwise(pvs, procedure, "optimal")


@pytest.mark.parametrize("chunk, calls", [(1, 7), (16 * 40 * 3, 3), (16 * 40 * 7, 1)])
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_replicate_chunks(monkeypatch, procedure, s_rule, chunk, calls):
    # CHUNK_DRAWS // (16 N) replicates at a time: one, three or all seven of
    # the 40-item batch, and at least one when N is over CHUNK_DRAWS / 16
    monkeypatch.setattr(pooltest.batch, "CHUNK_DRAWS", chunk)
    chunks = []
    run = pooltest.batch._chunk_totals
    monkeypatch.setattr(
        pooltest.batch, "_chunk_totals", lambda qT, *a: chunks.append(qT.shape[1]) or run(qT, *a)
    )
    rng = random.Random(11)
    for family in ("uniform", "risky"):
        chunks.clear()
        assert_bitwise(batch(rng, family, 7, 40), procedure, s_rule)
        assert len(chunks) == calls and sum(chunks) == 7


@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_refused_above_cell_budget_like_dp_table(procedure, s_rule):
    # the same message as dp_table, before any DP work; both S rules share
    # one budget
    n = 2801 if procedure == "S" else 5300
    pv = validate_probability_vector([1e-4] * n)
    with pytest.raises(InstanceTooLargeError) as scalar:
        dp_table(pv, procedure, s_rule)
    with pytest.raises(InstanceTooLargeError) as batched:
        dp_totals(q_matrix([pv, pv]), procedure, s_rule)
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda q: dp_totals(q[:, ::-1], "D"), NotSortedError, "sorted"),
        (lambda q: dp_totals(q, "X"), ValueError, "unknown procedure 'X'"),
        (lambda q: dp_totals(q, "S", "largest-last"), ValueError, "unknown Sterrett block rule"),
        (lambda q: dp_totals(q[0], "D"), ValueError, "nonempty"),
        (lambda q: dp_totals(q[:, :0], "D"), ValueError, "nonempty"),
    ],
    ids=["unsorted", "procedure", "s_rule", "one-dimensional", "empty"],
)
def test_rejects_bad_input(call, error, match):
    q = q_matrix(batch(random.Random(3), "uniform", 2, 5))
    with pytest.raises(error, match=match):
        call(q)
