import math
import random

import numpy as np
import pytest

import pooltest.tables
from pooltest.model import (
    REL_TOL,
    InstanceTooLargeError,
    NotSortedError,
    sort_ascending,
    validate_probability_vector,
)
from pooltest.optimize import dp_table
from pooltest.tables import _budgeted_stops, _row_stops, dp_totals

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


@pytest.mark.parametrize("m", [1, 2, 5, 10])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_totals_equal_dp_table_bit_for_bit(procedure, s_rule, family, m):
    rng = random.Random(f"{procedure}-{s_rule}-{family}-{m}")
    for n in (1, 2, 3, 17, 40, 100, rng.randint(4, 80)):
        assert_bitwise(batch(rng, family, m, n), procedure, s_rule)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_published_replicate_count_equals_dp_table_bit_for_bit(procedure, s_rule, family):
    # the study's m = 1000, on tables small enough for 1000 dp_table calls
    rng = random.Random(f"{procedure}-{s_rule}-{family}-1000")
    for n in (1, 3, 12):
        assert_bitwise(batch(rng, family, 1000, n), procedure, s_rule)


def test_rescan_keeps_the_scan_order():
    # two items whose block costs 3 - 2 q^2 = 2 - 2e-13: below the two
    # singletons' 2, but not by REL_TOL, so the scan, which starts from the
    # trailing singleton, keeps it; a scan from the first start would not
    p = 1 - math.sqrt(0.5 + 1e-13)
    pv = validate_probability_vector([p, p])
    assert 2.0 - REL_TOL * 2.0 < 3.0 - 2.0 * (pv.q[0] * pv.q[1]) < 2.0
    assert dp_table(pv, "D").total == 2.0
    assert_bitwise([pv, validate_probability_vector([0.01, 0.01]), pv], "D", "optimal")


def test_tied_batches_rerun_the_scan(monkeypatch):
    # near ties send rows to the sequential scan; without them the minimum stands
    calls = []
    scan = pooltest.tables._scan
    monkeypatch.setattr(pooltest.tables, "_scan", lambda c: calls.append(c) or scan(c))
    rng = random.Random(5)
    for procedure, s_rule in PROCEDURE_RULES:
        calls.clear()
        assert_bitwise(batch(rng, "tied", 10, 40), procedure, s_rule)
        assert calls, (procedure, s_rule)
    calls.clear()
    assert_bitwise(batch(rng, "uniform", 10, 40), "D", "optimal")
    assert calls == []


def batch_rows(monkeypatch, q, procedure, s_rule="optimal"):
    """``dp_totals`` on ``q``, with the first block start each row visits."""
    seen = []
    run = pooltest.tables._chunk_totals
    monkeypatch.setattr(
        pooltest.tables, "_chunk_totals", lambda qT, p, r, lo: seen.append(lo) or run(qT, p, r, lo)
    )
    totals = dp_totals(q, procedure, s_rule)
    assert seen and all(lo == seen[0] for lo in seen)
    return totals, seen[0]


@pytest.mark.parametrize("procedure", ["D", "Dp"])
def test_risky_batches_are_cut(monkeypatch, procedure):
    # the stops of the columnwise largest q cut rows of every replicate,
    # and only starts whose product is below 0.5/(N+1) in each of them
    rng = random.Random(7)
    pvs = batch(rng, "risky", 10, 100)
    q = q_matrix(pvs)
    totals, lo = batch_rows(monkeypatch, q, procedure)
    assert totals.tolist() == [dp_table(pv, procedure).total for pv in pvs]
    assert lo == [stop + 1 for stop in _row_stops(q.max(axis=0).tolist(), procedure)[0]]
    assert lo[-1] > 0
    threshold = 0.5 / len(lo)  # len(lo) = N + 1
    for k in range(2, len(lo)):
        end = k if procedure == "D" else k - 1  # product of q[i..end-1]
        for i in range(lo[k]):
            for pv in pvs:
                assert math.prod(pv.q[i:end]) < threshold, (procedure, k, i)


@pytest.mark.parametrize("procedure", ["D", "Dp"])
def test_one_low_risk_replicate_leaves_no_row_cut(monkeypatch, procedure):
    # its products bound the columnwise largest q's from below
    rng = random.Random(13)
    pvs = [*batch(rng, "risky", 4, 100), sort_ascending(validate_probability_vector([1e-4] * 100))[0]]
    assert all(_row_stops(pv.q, procedure)[0][-1] >= 0 for pv in pvs[:-1])
    totals, lo = batch_rows(monkeypatch, q_matrix(pvs), procedure)
    assert totals.tolist() == [dp_table(pv, procedure).total for pv in pvs]
    assert lo == [0] * 101


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_one_replicate_runs_dp_tables_stops(monkeypatch, procedure, s_rule, family):
    rng = random.Random(f"one-{procedure}-{family}")
    for n in (1, 2, 40, 100):
        (pv,) = batch(rng, family, 1, n)
        totals, lo = batch_rows(monkeypatch, q_matrix([pv]), procedure, s_rule)
        assert totals.tolist() == [dp_table(pv, procedure, s_rule).total]
        assert lo == [stop + 1 for stop in _row_stops(pv.q, procedure)[0]]


@pytest.mark.parametrize("m", [1, 2, 10])
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_one_budget_check_per_call(monkeypatch, procedure, s_rule, m):
    calls = []
    budgeted = pooltest.tables._budgeted_stops
    monkeypatch.setattr(
        pooltest.tables, "_budgeted_stops", lambda q, p, r: calls.append(p) or budgeted(q, p, r)
    )
    rng = random.Random(17)
    for family in ("uniform", "risky"):
        pvs = batch(rng, family, m, 40)
        calls.clear()
        totals = dp_totals(q_matrix(pvs), procedure, s_rule)
        assert calls == [procedure]
        assert totals.tolist() == [dp_table(pv, procedure, s_rule).total for pv in pvs]


@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_budget_counts_the_cells_of_the_columnwise_largest_q(monkeypatch, procedure, s_rule):
    # refused, with _budgeted_stops' message, exactly when those cells are
    # over the budget, even where every replicate's own table fits it
    rng = random.Random(19)
    gaps = 0
    for family in ("uniform", "risky", "risky"):
        pvs = batch(rng, family, 5, 40)
        q = q_matrix(pvs)
        cells = _row_stops(q.max(axis=0).tolist(), procedure)[1]
        own = max(_row_stops(pv.q, procedure)[1] for pv in pvs)
        assert own <= cells
        gaps += own < cells
        for budget in sorted({own - 1, own, cells - 1, cells, cells + 1}):
            monkeypatch.setattr(pooltest.tables, "DP_CELL_BUDGET", budget)
            if cells <= budget:
                assert_bitwise(pvs, procedure, s_rule)
                continue
            with pytest.raises(InstanceTooLargeError) as expected:
                _budgeted_stops(q.max(axis=0)[None, :], procedure, s_rule)
            with pytest.raises(InstanceTooLargeError) as batched:
                dp_totals(q, procedure, s_rule)
            assert str(batched.value) == str(expected.value)
            assert f"cell count {cells} " in str(batched.value)
    assert (gaps > 0) == (procedure != "S")  # the S table is never cut


@pytest.mark.parametrize("chunk, calls", [(1, 7), (16 * 40 * 3, 3), (16 * 40 * 7, 1)])
@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_replicate_chunks(monkeypatch, procedure, s_rule, chunk, calls):
    # CHUNK_DRAWS // (16 N) replicates at a time: one, three or all seven of
    # the 40-item batch, and at least one when N is over CHUNK_DRAWS / 16
    monkeypatch.setattr(pooltest.tables, "CHUNK_DRAWS", chunk)
    chunks = []
    run = pooltest.tables._chunk_totals
    monkeypatch.setattr(
        pooltest.tables, "_chunk_totals", lambda qT, *a: chunks.append(qT.shape[1]) or run(qT, *a)
    )
    rng = random.Random(11)
    for family in ("uniform", "risky"):
        chunks.clear()
        assert_bitwise(batch(rng, family, 7, 40), procedure, s_rule)
        assert len(chunks) == calls and sum(chunks) == 7


@pytest.mark.parametrize("procedure,s_rule", PROCEDURE_RULES)
def test_refused_above_cell_budget_like_dp_table(procedure, s_rule):
    # the same message as dp_table, before any DP work; every procedure and
    # rule shares one budget
    pv = validate_probability_vector([1e-4] * 5300)
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


@pytest.mark.parametrize(
    "procedure, s_rule", [("X", "optimal"), ("S", "largest-last")], ids=["procedure", "s_rule"]
)
def test_both_engines_refuse_in_one_order(procedure, s_rule):
    # unsorted and also a bad procedure or rule: both engines name the
    # procedure or rule, which they check before the order
    pv = validate_probability_vector([0.3, 0.1, 0.2])
    with pytest.raises(ValueError) as scalar:
        dp_table(pv, procedure, s_rule)
    with pytest.raises(ValueError) as batched:
        dp_totals(q_matrix([pv, pv]), procedure, s_rule)
    assert type(scalar.value) is type(batched.value) is ValueError
    assert str(scalar.value) == str(batched.value)
