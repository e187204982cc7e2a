"""Float error of the closed forms and the ordered-partition DP, against
exact rationals.

Each stored p is read as the exact rational it holds, and the references
in ``reference.py`` cost the exact 1 - p. The library derives q = 1 - p in
floats, then multiplies and sums in floats, so the error measured here is
that of both. The pinned bounds are the ones the ``cost`` docstring
states, as absolute errors on a block of N items, with u = 2^-53:

  distinct risks      4 N^1.5 u   the roundings partly cancel; measured
                                  at most 1.4 N^1.5 u
  tied or equal risks 2 N^2 u     the roundings of equal q share a sign;
                                  measured at most 0.7 N^2 u

A cost is at least one test, so each is also a bound on the relative error.

Exact products of hundreds of rationals are slow, so tier-1 stops at
N = 300, and the exact optimum over last values, O(N^2) exact products,
at N = 40. Above that a block is checked against the exact cost of the
order the library chose, which measures the arithmetic; the choice itself
is pinned exactly in ``test_optimize.py``.
"""

import math
import random
from fractions import Fraction

import pytest

from pooltest.cost import _given_cost_q, _optimal_sterrett_ascending, evaluate_plan
from pooltest.model import PROCEDURES, OrderedPartition, sort_ascending, validate_probability_vector
from pooltest.optimize import dp_table
from reference import exact_block_cost, exact_sterrett, exact_table

U = 2.0**-53  # unit roundoff of a float
EXACT_OPTIMUM_N = 40  # largest block whose exact optimum is computed


def pinned(n, shape):
    return 4 * n**1.5 * U if shape == "distinct" else 2 * n * n * U


def exact_q(pv):
    return [1 - Fraction(p) for p in pv.probs]


def exact_given(Q, procedure):
    """Exact cost of one block whose exact q values ``Q`` are in test order."""
    k = len(Q)
    if k == 1:
        return Fraction(1)
    if procedure == "S":
        return exact_sterrett(Q)
    cost = 1 + k - k * math.prod(Q)
    if procedure == "Dp":
        cost -= math.prod(Q[:-1]) * (1 - Q[-1])
    return cost


def error(x, exact):
    return abs(Fraction(x) - exact)


def population(shape, n, lo, seed=0):
    """n risks in U(lo, 10 lo): all drawn ("distinct"), drawn from three
    values ("tied"), or one value ("equal"), in no particular order."""
    rng = random.Random(f"{shape}-{n}-{lo}-{seed}")
    pool = [rng.uniform(lo, 10 * lo) for _ in range({"distinct": n, "tied": 3, "equal": 1}[shape])]
    return validate_probability_vector([rng.choice(pool) for _ in range(n)] if shape != "distinct" else pool)


RISKS = [1e-12, 1e-9, 1e-6, 1e-4, 1e-2]
CORPUS = [("distinct", n, lo, seed) for n in (2, 10, 30, 100) for lo in RISKS for seed in range(2)]
CORPUS += [("distinct", 300, lo, 0) for lo in (1e-12, 1e-9, 1e-4)]
CORPUS += [
    (shape, n, lo, 0) for shape in ("tied", "equal") for n in (2, 10, 100) for lo in (1e-12, 1e-6, 1e-2)
]
CORPUS += [(shape, 300, 1e-12, 0) for shape in ("tied", "equal")]


@pytest.mark.parametrize("shape, n, lo, seed", CORPUS)
def test_closed_forms_within_the_pinned_bound(shape, n, lo, seed):
    pv = population(shape, n, lo, seed)
    q, Q, bound = list(pv.q), exact_q(pv), pinned(n, shape)
    for procedure in PROCEDURES:
        assert error(_given_cost_q(q, procedure), exact_given(Q, procedure)) <= bound, procedure
    # the phi walk, on the order it picks and, where affordable, on the optimum
    cost, b = _optimal_sterrett_ascending(sorted(q))
    V = sorted(Q)
    assert error(cost, exact_sterrett([*V[:b], *V[b + 1 :], V[b]])) <= bound
    if n <= EXACT_OPTIMUM_N:
        assert error(cost, exact_block_cost(Q, "S", "optimal")) <= bound


def exact_report_total(report, Q):
    """Exact cost of a report's blocks in the orders it gives them."""
    return sum(exact_given([Q[i] for i in b.order], report.procedure) for b in report.per_block)


ONE_BLOCK = [(shape, n, lo) for shape in ("distinct", "equal") for n in (30, 100) for lo in (1e-12, 1e-9)]
ONE_BLOCK += [(shape, 300, 1e-12) for shape in ("distinct", "equal")]


@pytest.mark.parametrize("shape, n, lo", ONE_BLOCK)
def test_one_block_table_and_report_agree_with_the_exact_cost(shape, n, lo):
    pv = population(shape, n, lo)
    Q, bound = exact_q(pv), pinned(n, shape)
    for procedure in PROCEDURES:
        table = dp_table(sort_ascending(pv)[0], procedure)
        assert table.plan_sizes() == (n,)  # so the DP costs the whole block at once
        report = evaluate_plan(OrderedPartition(sizes=(n,)), pv, procedure)
        exact = exact_report_total(report, Q)
        assert error(report.total, exact) <= bound, procedure
        assert error(table.total, exact) <= bound, procedure
        if n <= EXACT_OPTIMUM_N:
            assert error(table.total, exact_block_cost(Q, procedure, "optimal")) <= bound
        assert abs(report.total - table.total) <= 2 * bound


TINY = math.ulp(0.0)  # one ulp above 0
NEAR_ONE = math.nextafter(1.0, 0.0)  # one ulp below 1


@pytest.mark.parametrize(
    "probs",
    [[TINY] * 6, [NEAR_ONE] * 6, [TINY, NEAR_ONE] * 3, [TINY, 0.5, NEAR_ONE], [1e-12] * 6, [1e-12, 0.3]],
    ids=["tiny", "near-one", "tiny-and-near-one", "tiny-half-near-one", "1e-12", "1e-12-and-risky"],
)
def test_extreme_risks_stay_within_the_pinned_bound(probs):
    # whatever plan the DP picks, its total and the report's are within the
    # bound of the exact cost of the report's orders
    pv = validate_probability_vector(probs)
    Q, bound = exact_q(pv), pinned(pv.n, "tied")
    for procedure in PROCEDURES:
        assert error(_given_cost_q(list(pv.q), procedure), exact_given(Q, procedure)) <= bound
        optimum = exact_table(sorted(Q, reverse=True), procedure, "optimal")[0][-1]
        table = dp_table(sort_ascending(pv)[0], procedure)
        report = evaluate_plan(OrderedPartition(sizes=table.plan_sizes()), pv, procedure)
        exact = exact_report_total(report, Q)
        assert error(report.total, exact) <= bound, procedure
        assert error(table.total, exact) <= bound, procedure
        assert error(table.total, optimum) <= bound, procedure


@pytest.mark.parametrize("p", [TINY, 0.5, NEAR_ONE])
def test_one_item_costs_exactly_one_test(p):
    pv = validate_probability_vector([p])
    for procedure in PROCEDURES:
        assert _given_cost_q(pv.q, procedure) == 1.0
        assert dp_table(pv, procedure).total == 1.0
        assert evaluate_plan(OrderedPartition(sizes=(1,)), pv, procedure).total == 1.0
    assert _optimal_sterrett_ascending(pv.q) == (1.0, 0)
