"""Exact expected-cost evaluators for the three pooling procedures.

For a group of size k with good-probabilities q_1..q_k in test order:

  Dorfman (D)            E = 1 + (k - k * q_1...q_k)                for k >= 2
  modified Dorfman (Dp)  E = E_D - (q_1...q_{k-1}) * (1 - q_k)      for k >= 2
  Sterrett (S)           E = (2k - 1) - [ (q_1 + ... + q_{k-1})
                              + q_{k-1} q_k + q_{k-2} q_{k-1} q_k
                              + ... + q_1 q_2 ... q_k ]             for k >= 2

A single-item group costs exactly one test under every procedure.

D is order-invariant. Dp is minimized by putting the smallest q last.
For S, the cost depends on the order in a less obvious way: the value in
the FIRST position never appears in the cost except through the constant
sum and full product, so it only absorbs one value from the pool, and the
middle positions are best sorted ascending (an adjacent swap changes one
suffix product, which grows when the larger value sits later). What
remains is the choice of the last value, which trades its exclusion from
the head sum against its weight on the suffix chain; no closed-form rule
picks it, so the minimizer keeps a running minimum of phi over all k
last values (derived at ``_optimal_sterrett_ascending``). The often-quoted
simpler rule "ascending head, smallest q last" agrees with this optimum for
k <= 3 but is strictly beaten for most groups of four or more; only
``optimize.dp_table`` keeps it, for reproducing published comparison
tables.

Each procedure's cost is written here in two forms:

  given order   ``_cost_dorfman_q``, ``_cost_modified_dorfman_q`` and
                ``_cost_sterrett_q`` cost a q sequence in test order;
                ``group_cost`` applies them to a Group.
  arranged      ``_arranged_cost_q`` takes a block's q values ascending,
                decides its test order (which value goes last) and costs
                it: the given-order form on that order for D and Dp, and
                the O(k) phi walk ``_optimal_sterrett_ascending`` for S.
                It is the only place an arrangement is decided: both
                exhaustive oracles in ``optimize`` call it, and
                ``arranged_cost`` applies its order to a Group for reports
                and simulation.

``optimize.dp_table`` keeps its own incremental loops: it grows each block
one item at a time, updating running sums (for S optimal, the phi walk's,
one per block start) in O(1) where a one-shot call would start over.

The closed forms are tested against the protocol itself
(``simulate.exact_expected_tests`` weights ``simulate.count_tests`` over
every defect vector) and, for S, against the first-defective recursion in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import (
    BlockCost,
    CostReport,
    Group,
    OrderedPartition,
    ProbabilityVector,
    SetPartition,
    sort_ascending,
)

# ---------------------------------------------------------------------------
# closed forms on a q-sequence (test order = sequence order)
# ---------------------------------------------------------------------------
# Products are taken in the order given. Callers pass the product terms
# ascending, so that every order of one multiset costs bit-identically.


def _cost_dorfman_q(q: Sequence[float]) -> float:
    k = len(q)
    if k == 1:
        return 1.0
    return 1.0 + k - k * math.prod(q)


def _cost_modified_dorfman_q(q: Sequence[float]) -> float:
    k = len(q)
    if k == 1:
        return 1.0
    prod_head = math.prod(q[:-1])
    return 1.0 + k - k * prod_head * q[-1] - prod_head * (1.0 - q[-1])


def _cost_sterrett_q(q: Sequence[float]) -> float:
    # Single right-to-left pass: the suffix-product chain is accumulated
    # Horner-style so each product is reused, O(k) total.
    k = len(q)
    if k == 1:
        return 1.0
    head = sum(q[: k - 1])
    suffix = q[-1]
    chain = 0.0
    for i in range(k - 2, -1, -1):
        suffix *= q[i]
        chain += suffix
    return (2.0 * k - 1.0) - head - chain


def _optimal_sterrett_ascending(v: Sequence[float]) -> tuple[float, int]:
    """Minimum Sterrett cost of a block whose q values ``v`` ascend, and the
    index b of the value that goes last in an order attaining it.

    Walk v from its largest value down, qs[a] = v[m - 1 - a] = v[b], with
    P(a) = qs[0]...qs[a] and C(a) = P(0) + ... + P(a-1). Testing qs[a] last,
    after the others ascending, gives the suffix products qs[a] P(0), ...,
    qs[a] P(a-1), P(a+1), ..., P(m-1), so the m items cost

        (2m - 1) - (qs[0] + ... + qs[m-1]) - P(m-1) - C(m-1) + phi(a),
        phi(a) = qs[a] + (1 - qs[a]) C(a) + P(a).

    phi(a) reads nothing past a, so the walk keeps its running minimum in
    O(k). ``optimize.dp_table`` keeps the same minimum per block start in
    the same arithmetic order, so a one-shot cost equals its increment bit
    for bit. Ties go to the smallest b; a run of equal values is one order
    by value and stands as its smallest b.
    """
    m = len(v)
    if m == 1:
        return 1.0, 0
    p = t = v[-1]
    c = 0.0
    best, best_b = 2.0 * p, m - 1
    for b in range(m - 2, -1, -1):
        x = v[b]
        c += p
        p *= x
        t += x
        phi = x + (1.0 - x) * c + p
        if phi <= best:
            best, best_b = phi, b
        elif x == v[b + 1] and best_b == b + 1:
            best_b = b
    return (2.0 * m - 1.0) - t - p - c + best, best_b


def _arranged_cost_q(v: Sequence[float], procedure: str) -> tuple[float, int]:
    """Cost of a block whose q values ``v`` ascend, arranged for the
    procedure, and the index b of the value tested last: the test order
    is v without v[b], then v[b].

    This is the one place a block's arrangement is decided. D costs the
    same in every order (b = k - 1 keeps v as given); Dp puts the smallest
    q last (b = 0); S takes b from the O(k) minimizer.
    """
    if procedure == "D":
        return _cost_dorfman_q(v), len(v) - 1
    if procedure == "Dp":
        return _cost_modified_dorfman_q((*v[1:], v[0])), 0
    if procedure == "S":
        return _optimal_sterrett_ascending(v)
    raise ValueError(f"unknown procedure {procedure!r}")


# ---------------------------------------------------------------------------
# optimal within-group arrangements
# ---------------------------------------------------------------------------


def arranged_cost(group: Group, pv: ProbabilityVector, procedure: str) -> tuple[Group, float]:
    """The group in its cheapest test order under ``procedure``, and its cost.

    The members are sorted by (q, index) and ``_arranged_cost_q`` picks the
    last one, so ties go to the lower index; D, which costs the same in
    every order, keeps the given order. The cost is that of the returned
    order under ``group_cost``.
    """
    qs, items = zip(*sorted(zip(group.qs(pv), group.items)))
    _, b = _arranged_cost_q(qs, procedure)
    g = group if procedure == "D" else Group(items=(*items[:b], *items[b + 1 :], items[b]))
    return g, group_cost(g, pv, procedure)


def group_cost(group: Group, pv: ProbabilityVector, procedure: str) -> float:
    """Cost of a group exactly as ordered, under ``procedure``.

    D costs all q sorted, since its cost ignores the order; Dp sorts the
    head and keeps the last item, whose individual test it may skip. So
    orders that cost alike in exact arithmetic cost alike in floats too.
    """
    q = group.qs(pv)
    if procedure == "D":
        return _cost_dorfman_q(sorted(q))
    if procedure == "Dp":
        return _cost_modified_dorfman_q((*sorted(q[:-1]), q[-1]))
    if procedure == "S":
        return _cost_sterrett_q(q)
    raise ValueError(f"unknown procedure {procedure!r}")


# ---------------------------------------------------------------------------
# plan evaluation
# ---------------------------------------------------------------------------


def resolve_plan(
    plan: OrderedPartition | SetPartition, pv: ProbabilityVector
) -> list[Group]:
    """Turn a plan into concrete groups over original item indices.

    Ordered partitions slice the population sorted ascending by p, so each
    resulting group lists its members in ascending-p (descending-q) order.
    Set-partition blocks keep the order in which they were written.
    """
    if isinstance(plan, OrderedPartition):
        if plan.n != pv.n:
            raise ValueError(f"partition sizes sum to {plan.n}, population has {pv.n} items")
        _, perm = sort_ascending(pv)
        groups = []
        pos = 0
        for size in plan.sizes:
            groups.append(Group(items=tuple(perm[pos : pos + size])))
            pos += size
        return groups
    if isinstance(plan, SetPartition):
        plan.check_cover(pv.n)
        return [Group(items=b) for b in plan.blocks]
    raise TypeError(f"unsupported plan type {type(plan).__name__}")


def evaluate_plan(
    plan: OrderedPartition | SetPartition,
    pv: ProbabilityVector,
    procedure: str,
    arrange: str = "optimal",
) -> CostReport:
    """Cost report for a plan: per-block arranged orders and expected tests.

    ``arrange`` is "optimal" (rearrange each block for the procedure) or
    "given" (cost the blocks exactly as ordered).
    """
    if arrange not in ("optimal", "given"):
        raise ValueError(f"arrange must be 'optimal' or 'given', got {arrange!r}")
    blocks = []
    total = 0.0
    for g in resolve_plan(plan, pv):
        if arrange == "optimal":
            ordered, cost = arranged_cost(g, pv, procedure)
        else:
            ordered, cost = g, group_cost(g, pv, procedure)
        blocks.append(BlockCost(items=g.items, order=ordered.items, expected_tests=cost))
        total += cost
    return CostReport(procedure=procedure, per_block=tuple(blocks), total=total)
