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
the ordered-partition DP (``tables``) keeps it, for reproducing published
comparison tables.

Each procedure's cost is written here in two forms, which meet in one
canonical form of a block's q values, read by the kernels: D all q
ascending; Dp the value tested last first, then the head ascending; S in
test order. Products are taken in it, so every order of one multiset
costs bit-identically.

  given order   ``_given_cost_q`` puts q in test order into the canonical
                form and costs it; ``group_cost`` applies it to a Group.
  arranged      ``_arranged_cost_q`` takes a block's q values ascending,
                decides its test order (which value goes last) and costs
                it. Ascending q is already the canonical form of the best
                D and Dp orders; S takes the O(k) phi walk
                ``_optimal_sterrett_ascending``. It is the only place an
                arrangement is decided: the ordered oracle in ``optimize``
                calls it, and reports take their orders from it through
                ``_arrange``. ``_subset_costs`` runs it over every subset
                of a population at once in numpy, for the set-partition
                oracle, with its float operations in its order, so each
                subset's cost equals it bit for bit.

``evaluate_plan`` builds every plan report: ``eval``, ``simulate`` and
all three plan searches in ``optimize`` cost their plans through it. It
works on tuples of item indices and q values: ``_arrange`` sorts each
block by (q, index) once and takes its order and cost from
``_arranged_cost_q``, but re-costs an S order in the given-order form,
which checks the DP's phi walk independently (the two S forms differ in
the last bits). It checks only that the plan covers the population;
plans and groups validate themselves when built.

The ordered-partition DP keeps one incremental walk of these sums per
block start instead, O(1) a cell; ``tables`` holds its design.

The closed forms are tested against the protocol itself
(``simulate.exact_expected_tests`` weights ``simulate.count_tests`` over
every defect vector) and, for S, against the first-defective recursion in
``tests/reference.py``.

Float error. Against the exact cost of the exact 1 - p, with u = 2^-53, a
block of N items is off by O(N^2 u) at worst: each form sums up to N
terms, each a product of up to N rounded factors, the rounding of each
q = 1 - p among them. On distinct risks these roundings partly cancel:
measured at most 1.4 N^1.5 u up to N = 300. At N = 5000 D and Dp reach
4.2 N^1.5 u, over the 4 N^1.5 u pinned in ``tests/test_float_error.py``:
a product over ascending q near 1 rounds alike step after step. On tied
or equal risks the roundings of equal q share a sign: measured at most
0.7 N^2 u, pinned at 2 N^2 u. ``dp_table``'s running sums stay within
the same bounds, so its gap to ``evaluate_plan`` stays within twice
them. The error follows the block's products, which fall as p grows,
and a cost is at least one test, so the relative error is largest on
low-risk blocks, whose cost is near 1: there it passes REL_TOL from
about 1000 distinct or 200 equal items.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .model import BlockCost, CostReport, Group, OrderedPartition, ProbabilityVector, SetPartition

# ---------------------------------------------------------------------------
# closed forms on a q-sequence (test order = sequence order)
# ---------------------------------------------------------------------------
# Products are taken in the order given: the canonical form above.


def _cost_dorfman_q(q: Sequence[float]) -> float:
    k = len(q)
    if k == 1:
        return 1.0
    return 1.0 + k - k * math.prod(q)


def _cost_modified_dorfman_q(q: Sequence[float]) -> float:
    # q[0] is the value tested last, q[1:] the head
    k = len(q)
    if k == 1:
        return 1.0
    prod_head = math.prod(q[1:])
    return 1.0 + k - k * prod_head * q[0] - prod_head * (1.0 - q[0])


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
    O(k). ``tables.walk`` and ``tables.dp_totals`` keep the same minimum
    per block start in the same arithmetic order, so a one-shot cost equals
    their increment bit for bit. Ties go to the smallest b; a run of equal
    values is one order by value and stands as its smallest b.
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
    q last (b = 0). Ascending v is already the canonical form of both,
    where ``_given_cost_q`` meets it, so v is costed as it is; D through
    ``_given_cost_q``, which refuses an unknown procedure. S takes b from
    the O(k) phi walk, whose cost ``_arrange`` takes again in the
    given-order form to check the walk.
    """
    if procedure == "S":
        return _optimal_sterrett_ascending(v)
    if procedure == "Dp":
        return _cost_modified_dorfman_q(v), 0
    return _given_cost_q(v, procedure), len(v) - 1


def _subset_costs(qs: Sequence[float], procedure: str) -> np.ndarray:
    """``_arranged_cost_q`` of every nonempty subset of the items whose q
    values are ``qs``, at the subset's mask, bit n-1-i standing for item i,
    equal to it bit for bit; entry 0 is meaningless.

    The sums are built on rank masks, bit j standing for the j-th smallest
    q, v[j], each from the mask one bit smaller, with the float operations
    of ``_arranged_cost_q`` in its order. D's ascending product P grows by
    the highest bit, P[2^j + r] = P[r] v[j]; a Dp head product is P of the
    mask without its lowest bit. S's phi walk takes the values from the
    largest down, so its P, C, T and M grow by the lowest bit, each mask
    with lowest bit j from its parent at the same stride; the empty mask
    holds P = 1, C = -1, T = 0 and M = +inf, so a walk opens on P = T =
    v[j], C = 0 and M = 2 v[j] exactly. A singleton costs 1.0. One gather
    then maps the rank masks to the item masks.
    """
    n = len(qs)
    size = 1 << n
    v = sorted(qs)
    m = np.empty(size)  # the subset's size, as a float
    m[0] = 0.0
    for j in range(n):
        np.add(m[: 1 << j], 1.0, out=m[1 << j : 2 << j])
    if procedure == "S":
        P, C, T, M = np.empty((4, size))
        P[0], C[0], T[0], M[0] = 1.0, -1.0, 0.0, math.inf
        for j in range(n - 1, -1, -1):
            x, grown, parent = v[j], slice(1 << j, size, 2 << j), slice(0, size, 2 << j)
            c = np.add(C[parent], P[parent], out=C[grown])
            p = np.multiply(P[parent], x, out=P[grown])
            np.add(T[parent], x, out=T[grown])
            phi = (1.0 - x) * c
            phi += x
            phi += p
            np.minimum(M[parent], phi, out=M[grown])
        cost = 2.0 * m - 1.0 - T - P - C + M
    elif procedure in ("D", "Dp"):
        P = np.empty(size)
        P[0] = 1.0
        for j, x in enumerate(v):
            np.multiply(P[: 1 << j], x, out=P[1 << j : 2 << j])
        if procedure == "D":
            cost = 1.0 + m - m * P
        else:
            head, last = np.empty((2, size))
            head[0] = last[0] = 1.0  # the empty mask, so its entry stays finite
            for j, x in enumerate(v):
                head[1 << j :: 2 << j] = P[:: 2 << j]
                last[1 << j :: 2 << j] = x
            cost = 1.0 + m - m * head * last - head * (1.0 - last)
    else:
        raise ValueError(f"unknown procedure {procedure!r}")
    for j in range(n):
        cost[1 << j] = 1.0
    # rank[T] = the rank mask of the item mask T, grown as m is, by item bits
    rank_bit = [0] * n
    for r, i in enumerate(sorted(range(n), key=qs.__getitem__)):
        rank_bit[n - 1 - i] = 1 << r
    rank = [0]  # a list: numpy's integer add would fault in more of its code
    for bit in rank_bit:
        rank += [k + bit for k in rank]
    return cost[rank]


# ---------------------------------------------------------------------------
# blocks in test order and in their cheapest order
# ---------------------------------------------------------------------------


def _given_cost_q(q: Sequence[float], procedure: str) -> float:
    """Cost of a block whose q values ``q`` are in test order.

    D costs all q sorted, since its cost ignores the order; Dp puts the
    last item, whose individual test it may skip, before the sorted head.
    So orders that cost alike in exact arithmetic cost alike in floats too.
    """
    if procedure == "D":
        return _cost_dorfman_q(sorted(q))
    if procedure == "Dp":
        return _cost_modified_dorfman_q((q[-1], *sorted(q[:-1])))
    if procedure == "S":
        return _cost_sterrett_q(q)
    raise ValueError(f"unknown procedure {procedure!r}")


def _arrange(items: tuple[int, ...], q: Sequence[float], procedure: str) -> tuple[tuple, float]:
    """``items``, whose q values are ``q``, in their cheapest test order
    under ``procedure``, and that order's given-order cost. The members are
    sorted by (q, index) and ``_arranged_cost_q`` picks the last one, so
    ties go to the lower index, and costs it; only an S order is costed
    again, by ``_cost_sterrett_q``, to check the phi walk independently. D,
    which costs the same in every order, keeps the given order."""
    if procedure == "D":
        return items, _given_cost_q(q, procedure)
    v, by_q = zip(*sorted(zip(q, items)))
    cost, b = _arranged_cost_q(v, procedure)
    if procedure == "S":
        cost = _cost_sterrett_q((*v[:b], *v[b + 1 :], v[b]))
    return (*by_q[:b], *by_q[b + 1 :], by_q[b]), cost


def arranged_cost(group: Group, pv: ProbabilityVector, procedure: str) -> tuple[Group, float]:
    """The group in its cheapest test order under ``procedure``, and its cost."""
    order, cost = _arrange(group.items, group.qs(pv), procedure)
    return (group if order is group.items else Group(items=order)), cost


def group_cost(group: Group, pv: ProbabilityVector, procedure: str) -> float:
    """Cost of a group exactly as ordered, under ``procedure``."""
    return _given_cost_q(group.qs(pv), procedure)


# ---------------------------------------------------------------------------
# plan evaluation
# ---------------------------------------------------------------------------


def evaluate_plan(
    plan: OrderedPartition | SetPartition, pv: ProbabilityVector, procedure: str, arrange="optimal"
) -> CostReport:
    """Cost report for a plan: per-block orders and expected tests, with
    ``arrange`` "optimal" (rearrange each block for the procedure) or
    "given" (cost the blocks exactly as ordered). An ordered partition's
    blocks are runs of the items stably sorted ascending by p; a set
    partition's keep the order in which they were written. A bad
    ``arrange`` is refused first, then a plan that does not cover ``pv``,
    then an unknown procedure."""
    if arrange not in ("optimal", "given"):
        raise ValueError(f"arrange must be 'optimal' or 'given', got {arrange!r}")
    probs = pv.probs
    if isinstance(plan, OrderedPartition):
        if plan.n != pv.n:
            raise ValueError(f"partition sizes sum to {plan.n}, population has {pv.n} items")
        perm = tuple(sorted(range(pv.n), key=probs.__getitem__))
        blocks = [perm[end - k : end] for k, end in zip(plan.sizes, itertools.accumulate(plan.sizes))]
    elif isinstance(plan, SetPartition):
        plan.check_cover(pv.n)
        blocks = plan.blocks
    else:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    per_block, total = [], 0.0
    for items in blocks:
        q = [1.0 - probs[i] for i in items]
        if arrange == "optimal":
            order, cost = _arrange(items, q, procedure)
        else:
            order, cost = items, _given_cost_q(q, procedure)
        per_block.append(BlockCost(items=items, order=order, expected_tests=cost))
        total += cost
    return CostReport(procedure=procedure, per_block=tuple(per_block), total=total)
