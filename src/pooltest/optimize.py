"""Plan search: dynamic programming over ordered partitions plus exhaustive
oracles over all ordered partitions and all set partitions for small N.

The DP works on the population sorted ascending by p (descending by q).
With C(0) = 0 and C(1) = 1, the cost-to-go of the first k sorted items is

    C(k) = min over 0 <= i <= k-1 of  E(block i+1..k) + C(i)

where each candidate block is costed under its within-block arrangement.
Block costs are maintained incrementally while i sweeps from k-1 down to
0, so D, Dp and smallest-last Sterrett tables cost O(N^2) arithmetic.
Sterrett blocks are arranged by one of two rules:

  "optimal"        the true minimum over block orders (scores every
                   last-position value per block; O(N^3) overall, so
                   guarded at N <= 1000)
  "smallest-last"  the simple ascending-head rule, optimal only for
                   blocks of up to three items but O(N^2) overall and the
                   rule behind published comparison tables

These incremental loops are the only incremental form of the block costs.
The exhaustive oracles cost each block afresh with the one-shot
``cost._arranged_cost_q``, which also decides the block orders that
``evaluate_plan`` reports, so the ordered oracle checks the loops against
an independent implementation. The set-partition oracle is an exact DP
over subsets, O(3^N) after 2^N block costs, and is guarded at N <= 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import all_above_ungar
from .cost import _arranged_cost_q, _cost_sterrett_q, evaluate_plan
from .model import (
    PROCEDURES,
    REL_TOL,
    STERRETT_RULES,
    CostReport,
    InstanceTooLargeError,
    NotSortedError,
    OrderedPartition,
    ProbabilityVector,
    SetPartition,
    sort_ascending,
)

MAX_EXHAUSTIVE_ORDERED = 20
MAX_EXHAUSTIVE_SET = 15  # 3^15 / 2 subset-DP steps: about 1.4 s (Python 3.11, 2 vCPUs)
MAX_STERRETT_OPTIMAL_DP = 1000  # O(N^3) pure Python: about a minute at the guard

SEARCH_KINDS = ("dp-ordered", "exhaustive-ordered", "exhaustive-set")


@dataclass(frozen=True)
class DpTable:
    """Cost-to-go table of the ordered-partition dynamic program.

    ``cost_to_go[k]`` is the optimal cost of the first k sorted items;
    ``split[k]`` is the chosen i, i.e. the last block covers sorted items
    i+1..k. Ties pick the largest i (smallest trailing block).
    """

    procedure: str
    cost_to_go: tuple[float, ...]
    split: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.cost_to_go) - 1

    @property
    def total(self) -> float:
        return self.cost_to_go[-1]

    def plan_sizes(self) -> tuple[int, ...]:
        sizes: list[int] = []
        k = self.n
        while k > 0:
            i = self.split[k]
            sizes.append(k - i)
            k = i
        return tuple(reversed(sizes))


@dataclass(frozen=True)
class PlanResult:
    """A plan found by one of the searches, with its evaluated cost report.

    ``permutation`` maps sorted positions to original indices for the
    searches that sort the population first; it is None for the
    set-partition search, which works on original indices directly.
    """

    plan: OrderedPartition | SetPartition
    report: CostReport
    search: str
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.search not in SEARCH_KINDS:
            raise ValueError(f"unknown search kind {self.search!r}")

    @property
    def total(self) -> float:
        return self.report.total

    def to_json(self) -> dict:
        return {
            "search": self.search,
            "plan": self.plan.to_json(),
            "permutation": [i + 1 for i in self.permutation] if self.permutation else None,
            "report": self.report.to_json(),
        }


def _check_sorted(pv: ProbabilityVector) -> None:
    for a, b in zip(pv.probs, pv.probs[1:]):
        if a > b:
            raise NotSortedError("population must be sorted ascending by p")


def dp_table(pv: ProbabilityVector, procedure: str, s_rule: str = "optimal") -> DpTable:
    """Run the ordered-partition DP on an already sorted population.

    ``s_rule`` selects the within-block arrangement for Sterrett blocks
    (see the module docstring); it is ignored for D and Dp.
    """
    _check_sorted(pv)
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    if procedure == "S" and s_rule == "optimal" and pv.n > MAX_STERRETT_OPTIMAL_DP:
        raise InstanceTooLargeError(pv.n, MAX_STERRETT_OPTIMAL_DP, "Sterrett-optimal DP")
    qs = pv.q  # descending
    n = pv.n
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    cost[1] = 1.0
    for k in range(2, n + 1):
        qlast = qs[k - 1]
        one_minus_qlast = 1.0 - qlast
        prod = qlast  # product of qs[i..k-1]
        prod_head = 1.0  # product of qs[i..k-2]
        head_sum = 0.0  # sum of qs[i..k-2]
        prefix_chain = 0.0  # qs[i] + qs[i]qs[i+1] + ... + qs[i]..qs[k-2]
        best = cost[k - 1] + 1.0  # i = k-1: trailing singleton
        best_i = k - 1
        if procedure == "S" and s_rule == "optimal":
            # Ascending block values v = (qs[k-1], ..., qs[i]) gain their
            # largest element as i falls, so the suffix tail sums G over
            # w = v[1:] update in place: G[t] <- qi * (G[t] + 1).
            total = qlast
            G = [0.0] * (k + 1)
            for i in range(k - 2, -1, -1):
                qi = qs[i]
                total += qi
                prod *= qi
                m = k - i
                r = m - 1
                for t in range(1, r + 1):
                    G[t] = qi * (G[t] + 1.0)
                g1 = G[1]
                two_m1 = 2.0 * m - 1.0
                blk = two_m1 - (total - qlast) - prod - qlast * G[2]
                for j in range(1, r + 1):
                    wj = qs[k - 1 - j]
                    e = two_m1 - total + wj - prod - wj * G[j + 1] - (g1 - G[j])
                    if e < blk:
                        blk = e
                cand = blk + cost[i]
                if cand < best:
                    best = cand
                    best_i = i
        elif procedure == "S":
            for i in range(k - 2, -1, -1):
                qi = qs[i]
                head_sum += qi
                prefix_chain = qi * (1.0 + prefix_chain)
                m = k - i
                cand = (2.0 * m - 1.0) - head_sum - qlast * prefix_chain + cost[i]
                if cand < best:
                    best = cand
                    best_i = i
        elif procedure == "Dp":
            for i in range(k - 2, -1, -1):
                qi = qs[i]
                prod *= qi
                prod_head *= qi
                m = k - i
                cand = 1.0 + m - m * prod - prod_head * one_minus_qlast + cost[i]
                if cand < best:
                    best = cand
                    best_i = i
        else:
            for i in range(k - 2, -1, -1):
                prod *= qs[i]
                m = k - i
                cand = 1.0 + m - m * prod + cost[i]
                if cand < best:
                    best = cand
                    best_i = i
        cost[k] = best
        split[k] = best_i
    return DpTable(procedure=procedure, cost_to_go=tuple(cost), split=tuple(split))


def dp_ordered(pv: ProbabilityVector, procedure: str) -> PlanResult:
    """Minimum-cost ordered partition via dynamic programming.

    The population is sorted ascending by p internally; the result carries
    the permutation and a cost report expressed in original item indices.
    When every p_i is at or above the individual-testing threshold
    (3 - sqrt(5)) / 2, pooling cannot help and the all-singleton plan is
    returned directly.
    """
    sorted_pv, perm = sort_ascending(pv)
    if all_above_ungar(pv):
        plan = OrderedPartition(sizes=(1,) * pv.n)
    else:
        table = dp_table(sorted_pv, procedure)
        plan = OrderedPartition(sizes=table.plan_sizes())
    report = evaluate_plan(plan, pv, procedure, arrange="optimal")
    return PlanResult(plan=plan, report=report, search="dp-ordered", permutation=perm)


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------


def _block_cost_table(qs: tuple[float, ...], procedure: str, s_rule: str) -> list[list[float]]:
    """bc[i][j] = arranged cost of sorted items i..j-1 (q descending)."""
    n = len(qs)
    bc = [[0.0] * (n + 1) for _ in range(n)]
    for j in range(1, n + 1):
        for i in range(j):
            bc[i][j] = _arranged_cost_q(qs[i:j][::-1], procedure, s_rule)[0]
    return bc


def exhaustive_ordered(
    pv: ProbabilityVector, procedure: str, s_rule: str = "optimal"
) -> PlanResult:
    """Brute-force minimum over all 2^(N-1) ordered partitions.

    Verification oracle for dp_ordered; guarded at N <= 20. ``s_rule``
    must match the rule used by the DP being checked.
    """
    n = pv.n
    if n > MAX_EXHAUSTIVE_ORDERED:
        raise InstanceTooLargeError(n, MAX_EXHAUSTIVE_ORDERED, "ordered-partition enumeration")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    sorted_pv, perm = sort_ascending(pv)
    bc = _block_cost_table(sorted_pv.q, procedure, s_rule)
    best = math.inf
    best_mask = 0
    for mask in range(1 << (n - 1)):
        total = 0.0
        start = 0
        for t in range(n - 1):
            if mask & (1 << t):
                total += bc[start][t + 1]
                start = t + 1
        total += bc[start][n]
        if total < best:
            best = total
            best_mask = mask
    sizes: list[int] = []
    start = 0
    for t in range(n - 1):
        if best_mask & (1 << t):
            sizes.append(t + 1 - start)
            start = t + 1
    sizes.append(n - start)
    plan = OrderedPartition(sizes=tuple(sizes))
    report = evaluate_plan(plan, pv, procedure, arrange="optimal", s_rule=s_rule)
    return PlanResult(plan=plan, report=report, search="exhaustive-ordered", permutation=perm)


def exhaustive_set(pv: ProbabilityVector, procedure: str) -> PlanResult:
    """Global minimum over ALL set partitions, each block arranged optimally.

    This is the unordered-plan oracle, an exact DP over subsets: every
    nonempty subset is costed once, then f(S) = min over blocks T that hold
    the smallest item of S of c(T) + f(S - T), O(3^N) steps after the 2^N
    block costs; guarded at N <= 15. Ties go to the lexicographically
    smallest restricted growth string (item i labelled with its block's
    number, blocks numbered by smallest member) among plans within REL_TOL:
    with bit n-1-i standing for item i, the T are tried with the submasks
    of S's other items counting down, which prefers smaller items, and a
    later T wins only if it is cheaper by more than REL_TOL relative.
    """
    n = pv.n
    if n > MAX_EXHAUSTIVE_SET:
        raise InstanceTooLargeError(n, MAX_EXHAUSTIVE_SET, "set-partition search")
    full = (1 << n) - 1
    by_q = sorted((q, 1 << (n - 1 - i)) for i, q in enumerate(pv.q))
    cost = [0.0] * (full + 1)
    for T in range(1, full + 1):
        cost[T] = _arranged_cost_q([q for q, bit in by_q if T & bit], procedure)[0]
    f = [0.0] * (full + 1)
    choice = [0] * (full + 1)
    for S in range(1, full + 1):
        anchor = 1 << (S.bit_length() - 1)  # the smallest item of S
        rest = S ^ anchor
        best = cost[S]
        bound = best - REL_TOL * best
        best_t = t = rest
        while t:
            t = (t - 1) & rest
            c = cost[anchor | t] + f[rest ^ t]
            if c < bound:
                best, bound, best_t = c, c - REL_TOL * c, t
        f[S] = best
        choice[S] = anchor | best_t
    blocks = []
    S = full
    while S:
        T = choice[S]
        blocks.append(tuple(i for i in range(n) if T >> (n - 1 - i) & 1))
        S ^= T
    plan = SetPartition(blocks=tuple(blocks))
    report = evaluate_plan(plan, pv, procedure, arrange="optimal")
    return PlanResult(plan=plan, report=report, search="exhaustive-set")


def pair_interchange_costs(
    q1: float, q2: float, q3: float, q4: float, procedure: str = "S"
) -> tuple[float, float]:
    """Costs of the two pairings of a descending quadruple q1 >= q2 >= q3 >= q4.

    Returns (cost of {q1,q2} u {q3,q4}, cost of {q1,q3} u {q2,q4}), each pair
    arranged with the larger q first. Swapping the middle values can never
    increase the total, so the second entry is always <= the first.
    """
    if procedure not in ("Dp", "S"):
        raise ValueError("interchange comparison applies to procedures Dp and S")
    if not (q1 >= q2 >= q3 >= q4):
        raise NotSortedError(f"expected q1 >= q2 >= q3 >= q4, got {(q1, q2, q3, q4)}")
    for q in (q1, q2, q3, q4):
        if not (0.0 < q < 1.0):
            raise ValueError(f"q values must lie strictly inside (0, 1), got {q}")

    # the two-item cost is identical for Dp and S
    ordered = _cost_sterrett_q((q1, q2)) + _cost_sterrett_q((q3, q4))
    swapped = _cost_sterrett_q((q1, q3)) + _cost_sterrett_q((q2, q4))
    return ordered, swapped
