"""Plan search: dynamic programming over ordered partitions plus exhaustive
oracles over all ordered partitions and all set partitions for small N.

The DP works on the population sorted ascending by p (descending by q).
With F(0) = 0 and F(1) = 1, the cost-to-go of the first k sorted items is

    F(k) = min over 0 <= i <= k-1 of  E(block i+1..k) + F(i)

where each candidate block is costed under its within-block arrangement:
for D and Dp the cheapest order, for S one of two rules, "optimal" (the
true minimum over block orders) or "smallest-last" (the ascending-head
rule behind published comparison tables, optimal only up to three items).
Block costs are kept as running sums, O(1) per (block start, block end),
so every table costs O(N^2) arithmetic. For S optimal the sums are those
of ``cost._optimal_sterrett_ascending``, which derives the cost of the
order testing qs[a] last through phi(i,a): phi reads no item past a, so
extending the block i..k-1 adds the one candidate a = k-1 to a running
minimum per block start. That table is guarded at N <= 2800.

These running sums are the only incremental form of the block costs.
The exhaustive oracles cost each block afresh with the one-shot
``cost._arranged_cost_q``, which also decides the block orders that
``evaluate_plan`` reports, so the ordered oracle checks the DP against an
independent implementation. The set-partition oracle is an exact DP over
subsets, O(3^N) after 2^N block costs, and is guarded at N <= 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import all_above_ungar
from .cost import _arranged_cost_q, evaluate_plan
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
MAX_STERRETT_OPTIMAL_DP = 2800  # `optimize --procedure S`: about 1.8 s (Python 3.11, 2 vCPUs)

SEARCH_KINDS = ("dp-ordered", "exhaustive-ordered", "exhaustive-set")


@dataclass(frozen=True)
class DpTable:
    """Cost-to-go table of the ordered-partition dynamic program.

    ``cost_to_go[k]`` is the optimal cost of the first k sorted items;
    ``split[k]`` is the chosen i, i.e. the last block covers sorted items
    i+1..k. Ties pick the largest i (smallest trailing block): the DP tries
    i from k-1 down, and a smaller i wins only if it is cheaper by more
    than REL_TOL relative.
    """

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
    s_optimal = procedure == "S" and s_rule == "optimal"
    if s_optimal:
        # per start i, for the block i..k-1: P = P(i,k-1), C = C(i,k-1),
        # T = qs[i] + ... + qs[k-1] and M = min over i <= a <= k-1 of phi(i,a)
        P, C, T, M = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    for k in range(1, n + 1):
        qlast = qs[k - 1]
        one_minus_qlast = 1.0 - qlast
        prod = qlast  # product of qs[i..k-1]
        prod_head = 1.0  # product of qs[i..k-2]
        head_sum = 0.0  # sum of qs[i..k-2]
        prefix_chain = 0.0  # qs[i] + qs[i]qs[i+1] + ... + qs[i]..qs[k-2]
        best = cost[k - 1] + 1.0  # i = k-1: trailing singleton
        bound = best - REL_TOL * best
        best_i = k - 1
        m = 1.0  # size of the block i..k-1, a float to keep the arithmetic in floats
        if s_optimal:
            for i in range(k - 2, -1, -1):
                c = C[i] + P[i]
                p = P[i] * qlast
                t = T[i] + qlast
                phi = qlast + one_minus_qlast * c + p
                mi = M[i]
                if phi < mi:
                    M[i] = mi = phi
                P[i] = p
                C[i] = c
                T[i] = t
                m += 1.0
                cand = (2.0 * m - 1.0) - t - p - c + mi + cost[i]
                if cand < bound:
                    best, bound, best_i = cand, cand - REL_TOL * cand, i
            # the block k-1..k-1 opens: C = 0, phi(k-1,k-1) = 2 qs[k-1]
            P[k - 1] = T[k - 1] = qlast
            M[k - 1] = 2.0 * qlast
        elif procedure == "S":
            for i in range(k - 2, -1, -1):
                qi = qs[i]
                head_sum += qi
                prefix_chain = qi * (1.0 + prefix_chain)
                m += 1.0
                cand = (2.0 * m - 1.0) - head_sum - qlast * prefix_chain + cost[i]
                if cand < bound:
                    best, bound, best_i = cand, cand - REL_TOL * cand, i
        elif procedure == "Dp":
            for i in range(k - 2, -1, -1):
                qi = qs[i]
                prod *= qi
                prod_head *= qi
                m += 1.0
                cand = 1.0 + m - m * prod - prod_head * one_minus_qlast + cost[i]
                if cand < bound:
                    best, bound, best_i = cand, cand - REL_TOL * cand, i
        else:
            for i in range(k - 2, -1, -1):
                prod *= qs[i]
                m += 1.0
                cand = 1.0 + m - m * prod + cost[i]
                if cand < bound:
                    best, bound, best_i = cand, cand - REL_TOL * cand, i
        cost[k] = best
        split[k] = best_i
    return DpTable(cost_to_go=tuple(cost), split=tuple(split))


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
    must match the rule used by the DP being checked. Ties go as in the DP:
    bit t of a mask cuts after sorted position t, the masks count down from
    all cuts, and a later plan wins only if cheaper by more than REL_TOL.
    """
    n = pv.n
    if n > MAX_EXHAUSTIVE_ORDERED:
        raise InstanceTooLargeError(n, MAX_EXHAUSTIVE_ORDERED, "ordered-partition enumeration")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    sorted_pv, perm = sort_ascending(pv)
    bc = _block_cost_table(sorted_pv.q, procedure, s_rule)
    bound = math.inf
    best_mask = 0
    for mask in range((1 << (n - 1)) - 1, -1, -1):
        total = 0.0
        start = 0
        for t in range(n - 1):
            if mask & (1 << t):
                total += bc[start][t + 1]
                start = t + 1
        total += bc[start][n]
        if total < bound:
            bound, best_mask = total - REL_TOL * total, mask
    edges = [0, *(t + 1 for t in range(n - 1) if best_mask >> t & 1), n]
    plan = OrderedPartition(sizes=tuple(b - a for a, b in zip(edges, edges[1:])))
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
