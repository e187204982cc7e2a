"""Plan search: dynamic programming over ordered partitions plus exhaustive
oracles over all ordered partitions and all set partitions for small N.

The DP, its running sums, width cut, cell budget and tie rule live in
``tables``; ``dp_table`` runs it on one sorted population with its split,
and every plan comes from it.

The exhaustive oracles cost each block afresh, always under the optimal
arrangement, with the one-shot ``cost._arranged_cost_q``, which also
decides the block orders that ``evaluate_plan`` reports, so the ordered
oracle checks the DP against an independent implementation. Both run
their enumeration as whole numpy arrays, in the float operations of the
one-at-a-time loops and in their order, so plans and totals are those
loops' (``tests/reference.py``). The ordered oracle sums all 2^(N-1) plan
totals by doubling over the cut positions and scans them in Python only
on a near tie. The set-partition oracle takes all 2^N block costs at once
from ``cost._subset_costs``, equal to ``_arranged_cost_q`` bit for bit,
then runs an exact DP over subsets in Python, O(3^N). Each oracle checks
its own guard, ``MAX_EXHAUSTIVE_ORDERED`` or ``MAX_EXHAUSTIVE_SET``,
before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import all_above_ungar
from .cost import _arranged_cost_q, _subset_costs, evaluate_plan
from .model import (
    REL_TOL,
    CostReport,
    InstanceTooLargeError,
    OrderedPartition,
    ProbabilityVector,
    SetPartition,
    sort_ascending,
)
from .tables import NEAR_TIE, walk

MAX_EXHAUSTIVE_ORDERED = 20  # 2^19 plan totals, two arrays of them; the README gives time and memory here
MAX_EXHAUSTIVE_SET = 15  # 3^15 / 2 subset-DP steps in Python; the README gives the time at this guard


@dataclass(frozen=True)
class DpTable:
    """Cost-to-go table of the ordered-partition dynamic program.

    ``cost_to_go[k]`` is the optimal cost of the first k sorted items;
    ``split[k]`` is the chosen i, i.e. the last block covers sorted items
    i+1..k. Ties pick the largest i, by the tie rule of ``tables``.
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


def dp_table(pv: ProbabilityVector, procedure: str, s_rule: str = "optimal") -> DpTable:
    """Run the ordered-partition DP on an already sorted population.

    ``s_rule`` selects the within-block arrangement for Sterrett blocks
    (see ``tables``); it is ignored for D and Dp. Before any work, an
    unknown procedure or rule raises ValueError, then an unsorted
    population NotSortedError, then a table that would visit more than
    ``tables.DP_CELL_BUDGET`` cells InstanceTooLargeError.
    """
    cost, split = walk(pv.q, procedure, s_rule)
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
    report = evaluate_plan(plan, pv, procedure)
    return PlanResult(plan=plan, report=report, search="dp-ordered", permutation=perm)


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------


def exhaustive_ordered(pv: ProbabilityVector, procedure: str) -> PlanResult:
    """Brute-force minimum over all 2^(N-1) ordered partitions, each block
    arranged optimally.

    Verification oracle for dp_ordered; guarded at N <= 20. Bit t of a mask
    cuts after sorted position t. Every mask's total is summed at once,
    doubling over the cut positions: a mask below 2^t with highest bit s
    leaves its block from s + 1 open (from 0 with no bit), so the masks
    2^t + m close it after t, total[2^t + m] = total[m] + bc[s + 1, t + 1],
    and each total is its blocks' costs summed left to right. Ties go as in
    the DP: the masks count down from all cuts, and a later plan wins only
    if cheaper by more than REL_TOL. That scan ends on the minimum unless
    another total lies within ``tables.NEAR_TIE`` of it (the argument of
    ``tables``), so only then are the totals scanned in Python.
    """
    n = pv.n
    if n > MAX_EXHAUSTIVE_ORDERED:
        raise InstanceTooLargeError(n, MAX_EXHAUSTIVE_ORDERED, "ordered-partition enumeration")
    sorted_pv, perm = sort_ascending(pv)
    qs = sorted_pv.q
    # bc[i, j] = arranged cost of sorted items i..j-1 (q descending)
    bc = np.zeros((n, n + 1))
    for j in range(1, n + 1):
        for i in range(j):
            bc[i, j] = _arranged_cost_q(qs[i:j][::-1], procedure)[0]
    runs = [1, *(1 << s for s in range(n - 1))]  # the masks by open block start
    total = np.empty(1 << (n - 1))  # the blocks closed so far
    total[0] = 0.0
    for t in range(n - 1):
        np.add(total[: 1 << t], bc[: t + 1, t + 1].repeat(runs[: t + 1]), out=total[1 << t : 2 << t])
    total += bc[:, n].repeat(runs)
    near = np.flatnonzero(total <= total.min() * NEAR_TIE)
    best_mask = int(near[0])
    if len(near) > 1:
        bound = math.inf
        for mask, x in zip(range(len(total) - 1, -1, -1), reversed(memoryview(total))):
            if x < bound:
                bound, best_mask = x - REL_TOL * x, mask
    edges = [0, *(t + 1 for t in range(n - 1) if best_mask >> t & 1), n]
    plan = OrderedPartition(sizes=tuple(b - a for a, b in zip(edges, edges[1:])))
    report = evaluate_plan(plan, pv, procedure)
    return PlanResult(plan=plan, report=report, search="exhaustive-ordered", permutation=perm)


def exhaustive_set(pv: ProbabilityVector, procedure: str) -> PlanResult:
    """Global minimum over ALL set partitions, each block arranged optimally.

    This is the unordered-plan oracle, an exact DP over subsets: every
    nonempty subset is costed once, all at once by ``cost._subset_costs``,
    then f(S) = min over blocks T that hold the smallest item of S of
    c(T) + f(S - T), O(3^N) steps after the 2^N block costs; guarded at
    N <= 15. Ties go to the lexicographically smallest restricted growth
    string (item i labelled with its block's number, blocks numbered by
    smallest member) among plans within REL_TOL: with bit n-1-i standing
    for item i, the S with highest bit 2^h, the anchor, are those of
    2^h..2^(h+1)-1, and their T are tried with the submasks of S's other
    items counting down, which prefers smaller items; a later T wins only
    if it is cheaper by more than REL_TOL relative.
    """
    n = pv.n
    if n > MAX_EXHAUSTIVE_SET:
        raise InstanceTooLargeError(n, MAX_EXHAUSTIVE_SET, "set-partition search")
    cost = _subset_costs(pv.q, procedure).tolist()
    f = [0.0]  # f[S], S counting up
    choice = [0]
    for h in range(n):
        anchor = 1 << h  # the smallest item of S
        with_anchor = cost[anchor : 2 * anchor]  # with_anchor[t] = cost[anchor | t]
        for rest in range(anchor):
            best = with_anchor[rest]
            bound = best - REL_TOL * best
            best_t = t = rest
            while t:
                t = (t - 1) & rest
                c = with_anchor[t] + f[rest ^ t]
                if c < bound:
                    best, bound, best_t = c, c - REL_TOL * c, t
            f.append(best)
            choice.append(anchor | best_t)
    blocks = []
    S = (1 << n) - 1
    while S:
        T = choice[S]
        blocks.append(tuple(i for i in range(n) if T >> (n - 1 - i) & 1))
        S ^= T
    plan = SetPartition(blocks=tuple(blocks))
    report = evaluate_plan(plan, pv, procedure)
    return PlanResult(plan=plan, report=report, search="exhaustive-set")
