"""Plan search: dynamic programming over ordered partitions plus exhaustive
oracles over all ordered partitions and all set partitions for small N.

The DP works on the population sorted ascending by p (descending by q).
With F(0) = 0 and F(1) = 1, the cost-to-go of the first k sorted items is

    F(k) = min over 0 <= i <= k-1 of  E(block i+1..k) + F(i)

where each candidate block is costed under its within-block arrangement:
for D and Dp the cheapest order, for S one of two rules, "optimal" (the
true minimum over block orders) or "smallest-last" (the ascending-head
rule behind published comparison tables, optimal only up to three items).
Block costs are kept as running sums, O(1) per cell (block start, block
end), so a table costs at most N(N-1)/2 cells of arithmetic. For S the
sums are those of ``cost._optimal_sterrett_ascending``, which derives the
cost of the order testing qs[a] last through phi(i,a): phi reads no item
past a, so extending the block i..k-1 adds the one candidate a = k-1 to a
running minimum per block start. Smallest-last is the same walk with the
last value fixed to the newest item qs[k-1]: its candidate takes phi(i,k-1)
in place of the minimum, so both rules run one loop under one cell budget.

The D and Dp rows stop early, at no change to the table. Row k tries the
block i..k-1, of size m = k-i, for i from k-2 down, after the trailing
singleton, so ``best`` starts at F(k-1) + 1 <= F(i) + m (a singleton adds
one test at most). A D block costs 1 + m - m P with P the product of its
q; a Dp block costs 1 + m - m P - P_head (1 - q_last) >= 1 + m - m P_head,
with P_head the product of all but its last q. So once P (D) or P_head
(Dp) is below 0.5/(N+1), m <= N puts the candidate above F(i) + m + 1/2,
and it can never beat ``best``. The products only fall as i falls, so
the row ends at the first such start, found up front by
``_row_stops``. The 1/2 covers the rounding in the table's own sums,
below (2N)^2 2^-53 < 0.05 for N <= MAX_CUT_N. Risky populations then
visit O(N log N) cells; low-risk ones, whose products never fall that
far, visit them all.

Every table refuses, with InstanceTooLargeError, to run when its exact
cell count exceeds DP_CELL_BUDGET.

Every table runs in ``tables.walk``, in chunks of rows of numpy slabs
that equal the one-cell-at-a-time loop bit for bit; D and Dp run inside
the stops above. One running product per block start, multiplied forward
as the block grows, serves all three procedures, and S keeps its other
sums beside it; that module holds the design. These running sums, and so
the smallest-last rule, are written only there, one population at a time
with its split, and in ``batch.dp_totals``, which runs the same
operations in the same order on many populations at once and keeps their
totals only. The study calls the batch; every plan comes from
``dp_table``.

The exhaustive oracles cost each block afresh, always under the optimal
arrangement, with the one-shot ``cost._arranged_cost_q``, which also
decides the block orders that ``evaluate_plan`` reports, so the ordered
oracle checks the DP against an independent implementation. The
set-partition oracle is an exact DP over subsets, O(3^N) after 2^N block
costs, and is guarded at N <= 15.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .bounds import all_above_ungar
from .cost import _arranged_cost_q, _cost_report, _plan_blocks, evaluate_plan
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
from .tables import walk

MAX_EXHAUSTIVE_ORDERED = 20  # 2^19 plans: 1.0-1.4 s for D, Dp or S (Python 3.11, 2 vCPUs)
MAX_EXHAUSTIVE_SET = 15  # 3^15 / 2 subset-DP steps: about 1.4 s (Python 3.11, 2 vCPUs)
# Cells (block start, block end) one dp_table or dp_totals table may visit,
# under every procedure and rule: the full table fits up to N = 5292. There
# the slowest tables are on equal risks, whose near ties rescan most rows in
# Python: dp_table takes 1.0-1.2 s for D and Dp and 1.4-1.6 s for S, and
# dp_totals at m = 2 1.3-1.7 s and 1.8-2.2 s per table. Risky and
# U(1e-6, 1e-3) rows take at most 0.9 s and 1.3 s (Python 3.11, 2 vCPUs,
# BENCH_25.json).
DP_CELL_BUDGET = 14_000_000
MAX_CUT_N = 10**7  # the D and Dp cut's rounding argument holds up to here

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


def _row_stops(qs: tuple[float, ...], procedure: str) -> tuple[list[int], int]:
    """Where each row of the table ends, and the exact number of cells it visits.

    Row k tries the block starts i = k-2 down to ``stops[k] + 1``. No row
    is cut for S, nor for D and Dp when the product of every q is not below
    the cut threshold 0.5/(N+1) (the module docstring proves the cut): then
    every stop is -1, and the usual low-risk table pays one ``math.prod``
    for the test. Otherwise the stops come from an O(N) two-pointer over
    prefix sums of log q.
    """
    n = len(qs)
    if procedure == "S" or n > MAX_CUT_N or math.prod(qs) >= 0.5 / (n + 1):
        return [-1] * (n + 1), n * (n - 1) // 2
    # S[j] = log qs[0] + ... + log qs[j-1], falling in j. A start i is cut
    # when S[i] - S[k] > c: then the product of qs[i..k-1] is below
    # 0.5/(N+1) with margin to spare. With u = 2^-53, math.log within one
    # ulp, and L = |S[N]| (every log q has the same sign), S[k] - S[i]
    # differs from the exact log of the product by at most 2 gamma_N L from
    # the two running sums plus 2uL from the logs, and forming S[k] + c
    # rounds by at most u(L + c): (2N + 6) u (L + c) in all, which the
    # margin 512 (N + 1) u (L + c) exceeds.
    S = list(itertools.accumulate(map(math.log, qs), initial=0.0))
    c = math.log(2.0 * (n + 1))
    c += 2.0**-44 * (n + 1) * (c - S[n])
    # cut[k] = the number of starts i cut against S[k]; it never exceeds k
    # (c > 0) and never falls as k grows, so one pointer serves every row
    cut = [0] * (n + 1)
    j = 0
    for k, s in enumerate(S):
        limit = s + c
        while S[j] > limit:
            j += 1
        cut[k] = j
    if procedure == "D":  # the product of the whole block qs[i..k-1]
        stops = [j - 1 for j in cut]
    else:  # Dp: the product of the head qs[i..k-2]
        stops = [-1, *(j - 1 for j in cut[:-1])]
    # row k visits k-2-stops[k] cells, or none where that is -1 (stops[k] = k-1)
    cells = (n + 1) * (n - 4) // 2 - sum(stops) + sum(map(operator.eq, stops, range(-1, n)))
    return stops, cells


def _check_cells(procedure: str, n: int, cells: int) -> None:
    """Refuse, with InstanceTooLargeError, a ``procedure`` table over n items
    that would visit more than DP_CELL_BUDGET cells."""
    if cells > DP_CELL_BUDGET:
        raise InstanceTooLargeError(
            cells, DP_CELL_BUDGET, f"{procedure} DP over {n} items:", "cell count"
        )


def _budgeted_stops(qs: Sequence[float], procedure: str) -> list[int]:
    """``_row_stops`` of a table, refused by ``_check_cells`` on its cells."""
    stops, cells = _row_stops(qs, procedure)
    _check_cells(procedure, len(qs), cells)
    return stops


def dp_table(pv: ProbabilityVector, procedure: str, s_rule: str = "optimal") -> DpTable:
    """Run the ordered-partition DP on an already sorted population.

    ``s_rule`` selects the within-block arrangement for Sterrett blocks
    (see the module docstring); it is ignored for D and Dp. A table that
    would visit more than DP_CELL_BUDGET cells raises InstanceTooLargeError
    before any work.
    """
    _check_sorted(pv)
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    qs = pv.q  # descending
    cost, split = walk(qs, procedure, s_rule, _budgeted_stops(qs, procedure))
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
    report = _cost_report(_plan_blocks(plan, pv, perm), pv, procedure)
    return PlanResult(plan=plan, report=report, search="dp-ordered", permutation=perm)


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------


ORACLE_GUARDS = {
    "exhaustive-ordered": (MAX_EXHAUSTIVE_ORDERED, "ordered-partition enumeration"),
    "exhaustive-set": (MAX_EXHAUSTIVE_SET, "set-partition search"),
}


def check_guard(search: str, n: int) -> None:
    """Raise the InstanceTooLargeError that the exhaustive ``search`` gives
    a population of n items, or nothing if it would run."""
    limit, what = ORACLE_GUARDS[search]
    if n > limit:
        raise InstanceTooLargeError(n, limit, what)


def exhaustive_ordered(pv: ProbabilityVector, procedure: str) -> PlanResult:
    """Brute-force minimum over all 2^(N-1) ordered partitions, each block
    arranged optimally.

    Verification oracle for dp_ordered; guarded at N <= 20. Ties go as in
    the DP: bit t of a mask cuts after sorted position t, the masks count
    down from all cuts, and a later plan wins only if cheaper by more than
    REL_TOL.
    """
    n = pv.n
    check_guard("exhaustive-ordered", n)
    sorted_pv, perm = sort_ascending(pv)
    qs = sorted_pv.q
    # bc[i][j] = arranged cost of sorted items i..j-1 (q descending)
    bc = [[0.0] * (n + 1) for _ in range(n)]
    for j in range(1, n + 1):
        for i in range(j):
            bc[i][j] = _arranged_cost_q(qs[i:j][::-1], procedure)[0]
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
    report = _cost_report(_plan_blocks(plan, pv, perm), pv, procedure)
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
    check_guard("exhaustive-set", n)
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
