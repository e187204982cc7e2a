"""Expected-cost arithmetic written apart from pooltest, used to check its
outputs.

Nothing here imports pooltest. Blocks are given as sequences of q = 1 - p
in test order. For a block of k >= 2 items (a single item costs 1 test):

    D   1 + k - k * q_1...q_k
    Dp  D - q_1...q_{k-1} * (1 - q_k)
    S   (2k - 1) - (q_1 + ... + q_{k-1}) - sum over j = 1..k-1 of q_j...q_k
"""

from __future__ import annotations

import math


def cost_d(q) -> float:
    k = len(q)
    return 1.0 if k == 1 else 1.0 + k - k * math.prod(q)


def cost_dp(q) -> float:
    k = len(q)
    if k == 1:
        return 1.0
    head = math.prod(q[:-1])
    return 1.0 + k - k * head * q[-1] - head * (1.0 - q[-1])


def cost_s(q) -> float:
    k = len(q)
    if k == 1:
        return 1.0
    suffix, suffix_products = q[-1], 0.0
    for x in reversed(q[:-1]):
        suffix *= x
        suffix_products += suffix
    return (2.0 * k - 1.0) - sum(q[:-1]) - suffix_products


COST = {"D": cost_d, "Dp": cost_dp, "S": cost_s}


def best_order(qs, procedure: str) -> list[int]:
    """Positions of ``qs`` in a test order of lowest cost.

    D ignores order. Dp only needs the smallest q last. For S the first
    value never enters the cost except through order-free terms and the
    middle must ascend, so it is enough to try every value in last place
    with the rest ascending; O(k^2).
    """
    asc = sorted(range(len(qs)), key=lambda i: qs[i])
    if procedure != "S":
        return asc[::-1]
    candidates = [asc[:b] + asc[b + 1 :] + [asc[b]] for b in range(len(asc))]
    return min(candidates, key=lambda order: cost_s([qs[i] for i in order]))


def best_block_cost(qs, procedure: str) -> float:
    return COST[procedure]([qs[i] for i in best_order(qs, procedure)])


def best_ordered_plan(q_desc, procedure: str) -> tuple[float, list[int]]:
    """Optimal contiguous partition of items sorted by q descending.

    Plain O(N^2) DP over block ends with every block costed afresh by
    ``best_block_cost``; use it on small N, or for D where ``dorfman_optimum``
    is the fast form. Returns the total and the block sizes.
    """
    n = len(q_desc)
    best = [0.0] + [math.inf] * n
    cut = [0] * (n + 1)
    for k in range(1, n + 1):
        for i in range(k):
            c = best[i] + best_block_cost(q_desc[i:k], procedure)
            if c < best[k]:
                best[k], cut[k] = c, i
    sizes = []
    k = n
    while k:
        sizes.append(k - cut[k])
        k = cut[k]
    return best[n], sizes[::-1]


def dorfman_optimum(q_desc) -> float:
    """Optimal ordered-partition total under D in O(N^2): by Hwang (1975)
    an optimal D plan is contiguous in the risk order."""
    n = len(q_desc)
    best = [0.0] + [math.inf] * n
    for k in range(1, n + 1):
        prod = 1.0
        for i in range(k - 1, -1, -1):
            prod *= q_desc[i]
            m = k - i
            c = best[i] + (1.0 if m == 1 else 1.0 + m - m * prod)
            if c < best[k]:
                best[k] = c
    return best[n]


def neighbour_totals(q_desc, sizes, procedure: str):
    """Totals of every plan one step from ``sizes``: one item moved across a
    block boundary, or two adjacent blocks merged."""
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    cost = [best_block_cost(q_desc[a:b], procedure) for a, b in zip(starts, starts[1:])]
    base = sum(cost)
    for j in range(len(sizes) - 1):
        a, mid, b = starts[j], starts[j + 1], starts[j + 2]
        rest = base - cost[j] - cost[j + 1]
        for new_mid in (mid - 1, mid + 1):
            if a < new_mid < b:
                yield rest + best_block_cost(q_desc[a:new_mid], procedure) + best_block_cost(
                    q_desc[new_mid:b], procedure
                )
        yield rest + best_block_cost(q_desc[a:b], procedure)


def entropy_bits(ps) -> float:
    return sum(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p) for p in ps)


def bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def sterrett_candidates(n: int) -> int:
    """Last-value candidates costed by one S-optimal table over n items:
    every block i+1..k of m = k - i >= 2 items tries m last values."""
    return sum(k * (k + 1) // 2 - 1 for k in range(2, n + 1))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
