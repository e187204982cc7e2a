"""Scalar references the library is tested against.

Each shares no code with the library routine it checks: the protocol
executors run one defect vector at a time, the way the procedures are
described, against the array counter ``simulate.count_tests``; the
first-defective recursion and the equal-risk closed form check the
Sterrett closed form; ``pair_costs`` states the pair-interchange
comparison through the public plan evaluator; ``uncut_dorfman_table`` is
the D and Dp loop one cell at a time that tries every block start, against
which ``dp_table``'s width cut and chunked slabs are checked;
``scalar_sterrett_table`` is the S loop one cell at a time, against which
the S table's chunked slabs are checked; ``exact_table`` is the ordered-partition DP in exact rational
arithmetic, which bounds the float error of ``dp_table`` and fixes its tie
rule exactly; ``dyadic_cost`` is the given-order cost of the exact 1 - p
in integers over one power of two, fast enough for blocks of thousands
of items, and is checked against ``exact_sterrett`` and
``exact_block_cost``.
"""

import math
from fractions import Fraction

from pooltest.cost import evaluate_plan
from pooltest.model import (
    REL_TOL,
    Group,
    ProbabilityVector,
    SetPartition,
    validate_probability_vector,
)


def run_dorfman(defects) -> int:
    """Dorfman: pool test, then every member individually if positive."""
    d = tuple(bool(x) for x in defects)
    k = len(d)
    if k == 1 or not any(d):
        return 1
    return 1 + k


def run_dorfman_modified(defects) -> int:
    """Dorfman with the inference rule: when the pool is positive and the
    first k-1 members all test negative, the last member must be defective
    and is not tested."""
    d = tuple(bool(x) for x in defects)
    k = len(d)
    if k == 1 or not any(d):
        return 1
    if not any(d[: k - 1]):
        return k  # all leading items negative: last item inferred defective
    return 1 + k


def run_sterrett(defects) -> int:
    """Sterrett: pool test; if positive, test members one by one until the
    first defective, then restart the whole procedure on the untested rest.

    A remaining window of size one is a plain individual test. When every
    member of a window except the last tests negative, the last is inferred
    defective without a test. Iterative over a start pointer, so deep groups
    cannot overflow the call stack.
    """
    d = tuple(bool(x) for x in defects)
    k = len(d)
    tests = 0
    start = 0
    while start < k:
        if k - start == 1:
            return tests + 1
        tests += 1  # pool test on positions start..k-1
        if not any(d[start:]):
            break
        j = start
        found = False
        while j < k - 1:
            tests += 1
            if d[j]:
                found = True
                break
            j += 1
        if not found:
            break  # positions start..k-2 all negative, last one inferred defective
        start = j + 1
    return tests


PROTOCOLS = {"D": run_dorfman, "Dp": run_dorfman_modified, "S": run_sterrett}


def cost_sterrett_recursive(group: Group, pv: ProbabilityVector) -> float:
    """Independent Sterrett oracle via the first-defective-position recursion.

    Conditioning on the position j of the first defective item:

      no defective      contributes  q_1...q_k * 1
      first at k        contributes  q_1...q_{k-1} (1-q_k) * k
      first at k-1      contributes  q_1...q_{k-2} (1-q_{k-1}) * (k+1)
      first at j<=k-2   contributes  q_1...q_{j-1} (1-q_j) * (1 + j + E(j+1:k))

    where E(j+1:k) is the cost of a fresh run on the untested suffix.
    Evaluated bottom-up over suffixes; shares no code with ``_cost_sterrett_q``.
    """
    q = group.qs(pv)
    k = len(q)
    # e[i] = expected tests of a fresh run on items i..k-1; e[k] unused
    e = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        m = k - i
        if m == 1:
            e[i] = 1.0
            continue
        total = math.prod(q[i:])
        prefix = 1.0
        for j in range(1, m + 1):  # j = 1-based position within the suffix
            term = prefix * (1.0 - q[i + j - 1])
            if j == m:
                total += term * m
            elif j == m - 1:
                total += term * (m + 1)
            else:
                total += term * (1 + j + e[i + j])
            prefix *= q[i + j - 1]
        e[i] = total
    return e[0]


def cost_sterrett_equal_prob(k: int, q: float) -> float:
    """Sterrett cost for a group of k items sharing the same q.

    Closed form 2k - (k-2) q - (1 - q^(k+1)) / (1 - q); returns exactly 1
    for k = 1, matching the single-test convention of the other evaluators.
    """
    if k < 1:
        raise ValueError("group size must be >= 1")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    if k == 1:
        return 1.0
    return 2.0 * k - (k - 2) * q - (1.0 - q ** (k + 1)) / (1.0 - q)


def pair_costs(q1: float, q2: float, q3: float, q4: float) -> tuple[float, float]:
    """Sterrett costs of the pairings {q1,q2} u {q3,q4} and {q1,q3} u {q2,q4},
    each pair tested in the order written. For q1 >= q2 >= q3 >= q4 the
    larger q goes first, and swapping the middle values never raises the
    total, so the second entry is at most the first."""
    pv = validate_probability_vector([1.0 - q for q in (q1, q2, q3, q4)])

    def total(blocks):
        return evaluate_plan(SetPartition(blocks=blocks), pv, "S", arrange="given").total

    return total(((0, 1), (2, 3))), total(((0, 2), (1, 3)))


def uncut_dorfman_table(qs, procedure: str) -> tuple[list[float], list[int]]:
    """The ordered-partition DP for D or Dp on descending ``qs``, one cell
    at a time, trying every start i = k-2 .. 0 of every row in
    ``dp_table``'s arithmetic and tie rule: per block start the product P
    of the block, grown forward as the S loop grows it, the previous row's
    P being the Dp head product. Its cost-to-go and split lists, equal to
    ``dp_table``'s only if the width cut skips no start that could win and
    the slabs keep every float operation."""
    n = len(qs)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    P = [0.0] * n
    for k in range(1, n + 1):
        qlast = qs[k - 1]
        one_minus_qlast = 1.0 - qlast
        best = cost[k - 1] + 1.0
        bound = best - REL_TOL * best
        best_i = k - 1
        m = 1.0
        for i in range(k - 2, -1, -1):
            head = P[i]
            p = P[i] = head * qlast
            m += 1.0
            if procedure == "Dp":
                cand = 1.0 + m - m * p - head * one_minus_qlast + cost[i]
            else:
                cand = 1.0 + m - m * p + cost[i]
            if cand < bound:
                best, bound, best_i = cand, cand - REL_TOL * cand, i
        P[k - 1] = qlast
        cost[k] = best
        split[k] = best_i
    return cost, split


def scalar_sterrett_table(qs, s_rule: str) -> tuple[list[float], list[int]]:
    """The ordered-partition DP for S on descending ``qs``, one cell at a
    time: per block start the phi walk's running sums P, C, T and M, the
    candidate taking the running minimum M of phi under the optimal rule
    and the newest phi under smallest-last, in ``dp_table``'s arithmetic
    order and tie rule. Its cost-to-go and split lists."""
    n = len(qs)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    P, C, T, M = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    for k in range(1, n + 1):
        qlast = qs[k - 1]
        one_minus_qlast = 1.0 - qlast
        best = cost[k - 1] + 1.0
        bound = best - REL_TOL * best
        best_i = k - 1
        m = 1.0
        for i in range(k - 2, -1, -1):
            c = C[i] + P[i]
            p = P[i] * qlast
            t = T[i] + qlast
            phi = qlast + one_minus_qlast * c + p
            if s_rule == "smallest-last" or phi < M[i]:
                M[i] = phi
            P[i], C[i], T[i] = p, c, t
            m += 1.0
            cand = (2.0 * m - 1.0) - t - p - c + M[i] + cost[i]
            if cand < bound:
                best, bound, best_i = cand, cand - REL_TOL * cand, i
        P[k - 1] = T[k - 1] = qlast
        M[k - 1] = 2.0 * qlast
        cost[k] = best
        split[k] = best_i
    return cost, split


def exact_sterrett(order) -> Fraction:
    """The Sterrett closed form of exact q values in test order: (2k - 1)
    less the head sum and the suffix products of two or more values."""
    k = len(order)
    if k == 1:
        return Fraction(1)
    chain = Fraction(0)
    suffix = order[-1]
    for q in reversed(order[:-1]):
        suffix *= q
        chain += suffix
    return 2 * k - 1 - sum(order[:-1]) - chain


def exact_block_cost(qs, procedure: str, s_rule: str) -> Fraction:
    """Expected tests of one block, its float q values read as the exact
    rationals they store, under the arrangement ``dp_table`` gives it.

    The last value goes last and the others ascend before it; Dp and
    optimal S take the cheapest choice of last value, and smallest-last S
    takes the smallest q. D does not depend on the order.
    """
    v = sorted(map(Fraction, qs))
    m = len(v)
    if m == 1:
        return Fraction(1)
    full = math.prod(v)
    if procedure == "D":
        return 1 + m - m * full
    costs = []
    for b in range(m if procedure == "Dp" or s_rule == "optimal" else 1):
        rest = v[:b] + v[b + 1 :]
        if procedure == "Dp":
            costs.append(1 + m - m * full - math.prod(rest) * (1 - v[b]))
        else:
            costs.append(exact_sterrett([*rest, v[b]]))
    return min(costs)


def exact_table(qs, procedure: str, s_rule: str) -> tuple[list[Fraction], list[int]]:
    """The exact optimal cost-to-go over ordered partitions of the
    descending ``qs``, F(k) = min over i < k of F(i) plus the block
    i..k-1, and its split under the tie rule applied exactly: i tries k-1
    down, and a smaller i wins only if strictly cheaper. O(N^2) exact
    block costs of O(N^2) each, so meant for N <= 16 or so."""
    n = len(qs)
    F = [Fraction(0)] * (n + 1)
    split = [0] * (n + 1)
    for k in range(1, n + 1):
        for i in range(k - 1, -1, -1):
            cand = F[i] + exact_block_cost(qs[i:k], procedure, s_rule)
            if i == k - 1 or cand < F[k]:
                F[k], split[k] = cand, i
    return F, split


def dyadic_cost(probs, procedure: str) -> tuple[int, int]:
    """Exact expected tests of one block whose float risks ``probs`` are in
    test order, as (c, s) for the cost c / 2^s.

    A float is a dyadic rational, so with 2^e the largest denominator of
    the risks every q = 1 - p is an integer over 2^e, and a cost over the k
    items is an integer over 2^(e k). Integers need no gcd at each step, as
    ``Fraction`` does: an S block of 5000 low risks takes well under a
    second. The forms are those of ``exact_sterrett`` and the D and Dp
    closed forms; the S suffix chain q_k q_(k-1) (1 + q_(k-2) (1 + ...
    (1 + q_1))) is grown Horner-style from the front.
    """
    ratios = [p.as_integer_ratio() for p in probs]
    e = max(d.bit_length() - 1 for _, d in ratios)
    q = [(1 << e) - (n << (e - d.bit_length() + 1)) for n, d in ratios]
    k, s = len(q), e * len(q)
    if k == 1:
        return 1, 0
    if procedure == "S":
        acc = 1
        for t in range(k - 2):
            acc = acc * q[t] + (1 << (e * (t + 1)))
        head = sum(q[:-1]) << (s - e)
        return ((2 * k - 1) << s) - head - q[-1] * q[-2] * acc, s
    full = math.prod(q)
    cost = ((1 + k) << s) - k * full
    if procedure == "Dp":
        cost -= math.prod(q[:-1]) * ((1 << e) - q[-1])
    return cost, s
