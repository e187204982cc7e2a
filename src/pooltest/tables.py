"""The ordered-partition DP: its recurrence, running sums, width cut, cell
budget and tie rule, and the two engines that run it.

On a population sorted ascending by p, so descending by q (``qs``), with
F(0) = 0, the cost-to-go of the first k items is

    F(k) = min over 0 <= i <= k-1 of  E(block i+1..k) + F(i)

with each block costed under its within-block arrangement: for D and Dp
the cheapest order, for S "optimal" (the true minimum over block orders)
or "smallest-last" (the ascending-head rule behind published comparison
tables, optimal only up to three items). Row k tries the trailing
singleton i = k-1 first, then i = k-2 down, and a later candidate wins
only if it is cheaper by more than REL_TOL relative. This tie rule's scan
ends within 1/(1 - REL_TOL) of the row's minimum, as a candidate it passes
over is not below its bound. So where no other candidate lies within
NEAR_TIE of the minimum the scan ends on it, and elsewhere the engines
rescan the candidates in Python, in its order.

``walk`` builds one population's cost-to-go and split, for
``optimize.dp_table`` and so for every plan. ``dp_totals`` runs many
populations of one size at once, for the study, and keeps their totals,
equal bit for bit to ``dp_table``'s: its numpy calls serve every
replicate, so it wins from a few replicates up, and ``walk`` wins for one
(``BENCH_17.json``, ``BENCH_23.json``). Both check their input through
``_budgeted_stops`` alone, before any DP work: procedure, rule, order,
then cell budget.

Running sums. Per block start i both keep the product P = qs[i] ... qs[k-1]
of the block i..k-1, multiplied forward as the block grows, so a cell
(block start, block end) costs O(1) and a table at most N(N-1)/2 cells.
With m = k - i items a D block costs (1 + m) - m P; a Dp block also
subtracts P_head (1 - qs[k-1]), where P_head is P before it took qs[k-1].
S keeps the sums of ``cost._optimal_sterrett_ascending``: C = C(i,k-1),
T = qs[i] + ... + qs[k-1] and M = the minimum over i <= a <= k-1 of
phi(i,a) = qs[a] + (1 - qs[a]) C(i,a) + P(i,a). phi reads no item past a,
so the block's growth adds one candidate to M. Smallest-last fixes the
last value to the newest item and takes phi(i,k-1) in place of M, so both
rules run one loop. An S block costs (2m - 1) - T - P - C + M.

The cut. Row k's ``best`` starts at F(k-1) + 1 <= F(i) + m. A D block
costs 1 + m - m P, and a Dp block 1 + m - m P - P_head (1 - q_last)
>= 1 + m - m P_head. So once P (D) or P_head (Dp) is below 0.5/(N+1),
m <= N puts the candidate above F(i) + m + 1/2: it can neither win nor lie
within NEAR_TIE of the row's minimum. The products only fall as i falls,
so the row ends at the first such start, which ``_row_stops`` finds up
front. The 1/2 covers the rounding in the table's own sums, below
(2N)^2 2^-53 < 0.05 for N <= MAX_CUT_N. Risky populations then visit
O(N log N) cells, low-risk ones all of them. S is never cut.

The budget. A table whose exact cell count exceeds DP_CELL_BUDGET is
refused with InstanceTooLargeError (``check_cells``). A batch cuts and
counts its rows by the stops of the columnwise largest q, whose block
products bound every replicate's from above: a start it cuts is cut for
each replicate, and its count is the cells each replicate's table visits.

``walk`` runs rows in chunks of CHUNK. A chunk's (rows, starts) slab
advances every start's sums with one ``multiply``, ``add`` or ``minimum``
accumulate down the slab, from row 0, the previous chunk's last row; an
accumulate is sequential, so each cell is the one-cell-at-a-time loop's
operation in its order, and each table equals that loop bit for bit
(``tests/reference.py``). The D and Dp slabs hold P for the starts from
the chunk's first stop on, dropping from the left those cut since the
last chunk; the stops never fall as k grows, and a cut start a slab still
holds for a later row needs no mask, by the cut's proof. In
``_take_rows`` the settled starts, i < k0-1, are one add and a row-wise
argmin under the tie rule; the newer ones, at most CHUNK^2 / 2 cells, are
scanned in Python first. Slabs are new contiguous arrays, which numpy
runs as one flat loop, faster than slices of an array N wide, and the
carried row is a copy, so each slab is freed before the next
(``BENCH_21.json``).

``dp_totals`` runs row k of every table as one set of numpy operations
over (block start, replicate), in chunks of CHUNK_DRAWS // (16 N)
replicates, at least one: the scratch, at most eight (N, replicates)
float arrays, then holds CHUNK_DRAWS / 2 floats, 2 MiB, one core's L2
cache on the 2-vCPU hosts measured, where larger chunks ran slower
(CHANGES.md). A row's candidates sit by block start, as a slab's do, so
each write is a forward slice, one flat loop (``BENCH_30.json``). Only
the rescan of a replicate with a near tie reads them reversed, for ``_scan``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .model import PROCEDURES, REL_TOL, STERRETT_RULES, InstanceTooLargeError, NotSortedError

# Rows per chunk: chunks of 16 to 40 rows ran the S tables, and 20 to 32
# rows the D and Dp tables of the benchmark's design decks, in the same
# time within a few percent (BENCH_19.json, BENCH_20.json).
CHUNK = 24
# Cells (block start, block end) one table may visit, under every
# procedure and rule: the full table fits up to N = 5292. There the
# slowest tables, on equal risks, whose near ties rescan most rows in
# Python, take about 2 s (BENCH_25.json).
DP_CELL_BUDGET = 14_000_000
MAX_CUT_N = 10**7  # the D and Dp cut's rounding argument holds up to here
# A second candidate this close to a minimum may end a REL_TOL scan on it.
NEAR_TIE = 1.0 + 4.0 * REL_TOL
# Sizes the ``dp_totals`` replicate chunks, as the module docstring says;
# the Monte Carlo's ``simulate.CHUNK_DRAWS`` is sized apart, for its memory.
CHUNK_DRAWS = 1 << 19


def _row_stops(qs: Sequence[float], procedure: str) -> tuple[list[int], int]:
    """Where each row of the table ends, and the exact number of cells it visits.

    Row k tries the block starts i = k-2 down to ``stops[k] + 1``. No row
    is cut for S, nor for D and Dp when the product of every q is not below
    the cut threshold 0.5/(N+1): then every stop is -1, and the usual
    low-risk table pays one ``math.prod`` for the test. Otherwise the stops
    come from an O(N) two-pointer over prefix sums of log q.
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


def check_cells(procedure: str, n: int, cells: int) -> None:
    """Refuse, with InstanceTooLargeError, a ``procedure`` table over n items
    that would visit more than DP_CELL_BUDGET cells."""
    if cells > DP_CELL_BUDGET:
        raise InstanceTooLargeError(
            cells, DP_CELL_BUDGET, f"{procedure} DP over {n} items:", "cell count"
        )


def _budgeted_stops(q: np.ndarray, procedure: str, s_rule: str) -> list[int]:
    """The row stops for the tables of the rows of the (m, N) array ``q``:
    those of its columnwise largest q. Raises, in this order, on an unknown
    procedure or rule, on a row not sorted descending, and through
    ``check_cells`` on a table over the budget."""
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    if np.count_nonzero(q[:, 1:] > q[:, :-1]):
        raise NotSortedError("population must be sorted ascending by p")
    stops, cells = _row_stops(q.max(axis=0).tolist(), procedure)
    check_cells(procedure, q.shape[1], cells)
    return stops


@functools.cache
def _upper(B: int) -> np.ndarray:
    """The (B + 1, B) mask of c >= r. Built from Python lists: a first
    comparison ufunc in a process faults in about 0.3 MiB of numpy's code."""
    return np.array([[c >= r for c in range(B)] for r in range(B + 1)])


def _take_rows(bs: np.ndarray, k0: int, stops: list[int], cost: list[float], split: list[int]) -> None:
    """Choose rows k0..k0+b-1 of a table, b = len(bs), into ``cost`` and
    ``split``, from bs[r, i - lo]: start i's candidate in row k0 + r, less
    F(i) = cost[i], for the starts lo..k0+b-2, lo = stops[k0] + 1. Row k
    scans its newer starts down to stops[k] + 1 only."""
    b = len(bs)
    lo = stops[k0] + 1
    first = max(k0 - 1, lo)  # the newer starts: first..k0+b-2
    s = first - lo  # the settled starts lo..first-1, one column each
    cs = bs[:, :s] + cost[lo:first]  # their candidates
    if s:
        arg = cs.argmin(axis=1)
        flat, where = cs.reshape(-1), np.arange(0, b * s, s) + arg
        low = flat[where]
        flat[where] = math.inf  # for the next smallest, a possible tie
        second = cs.min(axis=1)
        flat[where] = low
        settled = zip(low.tolist(), arg.tolist(), second.tolist())
    else:
        settled = itertools.repeat((math.inf, 0, math.inf))
    for r, ((x_min, i_min, x_next), row) in enumerate(zip(settled, bs[:, s:].tolist())):
        k = k0 + r
        best = cost[k - 1] + 1.0  # i = k-1: trailing singleton
        bound = best - REL_TOL * best
        best_i = k - 1
        for i in range(k - 2, max(first - 1, stops[k]), -1):  # the newer starts first
            x = row[i - first] + cost[i]
            if x < bound:
                best, bound, best_i = x, x - REL_TOL * x, i
        if x_min < bound:
            if x_next > x_min * NEAR_TIE:
                best, best_i = x_min, lo + i_min
            else:  # rescan the settled starts, first-1 down to lo
                for i, x in zip(range(first - 1, lo - 1, -1), reversed(cs[r].tolist())):
                    if x < bound:
                        best, bound, best_i = x, x - REL_TOL * x, i
        cost[k] = best
        split[k] = best_i


def walk(qs: tuple[float, ...], procedure: str, s_rule: str) -> tuple[list[float], list[int]]:
    """Cost-to-go and split of the D, Dp or S table on the descending
    ``qs``, refused as ``_budgeted_stops`` refuses.

    Slab row r holds each start's sums after the chunk's r-th row, and row
    0 those after the row before the chunk. Start i opens at row i+1;
    until then it holds P = 1, C = T = 0 and M = +inf, whose factors and
    addends read 1, 0 and +inf, so it opens on the scalar loop's values
    exactly (C = 0 and phi(i,i) = 2 qs[i]). Under smallest-last M is phi.
    """
    n = len(qs)
    q = np.array(qs)
    stops = _budgeted_stops(q[None, :], procedure, s_rule)
    B = min(CHUNK, n)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    sterrett = procedure == "S"
    optimal = s_rule == "optimal"
    opening = np.array([[1.0], [0.0], [0.0], [math.inf]])  # P, C, T, M of a start not yet open
    carry = np.empty((4, 0) if sterrett else 0)  # the sums of starts carry_lo..k0-2
    carry_lo = 0
    upper = _upper(B)
    index = np.arange(n + 1.0)  # k and i, as floats
    twice_start = np.arange(0.0, 2.0 * n, 2.0)
    for k0 in range(1, n + 1, B):
        k1 = min(k0 + B, n + 1)  # the chunk runs rows k0..k1-1
        b, w = k1 - k0, k1 - 1  # rows, and starts lo..k1-2 touched
        lo = stops[k0] + 1
        first = max(k0 - 1, lo)  # the starts opening in the chunk: first..k1-2
        qk = q[k0 - 1 : k1 - 1, None]
        if sterrett:  # never cut: lo = 0
            sums = np.empty((4, b + 1, w))
            sums[:, 0, : k0 - 1] = carry
            sums[:, 0, k0 - 1 :] = opening
            Ps, Cs, Ts, Ms = sums
        else:  # P alone, its cut starts dropped from the left
            sums = Ps = np.empty((b + 1, w - lo))
            Ps[0, : first - lo] = carry[lo - carry_lo :]
        # start k0-1+c is not yet open at slab row r when c >= r, and not
        # yet extended (its C unchanged) when c >= r-1
        fresh = upper[: b + 1, first - k0 + 1 : b]
        np.copyto(Ps[1:], qk)
        np.copyto(Ps[:, first - lo :], 1.0, where=fresh)
        np.multiply.accumulate(Ps, axis=0, out=Ps)
        if sterrett:
            fresh = fresh[1:]
            np.copyto(Ts[1:], qk)
            np.copyto(Ts[1:, k0 - 1 :], 0.0, where=fresh)
            np.add.accumulate(Ts, axis=0, out=Ts)
            np.copyto(Cs[1:], Ps[:-1])
            np.copyto(Cs[1:, k0 - 1 :], 0.0, where=upper[:b, :b])
            np.add.accumulate(Cs, axis=0, out=Cs)
            phi = Ms[1:]  # phi = qlast + (1 - qlast) C + P
            np.multiply(1.0 - qk, Cs[1:], out=phi)
            np.add(qk, phi, out=phi)
            np.add(phi, Ps[1:], out=phi)
            if optimal:
                np.copyto(Ms[1:, k0 - 1 :], math.inf, where=fresh)
                np.minimum.accumulate(Ms, axis=0, out=Ms)
            # base = (2m - 1) - T - P - C + M, m = k - i items
            bs = np.subtract(np.arange(2.0 * k0 - 1.0, 2.0 * k1 - 1.0, 2.0)[:, None], twice_start[:w])
            np.subtract(bs, Ts[1:], out=bs)
            np.subtract(bs, Ps[1:], out=bs)
            np.subtract(bs, Cs[1:], out=bs)
            np.add(bs, Ms[1:], out=bs)
        else:  # (1 + m) - m P, less P_head (1 - qlast) for Dp
            m = np.subtract(index[k0:k1, None], index[lo:w])
            bs = m * Ps[1:]
            np.add(m, 1.0, out=m)
            np.subtract(m, bs, out=bs)
            if procedure == "Dp":  # the head product is the row before's P
                head = np.multiply(Ps[:-1], 1.0 - qk, out=Ps[:-1])
                np.subtract(bs, head, out=bs)
        _take_rows(bs, k0, stops, cost, split)
        carry, carry_lo = sums[..., b, :].copy(), lo  # a copy, so the slab is freed
    return cost, split


def dp_totals(q: np.ndarray, procedure: str, s_rule: str = "optimal") -> np.ndarray:
    """``dp_table(pv, procedure, s_rule).total`` for each row of the (m, N)
    array ``q``, bit for bit: row r holds one population's q values sorted
    descending (its risks ascending)."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.size == 0:
        raise ValueError("q must be a nonempty (replicates, items) array")
    lo = [stop + 1 for stop in _budgeted_stops(q, procedure, s_rule)]
    m, n = q.shape
    rows = max(1, CHUNK_DRAWS // (16 * n))
    totals = np.empty(m)
    for a in range(0, m, rows):
        totals[a : a + rows] = _chunk_totals(q[a : a + rows].T, procedure, s_rule, lo)
    return totals


def _chunk_totals(qT: np.ndarray, procedure: str, s_rule: str, lo: list[int]) -> np.ndarray:
    """The tables of one chunk of replicates, column r of ``qT`` holding
    replicate r's q values. cand[i] is row k's candidate whose last block
    starts at i, for i = a..k-1, a = min(lo[k], k-1): the trailing
    singleton is cand[k-1], where the row's scan starts.
    """
    n, m = qT.shape
    cost = np.zeros((n + 1, m))
    cand = np.empty((n, m))
    size = np.arange(float(n), 0.0, -1.0)[:, None]  # size[n-k+i] = k - i items
    one_plus = 1.0 + size
    two_less_one = 2.0 * size - 1.0
    s_optimal = s_rule == "optimal"
    # per start i, for the block i..k-1: P = P(i,k-1); for S also
    # C = C(i,k-1), T = q[i] + ... + q[k-1], phi = phi(i,k-1) and M = min
    # over i <= a <= k-1 of phi(i,a), or phi itself under smallest-last
    P = np.zeros((n, m))
    if procedure == "S":
        C, T, phi = (np.zeros((n, m)) for _ in range(3))
        M = np.zeros((n, m)) if s_optimal else phi
    for k in range(1, n + 1):
        a = min(lo[k], k - 1)  # the singleton alone, when every longer block is cut
        c = cand[a:k]
        np.add(cost[k - 1], 1.0, out=c[-1])
        x = c[:-1]  # start i = a .. k-2, m = k-a .. 2 items
        sizes = slice(n - k + a, n - 1)
        qlast = qT[k - 1]
        Pk = P[a : k - 1]
        if procedure == "S":  # never cut: a = 0
            Ck, Tk, Mk, ph = C[: k - 1], T[: k - 1], M[: k - 1], phi[: k - 1]
            np.add(Ck, Pk, out=Ck)
        elif procedure == "Dp":  # the head product, before P takes qlast
            head = np.multiply(Pk, 1.0 - qlast)
        np.multiply(Pk, qlast, out=Pk)
        if procedure == "S":
            np.add(Tk, qlast, out=Tk)
            np.multiply(1.0 - qlast, Ck, out=ph)
            np.add(qlast, ph, out=ph)
            np.add(ph, Pk, out=ph)
            if s_optimal:
                np.minimum(Mk, ph, out=Mk)
            np.subtract(two_less_one[sizes], Tk, out=x)
            np.subtract(x, Pk, out=x)
            np.subtract(x, Ck, out=x)
            np.add(x, Mk, out=x)
            # the block k-1..k-1 opens: C = 0, phi(k-1,k-1) = 2 q[k-1]
            T[k - 1] = qlast
            np.multiply(qlast, 2.0, out=M[k - 1])
        else:  # (1 + m) - m P, less the head term for Dp
            np.multiply(size[sizes], Pk, out=x)
            np.subtract(one_plus[sizes], x, out=x)
            if procedure == "Dp":
                np.subtract(x, head, out=x)
        P[k - 1] = qlast
        np.add(x, cost[a : k - 1], out=x)
        best = np.minimum.reduce(c, axis=0)
        near = c <= best * NEAR_TIE
        if np.count_nonzero(near) > m:  # a replicate's scan may end elsewhere
            for r in np.flatnonzero(np.count_nonzero(near, axis=0) > 1).tolist():
                best[r] = _scan(c[::-1, r].tolist())
        cost[k] = best
    return cost[n]


def _scan(cands: list[float]) -> float:
    """The rule's choice among one row's candidates in scan order: the
    first is the trailing singleton, and a later one wins only if it is
    cheaper by more than REL_TOL relative."""
    best = cands[0]
    bound = best - REL_TOL * best
    for cand in cands[1:]:
        if cand < bound:
            best, bound = cand, cand - REL_TOL * cand
    return best
