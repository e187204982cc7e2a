"""The D, Dp and S tables of ``optimize.dp_table``: one walk over row
chunks of numpy slabs.

Rows run in chunks of CHUNK. For each chunk ``walk`` builds a (rows,
starts) slab of its candidates less F(i), every cell from the
one-cell-at-a-time loop's float operations on the same operands in the
same order, and hands it to the one selection step, ``_take_rows``. So
each table equals its scalar loop bit for bit, and tests hold it to those
loops (``tests/reference.py``).

Running sums. Per block start i the walk keeps the product
P = qs[i] ... qs[k-1] of the block i..k-1, multiplied forward as the block
grows. For S it also keeps the other sums that
``cost._optimal_sterrett_ascending`` walks: C = C(i,k-1),
T = qs[i] + ... + qs[k-1] and, under the optimal rule, M = the minimum
over i <= a <= k-1 of phi(i,a). Smallest-last takes phi(i,k-1) alone in
place of M (see the ``optimize`` module docstring). A chunk advances each
sum of every start through all its rows with one ``multiply``, ``add`` or
``minimum`` accumulate down the slab; an accumulate is sequential, so
each cell is the scalar walk's operation in its order. Slab row 0 holds
the sums after the row before the chunk: the previous chunk's last row.

Candidates. With m = k - i items, a D block costs (1 + m) - m P. A Dp
block also subtracts P_head (1 - qs[k-1]), and its head product
P_head = qs[i] ... qs[k-2] is the slab row before's P. An S block costs
(2m - 1) - T - P - C + M.

The cut. The D and Dp slabs hold P alone, for the starts from
lo = stops[k0] + 1, the first chunk row's ``optimize._row_stops`` stop.
The stops never fall as k grows, so the slab holds every start a later
row visits, and the carried row drops the starts cut since the last chunk
from its left. A row cut whole (stops[k0] = k0 - 1) opens no start below
k0. The cut starts a slab still holds for a later row need no mask: each
costs more than F(k-1) + 1 + 1/2 (the ``optimize`` module docstring), so
it can neither win nor lie within NEAR_TIE of a row's minimum. S is never
cut.

Selection. A start i < k0-1 is settled: F(i) is final before the chunk
begins, and no row of the chunk ends a block there, so its candidates are
one add and a row-wise argmin. The newer starts, from k0-1 on, a triangle
of at most CHUNK^2 / 2 cells, are scanned in Python first, in the loop's
order; a table of one chunk has no settled start. Ties stay exact: the
scan ends on the settled
minimum unless that minimum is not below its bound, when the settled
starts cannot win, or another settled candidate lies within
``model.NEAR_TIE`` of it, when the row rescans them in Python (the
argument at ``batch.dp_totals``). On exactly tied risks most rows
rescan, and a table costs about half its scalar loop.

Every chunk's slabs are new contiguous arrays, as wide as the starts the
chunk touches: numpy runs an operation on a contiguous slab as one flat
loop, 2-4 times faster at these sizes than on the same slab cut from an
array N wide, which made S tables at N = 150 about 13 % slower. The
carried row is copied out of its slab, so the slab is freed before the
next is made: kept as a view, it held two slabs alive at once, and the
full D table at its budget (N = 5292) ran about 18 % slower.

A numpy form that paid about fifteen numpy calls per row was slower than
the scalar loops; a chunk pays about twenty to thirty per CHUNK rows. At
N = 150 a D or Dp table takes 0.5-1.2 ms against 0.4-2.4 ms for the scalar
loop, and an S table 0.8-1.2 ms against 2.4-3.9 ms; only the narrow rows
of risky populations (p ~ 0.3) are slower, by 0.04-0.25 ms. A table of
one chunk pays the calls once: at N = 8 and 14 a D or Dp table takes
35-75 us against 13-40 us, and an S table 55-80 us against 15-45 us for
its scalar loop, under 1 % of a ``verify`` benchmark op
(``BENCH_19.json``, ``BENCH_20.json``, ``BENCH_21.json``).

The tables have a module of their own for memory: compiled inside
``optimize.py``, the S slab code left 0.4 MiB more resident after
``import pooltest.cli`` when no bytecode cache is written (29.66 against
29.26 MiB, medians of seven processes, Python 3.11); compiled here, it
adds 0.03 MiB.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .model import NEAR_TIE, REL_TOL

# Rows per chunk. Any chunk from 16 to 40 rows gave S optimal 1.0-1.1 ms
# at N = 150 and 21-22 ms at N = 1000, against 3.9 ms and 0.19 s for the
# scalar loop; at 20 to 32 rows the six D and Dp tables of the benchmark's
# design decks (N = 150) took the same time within 4 % (Python 3.11,
# numpy 2.4, 2 vCPUs).
CHUNK = 24


@functools.cache
def _upper(B: int) -> np.ndarray:
    """The (B + 1, B) mask of c >= r. Built from Python lists: a first
    comparison ufunc in a process faults in about 0.3 MiB of numpy's code."""
    return np.array([[c >= r for c in range(B)] for r in range(B + 1)])


def _take_rows(
    bs: np.ndarray, F: np.ndarray, k0: int, stops: list[int], cost: list[float], split: list[int]
) -> None:
    """Choose rows k0..k0+b-1 of a table, b = len(bs), into ``cost``,
    ``split`` and ``F``, from bs[r, i - lo]: start i's candidate in row
    k0 + r, less F(i), for the starts lo..k0+b-2, lo = stops[k0] + 1.
    Row k scans its newer starts down to stops[k] + 1 only."""
    b = len(bs)
    lo = stops[k0] + 1
    first = max(k0 - 1, lo)  # the newer starts: first..k0+b-2
    s = first - lo  # the settled starts lo..first-1, one column each
    cs = bs[:, :s] + F[lo:first]  # their candidates
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
    F[k0 : k0 + b] = cost[k0 : k0 + b]


def walk(
    qs: tuple[float, ...], procedure: str, s_rule: str, stops: list[int]
) -> tuple[list[float], list[int]]:
    """Cost-to-go and split of the D, Dp or S table on the descending
    ``qs``, whose row k tries the starts down to ``stops[k] + 1``.

    Slab row 0 holds each start's sums after the row before the chunk,
    and slab row r those after the chunk's r-th row. Start i opens at row
    i+1; until then it holds P = 1, C = T = 0 and M = +inf, and its
    factors and addends read 1, 0 and +inf, so it opens on the scalar
    loop's values exactly (C = 0 and phi(i,i) = 2 qs[i]). Under
    smallest-last M is phi itself. D and Dp keep P alone.
    """
    n = len(qs)
    B = min(CHUNK, n)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    q = np.array(qs)
    sterrett = procedure == "S"
    optimal = s_rule == "optimal"
    opening = np.array([[1.0], [0.0], [0.0], [math.inf]])  # P, C, T, M of a start not yet open
    carry = np.empty((4, 0) if sterrett else 0)  # the sums of starts carry_lo..k0-2
    carry_lo = 0
    upper = _upper(B)
    index = np.arange(n + 1.0)  # k and i, as floats
    twice_start = np.arange(0.0, 2.0 * n, 2.0)
    F = np.zeros(n + 1)  # cost, filled chunk by chunk
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
        _take_rows(bs, F, k0, stops, cost, split)
        carry, carry_lo = sums[..., b, :].copy(), lo  # a copy, so the slab is freed
    return cost, split
