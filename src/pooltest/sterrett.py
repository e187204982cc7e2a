"""The S table of ``optimize.dp_table``, run in row chunks of numpy slabs.

The table keeps, per block start i, the running sums of the block i..k-1
that ``cost._optimal_sterrett_ascending`` walks: P = P(i,k-1),
C = C(i,k-1), T = qs[i] + ... + qs[k-1] and, under the optimal rule,
M = the minimum over i <= a <= k-1 of phi(i,a). Smallest-last takes
phi(i,k-1) alone in place of M (see the ``optimize`` module docstring).

Rows run in chunks of STERRETT_CHUNK. A chunk advances P, C, T and M of
every start through all its rows with one ``multiply``, ``add`` or
``minimum`` accumulate per sum down a (rows, starts) slab; an accumulate
is sequential, so each cell is the one-cell-at-a-time loop's float
operation on the same operands in the same order. A start i whose
cost[i] is final before the chunk begins is settled: its candidates are
one add and a row-wise argmin. The newer starts, a triangle of at most
STERRETT_CHUNK^2 / 2 cells, are scanned in Python first, in the loop's
order. Ties stay exact: the scan ends on the settled minimum unless that
minimum is not below its bound, when the settled starts cannot win, or
another settled candidate lies within ``model.NEAR_TIE`` of it, when the
row rescans them in Python (the argument at ``batch.dp_totals``). So the
table equals that loop's bit for bit, and tests hold it to the loop.

A numpy form that paid about fifteen numpy calls per row was slower than
the scalar loop; a chunk pays about thirty per STERRETT_CHUNK rows. A
table of one chunk pays them once: at N = 8 and 14 it takes 50-90 us
against 15-45 us for the scalar loop, under 1 % of a ``verify``
benchmark op, which runs one of each (``BENCH_19.json``).

The table has a module of its own for memory: compiled inside
``optimize.py``, its slab code left 0.4 MiB more resident after
``import pooltest.cli`` when no bytecode cache is written (29.66 against
29.26 MiB, medians of seven processes, Python 3.11); compiled here, it
adds 0.03 MiB.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import NEAR_TIE, REL_TOL

# Rows per chunk. Any chunk from 16 to 40 rows gave S optimal 1.0-1.1 ms
# at N = 150 and 21-22 ms at N = 1000, against 3.9 ms and 0.19 s for the
# scalar loop (Python 3.11, numpy 2.4, 2 vCPUs).
STERRETT_CHUNK = 24


@functools.cache
def _fresh_masks(B: int) -> tuple[np.ndarray, np.ndarray]:
    """Chunk rows r = 1..B against the chunk's new starts k0-1+c: start c
    is not yet open at row r when c >= r, and not yet extended (its C
    unchanged) when c >= r-1. Built from Python lists: a first comparison
    ufunc in a process faults in about 0.3 MiB of numpy's code."""
    unopened = np.array([[c >= r for c in range(B)] for r in range(1, B + 1)])
    unextended = np.array([[c >= r - 1 for c in range(B)] for r in range(1, B + 1)])
    return unopened, unextended


def sterrett_table(qs: tuple[float, ...], s_rule: str) -> tuple[list[float], list[int]]:
    """Cost-to-go and split of the S table on the descending ``qs``.

    Slab row 0 holds each start's sums after the row before the chunk,
    and slab row r those after the chunk's r-th row. Start i opens at row
    i+1; until then it holds P = 1, C = T = 0 and M = +inf, and its
    factors and addends read 1, 0 and +inf, so it opens on the scalar
    loop's values exactly (C = 0 and phi(i,i) = 2 qs[i]). Under
    smallest-last M is phi itself.
    """
    n = len(qs)
    B = min(STERRETT_CHUNK, n)
    cost = [0.0] * (n + 1)
    split = [0] * (n + 1)
    q = np.array(qs)
    P, C, T = np.ones((B + 1, n)), np.zeros((B + 1, n)), np.zeros((B + 1, n))
    M = np.full((B + 1, n), math.inf)
    base = np.empty((B, n))
    unopened, unextended = _fresh_masks(B)
    twice_start = np.arange(0.0, 2.0 * n, 2.0)
    rows = np.arange(B)
    F = np.zeros(n + 1)  # cost, filled chunk by chunk
    optimal = s_rule == "optimal"
    for k0 in range(1, n + 1, B):
        k1 = min(k0 + B, n + 1)  # the chunk runs rows k0..k1-1
        b, w = k1 - k0, k1 - 1  # rows, and starts 0..k1-2 touched
        qk = q[k0 - 1 : k1 - 1, None]
        Ps, Cs, Ts, Ms = P[: b + 1, :w], C[: b + 1, :w], T[: b + 1, :w], M[: b + 1, :w]
        fresh, fresh_c = unopened[:b, :b], unextended[:b, :b]
        np.copyto(Ps[1:], qk)
        np.copyto(Ps[1:, k0 - 1 :], 1.0, where=fresh)
        np.multiply.accumulate(Ps, axis=0, out=Ps)
        np.copyto(Ts[1:], qk)
        np.copyto(Ts[1:, k0 - 1 :], 0.0, where=fresh)
        np.add.accumulate(Ts, axis=0, out=Ts)
        np.copyto(Cs[1:], Ps[:-1])
        np.copyto(Cs[1:, k0 - 1 :], 0.0, where=fresh_c)
        np.add.accumulate(Cs, axis=0, out=Cs)
        phi = Ms[1:]  # phi = qlast + (1 - qlast) C + P
        np.multiply(1.0 - qk, Cs[1:], out=phi)
        np.add(qk, phi, out=phi)
        np.add(phi, Ps[1:], out=phi)
        if optimal:
            np.copyto(Ms[1:, k0 - 1 :], math.inf, where=fresh)
            np.minimum.accumulate(Ms, axis=0, out=Ms)
        # base = (2m - 1) - T - P - C + M, m = k - i items
        bs = base[:b, :w]
        np.subtract(np.arange(2.0 * k0 - 1.0, 2.0 * k1 - 1.0, 2.0)[:, None], twice_start[:w], out=bs)
        np.subtract(bs, Ts[1:], out=bs)
        np.subtract(bs, Ps[1:], out=bs)
        np.subtract(bs, Cs[1:], out=bs)
        np.add(bs, Ms[1:], out=bs)
        cs = bs[:, :k0]  # the settled starts' candidates, in place
        np.add(cs, F[:k0], out=cs)
        cs[0, k0 - 1] = math.inf  # row k0's start k0-1 is its trailing singleton
        arg = cs.argmin(axis=1)
        low = cs[rows[:b], arg]
        cs[rows[:b], arg] = math.inf  # for the next smallest, a possible tie
        second = cs.min(axis=1)
        cs[rows[:b], arg] = low
        per_row = zip(low.tolist(), arg.tolist(), second.tolist(), bs[:, k0:].tolist())
        for r, (lo, i_lo, nxt, row) in enumerate(per_row):
            k = k0 + r
            best = cost[k - 1] + 1.0  # i = k-1: trailing singleton
            bound = best - REL_TOL * best
            best_i = k - 1
            for i in range(k - 2, k0 - 1, -1):  # the newer starts first
                x = row[i - k0] + cost[i]
                if x < bound:
                    best, bound, best_i = x, x - REL_TOL * x, i
            if lo < bound:
                if nxt > lo * NEAR_TIE:
                    best, best_i = lo, i_lo
                else:  # rescan the settled starts, k0-1 down to 0
                    for i, x in zip(range(k0 - 1, -1, -1), reversed(cs[r].tolist())):
                        if x < bound:
                            best, bound, best_i = x, x - REL_TOL * x, i
            cost[k] = best
            split[k] = best_i
        F[k0:k1] = cost[k0:k1]
        for slab in (P, C, T, M):
            slab[0, :w] = slab[b, :w]
    return cost, split
