"""The ordered-partition DP of ``optimize.dp_table``, run on many populations
at once for the simulation study.

``dp_totals`` takes m populations of one size, each sorted, and returns
their m optimal totals, equal bit for bit to ``dp_table(...).total``. Row k
of every table is one set of numpy operations over (block start,
replicate): it costs each candidate block with ``dp_table``'s float
operations in the same order, so the candidates are ``dp_table``'s own.
The running sums, one per block start, are updated elementwise as
``tables.walk`` updates them: the block product P for all three
procedures (the Dp head term is read before P takes the row's q), and for
S also C, T and the running minimum of phi under the optimal rule, the
newest phi itself under smallest-last.

A numpy table for one population, vectorized over block starts alone, is
slower than ``dp_table`` at the sizes the library meets: it pays about
fifteen numpy calls per row for one table. Here each call serves every
replicate, so from about five replicates up the batch is the faster of the
two, and ``dp_table`` stays the one DP for everything that needs a plan.
"""

from __future__ import annotations

import numpy as np

from .model import NEAR_TIE, PROCEDURES, REL_TOL, STERRETT_RULES, NotSortedError
from .optimize import _budgeted_stops
from .simulate import CHUNK_DRAWS


def dp_totals(q: np.ndarray, procedure: str, s_rule: str = "optimal") -> np.ndarray:
    """``dp_table(pv, procedure, s_rule).total`` for each row of ``q``, bit
    for bit.

    Row r of the (m, N) array ``q`` holds the good-probabilities of one
    population sorted descending (its risks ascending). Each row of the
    tables takes its minimum candidate per replicate. ``dp_table``'s scan
    ends within 1/(1 - REL_TOL) of that minimum, because a candidate it
    passes over is not below its bound; so where no other candidate lies
    within NEAR_TIE of the minimum the scan ends on it, and elsewhere the
    scan is rerun in Python on that replicate's candidates.

    The rows end at the ``optimize._row_stops`` of the columnwise largest
    q: a descending vector whose block products bound every replicate's
    from above, so a start it cuts is cut for each replicate too (the proof
    is in the ``optimize`` docstring). Its cell count, the cells every
    replicate's table visits, is checked against DP_CELL_BUDGET before any
    DP work.
    Replicates run CHUNK_DRAWS // (16 N) at a time, at least one, so a
    chunk's scratch, at most eight (N, replicates) float arrays (S's five
    running sums, q, cost-to-go and candidates), holds CHUNK_DRAWS / 2
    floats, 2 MiB, at any m: one core's L2 cache on a 2-vCPU Xeon host,
    where 6.4 MiB chunks ran 10-15 % slower (N = 100, Python 3.11).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.size == 0:
        raise ValueError("q must be a nonempty (replicates, items) array")
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    if s_rule not in STERRETT_RULES:
        raise ValueError(f"unknown Sterrett block rule {s_rule!r}")
    if np.count_nonzero(q[:, 1:] > q[:, :-1]):
        raise NotSortedError("population must be sorted ascending by p")
    m, n = q.shape
    lo = [stop + 1 for stop in _budgeted_stops(q.max(axis=0).tolist(), procedure)]
    rows = max(1, CHUNK_DRAWS // (16 * n))
    totals = np.empty(m)
    for a in range(0, m, rows):
        totals[a : a + rows] = _chunk_totals(q[a : a + rows].T, procedure, s_rule, lo)
    return totals


def _chunk_totals(qT: np.ndarray, procedure: str, s_rule: str, lo: list[int]) -> np.ndarray:
    """The tables of one chunk of replicates, column r of ``qT`` holding
    replicate r's q values.

    cand[j] is the candidate whose last block holds the j+1 items
    k-1-j..k-1 of row k, so the row's scan order is j = 0 (the trailing
    singleton), 1, 2, ...; row k tries j < max(1, k - lo[k]).
    """
    n, m = qT.shape
    cost = np.zeros((n + 1, m))
    cand = np.empty((n, m))
    size = np.arange(1.0, n + 1.0)[:, None]  # size[j] = j + 1 items
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
        w = max(1, k - lo[k])  # the singleton, when every longer block is cut
        c = cand[:w]
        np.add(cost[k - 1], 1.0, out=c[0])
        body = c[1:]
        x = body[::-1]  # start i = k-w .. k-2 ascending, m = w .. 2 items
        qlast = qT[k - 1]
        Pk = P[k - w : k - 1]
        if procedure == "S":  # never cut: k - w = 0
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
            np.subtract(two_less_one[w - 1 : 0 : -1], Tk, out=x)
            np.subtract(x, Pk, out=x)
            np.subtract(x, Ck, out=x)
            np.add(x, Mk, out=x)
            # the block k-1..k-1 opens: C = 0, phi(k-1,k-1) = 2 q[k-1]
            T[k - 1] = qlast
            np.multiply(qlast, 2.0, out=M[k - 1])
        else:  # (1 + m) - m P, less the head term for Dp
            np.multiply(size[w - 1 : 0 : -1], Pk, out=x)
            np.subtract(one_plus[w - 1 : 0 : -1], x, out=x)
            if procedure == "Dp":
                np.subtract(x, head, out=x)
        P[k - 1] = qlast
        np.add(body, cost[k - w : k - 1][::-1], out=body)
        best = np.minimum.reduce(c, axis=0)
        near = c <= best * NEAR_TIE
        if np.count_nonzero(near) > m:  # a replicate's scan may end elsewhere
            for r in np.flatnonzero(np.count_nonzero(near, axis=0) > 1).tolist():
                best[r] = _scan(c[:, r].tolist())
        cost[k] = best
    return cost[n]


def _scan(cands: list[float]) -> float:
    """``dp_table``'s choice among one row's candidates in scan order: the
    first is the trailing singleton, and a later one wins only if it is
    cheaper by more than REL_TOL relative."""
    best = cands[0]
    bound = best - REL_TOL * best
    for cand in cands[1:]:
        if cand < bound:
            best, bound = cand, cand - REL_TOL * cand
    return best
