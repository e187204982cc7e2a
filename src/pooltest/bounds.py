"""Information-theoretic reference points for testing plans.

The 2^N defect patterns of a population form a product distribution. Its
Shannon entropy H (in bits) lower-bounds the expected number of binary
tests of any classification strategy, and the expected codeword length L
of an optimal prefix code over the patterns is a sharper lower bound with
H <= L <= H + 1. L is exact but needs the full outcome distribution, so
it is guarded at N <= 20. It is built by van Leeuwen's (1976) two-queue
Huffman merge after one sort of the 2^N pattern probabilities.

The merge runs on numpy arrays in rounds of many merges each, far fewer
rounds than the 2^N - 1 merges on random risks, and L is bit-identical to
a binary-heap Huffman (see ``huffman_length``). The leaves, the merged
weights and one round's scratch bound its memory; the README gives its
time and memory at N = 20. Inputs where every pattern outweighs all
lighter ones together merge one pair per round; the float range bounds
such a chain at about 11 items (times in ``BENCH_19.json``).

``UNGAR_THRESHOLD``, (3 - sqrt(5)) / 2, is the defect probability above
which pooling cannot beat testing every item alone (``all_above_ungar``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import InstanceTooLargeError, ProbabilityVector

MAX_OUTCOME_N = 20


UNGAR_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0


def all_above_ungar(pv: ProbabilityVector) -> bool:
    """True iff every item's defect probability is at or above the threshold."""
    return min(pv.probs) >= UNGAR_THRESHOLD


def entropy_bits(probs) -> float:
    """Shannon entropy of the defect-pattern distribution, in bits, for the
    risks ``probs``: floats strictly inside (0, 1), such as ``pv.probs``,
    which are not checked again; validate raw input with
    ``validate_probability_vector`` first.

    By independence this is the sum of the per-item binary entropies
    p log2(1/p) + q log2(1/q), in the order of ``probs``; no pattern
    enumeration is needed.
    """
    total = 0.0
    for p in probs:
        q = 1.0 - p
        total += -p * math.log2(p) - q * math.log2(q)
    return total


def outcome_distribution(pv: ProbabilityVector) -> np.ndarray:
    """Probabilities of all 2^N defect patterns.

    Entry at index x is the probability of the pattern whose bit i (of x)
    says whether item i is defective. All entries are strictly positive and
    sum to 1 up to rounding.
    """
    if pv.n > MAX_OUTCOME_N:
        raise InstanceTooLargeError(pv.n, MAX_OUTCOME_N, "outcome enumeration")
    # one buffer filled in place: each item doubles the filled prefix, the
    # products dist * p on the new half and dist * (1 - p) on the old one
    dist = np.empty(1 << pv.n)
    dist[0] = 1.0
    h = 1
    for p in pv.probs:
        np.multiply(dist[:h], p, out=dist[h : 2 * h])
        dist[:h] *= 1.0 - p
        h *= 2
    return dist


def huffman_length(pv: ProbabilityVector) -> float:
    """Expected codeword length L of an optimal prefix code over the 2^N
    defect patterns.

    Huffman's two-least-merge construction; L equals the sum of all merge
    weights. It runs as van Leeuwen's (1976) two-queue merge: the pattern
    probabilities are sorted once, and merged weights, which never
    decrease, queue up behind them, so each step takes the two smallest
    queue heads. The weights merged depend only on the multiset of
    remaining weights, not on how ties are broken, so every merge is the
    same float sum as a heap would give, added to L in the same order.

    The merges run in rounds. Every queued weight no larger than the
    newest merged one comes before every weight not yet made, so a round
    takes all of them in sorted order and forms their pairs at once; when
    fewer than two are safe, the next pair takes the next leaf. Each
    merged weight is then the same IEEE sum of the same two weights as one
    merge at a time gives, and L sums them left to right in the order made.
    """
    leaves = outcome_distribution(pv)
    leaves.sort()
    sums = np.empty(len(leaves) - 1)
    sums[0] = leaves[0] + leaves[1]
    i, j, k = 2, 0, 1  # next leaf, next unmerged sum, sums made
    while k < len(sums):
        # leaves[i:i2] and sums[j:k] are the safe weights, padded with the
        # next leaves to two when fewer are safe
        i2 = max(int(np.searchsorted(leaves, sums[k - 1], side="right")), i + 2 - (k - j))
        seg = leaves[i:i2]
        if j < k:
            seg = np.concatenate((seg, sums[j:k]))
            seg.sort()
        p = len(seg) // 2
        np.add(seg[0 : 2 * p : 2], seg[1 : 2 * p : 2], out=sums[k : k + p])
        # an odd one out is the largest safe weight: sums[k-1] if it is safe
        if len(seg) % 2 and j < k:
            i, j = i2, k - 1
        else:
            i, j = i2 - len(seg) % 2, k
        k += p
    return float(np.cumsum(sums)[-1])


@dataclass(frozen=True)
class BoundReport:
    """An achieved plan cost against the entropy and prefix-code bounds.

    ``huffman_bits`` is None when N exceeds the outcome-enumeration guard;
    in that case ``achieved_ok`` falls back to the entropy bound. Flags use
    a 1e-9 slack.
    """

    n: int
    entropy_bits: float
    huffman_bits: float | None
    achieved: float
    coding_ok: bool | None  # H <= L <= H + 1
    achieved_ok: bool  # achieved >= L (or >= H when L is absent)

    def to_json(self) -> dict:
        return asdict(self)


BOUND_SLACK = 1e-9


def check_bounds(pv: ProbabilityVector, achieved_cost: float) -> BoundReport:
    """Compare an achieved expected-test count against H and (when feasible) L.

    A non-finite ``achieved_cost`` raises ``ValueError``.
    """
    if not math.isfinite(achieved_cost):
        raise ValueError(f"achieved cost must be a finite number, got {achieved_cost!r}")
    h = entropy_bits(pv.probs)
    if pv.n <= MAX_OUTCOME_N:
        length = huffman_length(pv)
        coding_ok = (h - BOUND_SLACK <= length) and (length <= h + 1.0 + BOUND_SLACK)
        achieved_ok = achieved_cost >= length - BOUND_SLACK
    else:
        length = None
        coding_ok = None
        achieved_ok = achieved_cost >= h - BOUND_SLACK
    return BoundReport(
        n=pv.n,
        entropy_bits=h,
        huffman_bits=length,
        achieved=achieved_cost,
        coding_ok=coding_ok,
        achieved_ok=achieved_ok,
    )
