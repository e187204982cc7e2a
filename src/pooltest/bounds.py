"""Information-theoretic reference points for testing plans.

The 2^N defect patterns of a population form a product distribution. Its
Shannon entropy H (in bits) lower-bounds the expected number of binary
tests of any classification strategy, and the expected codeword length L
of an optimal prefix code over the patterns is a sharper lower bound with
H <= L <= H + 1. L is exact but needs the full outcome distribution, so
it is guarded at N <= 20. It is built by van Leeuwen's (1976) two-queue
Huffman merge after one sort of the 2^N pattern probabilities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import InstanceTooLargeError, ProbabilityVector

MAX_OUTCOME_N = 20


def ungar_threshold() -> float:
    """Defect probability (3 - sqrt(5)) / 2 above which pooling cannot beat
    one-by-one individual testing."""
    return (3.0 - math.sqrt(5.0)) / 2.0


def all_above_ungar(pv: ProbabilityVector) -> bool:
    """True iff every item's defect probability is at or above the threshold."""
    return min(pv.probs) >= ungar_threshold()


def entropy_bits(pv: ProbabilityVector) -> float:
    """Shannon entropy of the defect-pattern distribution, in bits.

    By independence this is the sum of the per-item binary entropies
    p log2(1/p) + q log2(1/q); no pattern enumeration is needed.
    """
    total = 0.0
    for p in pv.probs:
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
    dist = np.ones(1)
    for p in pv.probs:
        dist = np.concatenate([dist * (1.0 - p), dist * p])
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
    """
    leaves = np.sort(outcome_distribution(pv)).tolist()
    merges = len(leaves) - 1
    leaves.append(math.inf)
    # merged weights in the order made; unwritten slots read as +inf, and
    # taken ones are cleared so at N = 20 they do not all stay alive
    sums = [math.inf] * (merges + 1)
    i = j = 0
    length = 0.0
    for w in range(merges):
        x, y = leaves[i], sums[j]
        if y < x:
            a = y
            sums[j] = None
            j += 1
        else:
            a = x
            i += 1
        x, y = leaves[i], sums[j]
        if y < x:
            merged = a + y
            sums[j] = None
            j += 1
        else:
            merged = a + x
            i += 1
        sums[w] = merged
        length += merged
    return length


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
    h = entropy_bits(pv)
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
