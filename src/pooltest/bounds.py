"""Information-theoretic reference points for testing plans.

The 2^N defect patterns of a population form a product distribution. Its
Shannon entropy H (in bits) lower-bounds the expected number of binary
tests of any classification strategy, and the expected codeword length L
of an optimal prefix code over the patterns is a sharper lower bound with
H <= L <= H + 1. L is exact but needs the full outcome distribution, so
it is guarded at N <= 20.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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

    Uses the classic two-least-merge construction; L equals the sum of all
    merge weights. The weights merged depend only on the multiset in the
    heap, not on how ties are broken, so plain floats are heaped.
    """
    heap = outcome_distribution(pv).tolist()
    heapq.heapify(heap)
    length = 0.0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heap[0]
        heapq.heapreplace(heap, merged)
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
        return {
            "n": self.n,
            "entropy_bits": self.entropy_bits,
            "huffman_bits": self.huffman_bits,
            "achieved": self.achieved,
            "coding_ok": self.coding_ok,
            "achieved_ok": self.achieved_ok,
        }


BOUND_SLACK = 1e-9


def check_bounds(pv: ProbabilityVector, achieved_cost: float) -> BoundReport:
    """Compare an achieved expected-test count against H and (when feasible) L."""
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
