"""Execution-level validation: count the tests the procedures take on
defect vectors, and estimate expected test counts.

``count_tests`` is the protocol model. It runs one procedure on one block
for a matrix of defect vectors at once: row r is a defect vector in the
block's test order (entry t belongs to the item at position t), and a pool
is positive iff it contains a defective item. Tests are error-free, so
every run classifies all items correctly; the output is how many tests it
took. The primary validator is ``exact_expected_tests``: it counts all 2^k
defect vectors of a group and weights each count by its probability, which
must reproduce the closed forms without any sampling noise. Monte Carlo
(``estimate_cost``) is for whole plans and larger groups; it draws a whole
run from the child stream (0,) of its seed and counts a chunk of
replicates at once. Both hold at most ``CHUNK_DRAWS`` defect-vector
entries at a time, so their memory grows neither with the replicate count
nor with 2^k.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import outcome_distribution
from .cost import evaluate_plan
from .model import (
    PROCEDURES,
    Group,
    OrderedPartition,
    ProbabilityVector,
    SetPartition,
    SimulationSummary,
)


def stream_generator(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Generator of the child stream ``key`` of base ``seed``, built directly
    from its address, so no sibling streams are spawned."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def check_run(m: int, seed: int) -> None:
    """Refuse a run of ``m`` replicates below two, then a base ``seed``
    outside 64 unsigned bits; Monte Carlo and the study both check here."""
    if m < 2:
        raise ValueError("at least two replicates are required")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 unsigned bits")


# Defect-vector entries held at once, as whole rows (Monte Carlo replicates
# or exact-oracle outcomes), but at least one row. ``estimate_cost`` holds as
# many uniforms (4 MiB), so its memory does not grow with m: uncapped chunks
# of whole replicates raised its peak RSS (BENCH_12.json).
CHUNK_DRAWS = 1 << 19


def count_tests(defects: np.ndarray, procedure: str) -> np.ndarray:
    """Tests each row's run of ``procedure`` takes on one block.

    ``defects`` is a (rows, k) boolean matrix whose columns are in test
    order. D is 1 + k·any; Dp skips the last item's test when only it is
    positive; Sterrett is a k-step scan carrying, per row, whether a window
    starts at the current position (``fresh``) and whether the window is
    being tested one by one (``serial``).
    """
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    reps, k = defects.shape
    if k == 1:
        return np.ones(reps, dtype=np.int64)
    positive = defects.any(axis=1)
    if procedure == "D":
        return 1 + k * positive
    if procedure == "Dp":
        # only the last item positive: it is inferred, not tested
        return 1 + k * positive - (positive & ~defects[:, : k - 1].any(axis=1))
    # suffix[:, t]: some item at position t or later is defective
    suffix = np.logical_or.accumulate(defects[:, ::-1], axis=1)[:, ::-1]
    tests = np.zeros(reps, dtype=np.int64)
    fresh = np.ones(reps, dtype=bool)
    serial = np.zeros(reps, dtype=bool)
    for t in range(k - 1):
        tests += fresh  # pool test of positions t..k-1
        serial |= fresh & suffix[:, t]
        tests += serial  # individual test of position t
        fresh = serial & defects[:, t]
        serial &= ~defects[:, t]
    # a window of one is tested; a serial run reaching the last item infers it
    return tests + fresh


def exact_expected_tests(group: Group, pv: ProbabilityVector, procedure: str) -> float:
    """Probability-weighted test count over all 2^k defect vectors.

    Exhaustive-outcome oracle for the closed forms; no sampling involved.
    The weights are ``bounds.outcome_distribution`` of the group's members,
    which refuses groups above ``bounds.MAX_OUTCOME_N`` items. Outcome mask
    x is the defect vector whose bit t marks position t; the masks are
    counted ``CHUNK_DRAWS // k`` (at least one) at a time by ``count_tests``
    and summed in mask order.
    """
    group.check_against(pv)
    weights = outcome_distribution(ProbabilityVector(tuple(pv.probs[i] for i in group.items)))
    positions = np.arange(group.size)
    total = 0.0
    rows = max(1, CHUNK_DRAWS // group.size)
    for lo in range(0, len(weights), rows):
        hi = min(len(weights), lo + rows)
        defects = (np.arange(lo, hi)[:, None] >> positions & 1).astype(bool)
        for w, c in zip(weights[lo:hi].tolist(), count_tests(defects, procedure).tolist()):
            total += w * c
    return total


def estimate_cost(
    plan: OrderedPartition | SetPartition,
    pv: ProbabilityVector,
    procedure: str,
    m: int,
    seed: int,
    arrange: str = "optimal",
) -> SimulationSummary:
    """Monte Carlo estimate of a plan's expected total tests.

    Each block runs in the test order that ``evaluate_plan`` reports for
    ``arrange`` ("optimal" or "given"). Replicate r takes uniforms
    r·n … (r+1)·n - 1 of the child stream (0,) of ``seed``,
    item i being defective when its uniform is below p_i, and runs the
    protocol on every block. The standard error is the sample standard
    deviation over replicates divided by sqrt(m). ``expected_total`` is the
    report's exact expectation of those block orders.

    Row-major chunks of whole replicates equal one big draw, so no replicate
    depends on m or on the chunk size; ``count_tests`` counts a chunk at once.
    Only the exact integer sums of the test counts and of their squares are
    kept, so memory does not grow with m, and the mean equals the float mean
    of all m counts bit for bit. Time is linear in m and in the items; the
    README gives the measured rates.
    """
    check_run(m, seed)
    report = evaluate_plan(plan, pv, procedure, arrange=arrange)  # checks the procedure
    p = np.asarray(pv.probs)
    block_items = [list(b.order) for b in report.per_block]
    draw = stream_generator(seed, (0,)).random
    rows = max(1, min(CHUNK_DRAWS // pv.n, m))
    uniforms = np.empty((rows, pv.n))
    defects = np.empty((rows, pv.n), dtype=bool)
    s = sq = 0  # Python ints: exact for any m
    for lo in range(0, m, rows):
        chunk = np.less(draw(out=uniforms[: m - lo]), p, out=defects[: m - lo])
        tests = sum(count_tests(chunk[:, items], procedure) for items in block_items)
        s += int(tests.sum())
        sq += int((tests * tests).sum())
    return SimulationSummary(
        procedure=procedure,
        plan=plan,
        replicates=m,
        mean_tests=s / m,
        std_error=math.sqrt((m * sq - s * s) / (m * (m - 1))) / math.sqrt(m),
        seed=seed,
        expected_total=report.total,
    )


def sample_beta_one(n: int, beta: float, rng: np.random.Generator) -> list[float]:
    """n Beta(1, beta) draws strictly inside (0, 1) by inverse transform.

    One ``rng.random`` call, each uniform u mapped to the Beta(1, beta)
    quantile 1 - (1-u)^(1/beta) in Python floats (``np.power`` can differ
    in the last bits). Values landing exactly on 0 or 1 are replaced by
    further draws, so one call of n draws equals n calls of one draw on the
    same generator.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    power = 1.0 / beta
    draws: list[float] = []
    while len(draws) < n:
        for u in rng.random(n - len(draws)).tolist():
            x = 1.0 - (1.0 - u) ** power
            if 0.0 < x < 1.0:
                draws.append(x)
    return draws
