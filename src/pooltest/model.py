"""Core domain types shared by every other module.

All types are immutable dataclasses built on tuples, so instances can be
shared freely across threads. Failure probabilities q_i are always derived
as 1 - p_i, never stored.

JSON forms (indices are 1-based on the wire, 0-based in memory). The
probability vector is read only; an optional "ids" list must match "p" in
length and is otherwise ignored. The plans are read and written; the
reports are written only:

    ProbabilityVector   {"p": [...], "ids": [...]?}
    OrderedPartition    {"ordered_sizes": [...]}
    SetPartition        {"blocks": [[...], [...]]}
    CostReport          {"procedure": ..., "per_block": [...], "total": ...}
    SimulationSummary   {"procedure": ..., "plan": ..., "replicates": ...,
                         "mean_tests": ..., "std_error": ..., "seed": ...,
                         "expected_total": ...}
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Sequence

PROCEDURES = ("D", "Dp", "S")  # Dorfman, modified Dorfman, Sterrett

# Within-block arrangements of Sterrett blocks: the true minimum, or the
# simple published rule (ascending head, smallest q last).
STERRETT_RULES = ("optimal", "smallest-last")

REL_TOL = 1e-12  # default relative tolerance for cost comparisons


class EmptyInputError(ValueError):
    """A probability list, group, or row set was empty."""


class OutOfRangeError(ValueError):
    """A probability fell outside the open interval (0, 1).

    ``index`` is the 1-based position of the offending entry.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"entry {index}: probability {value!r} is not strictly inside (0, 1)")


class InstanceTooLargeError(ValueError):
    """An exhaustive enumeration was requested beyond its size guard."""

    def __init__(self, n: int, limit: int, what: str = "instance"):
        self.n = n
        self.limit = limit
        super().__init__(f"{what} size {n} exceeds the enumeration guard {limit}")


class NotSortedError(ValueError):
    """An operation required sorted input and did not get it."""


class UnknownFormatError(ValueError):
    """An input could not be read as pooltest expects: an unreadable file,
    invalid JSON, a line that is not a decimal number, JSON without its
    "p" or plan key, or an unknown table format name."""


# Tuples of per-call data are built from lists, not generators. CPython
# allocates a tuple built from a generator at 10 slots and shrinks it; freed,
# it joins a per-size free list (up to 2000 tuples of each size up to 20)
# that only a full garbage collection empties. Such tuples would fill those
# lists, about 2 MiB over a few hundred `pooltest optimize` calls in one
# process, faster than exact-size allocations take them back out.
def _as_float_tuple(xs: Iterable[float]) -> tuple[float, ...]:
    return tuple([float(x) for x in xs])


def _as_int_tuple(xs: Iterable[Any], what: str) -> tuple[int, ...]:
    """Integer entries of a plan or group: integral numbers such as 2.0 or
    numpy integers pass, but booleans, fractions and non-numbers fail,
    naming the 1-based entry."""
    xs = tuple(xs)
    for j, x in enumerate(xs, 1):
        if isinstance(x, bool) or not isinstance(x, numbers.Real) or x % 1:
            raise ValueError(f"{what} entry {j}: {x!r} is not an integer")
    return tuple([int(x) for x in xs])


@dataclass(frozen=True)
class ProbabilityVector:
    """Defect probabilities p_1..p_N of a population of independent items.

    Every p_i must lie strictly inside (0, 1): boundary values make
    classification degenerate and the cost formulas do not cover them.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_float_tuple(self.probs))
        if len(self.probs) == 0:
            raise EmptyInputError("probability vector must contain at least one entry")
        for i, p in enumerate(self.probs):
            if not (0.0 < p < 1.0):
                raise OutOfRangeError(i + 1, p)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def q(self) -> tuple[float, ...]:
        """Per-item probabilities of being good, derived as 1 - p_i."""
        return tuple([1.0 - p for p in self.probs])

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "ProbabilityVector":
        if "p" not in d:
            raise UnknownFormatError('probability vector JSON must have a "p" key')
        pv = cls(probs=tuple(d["p"]))
        if "ids" in d and len(d["ids"]) != pv.n:
            raise ValueError(f"ids length {len(d['ids'])} does not match {pv.n} probabilities")
        return pv


def validate_probability_vector(raw: Sequence[float]) -> ProbabilityVector:
    """Build a ProbabilityVector, rejecting empty input and boundary values."""
    return ProbabilityVector(probs=tuple(raw))


def sort_ascending(pv: ProbabilityVector) -> tuple[ProbabilityVector, tuple[int, ...]]:
    """Sort a population ascending by p, stably on ties.

    Returns the sorted vector and the permutation ``perm`` such that sorted
    position j holds the item originally at index ``perm[j]`` (0-based).
    """
    perm = tuple(sorted(range(pv.n), key=lambda i: pv.probs[i]))
    return ProbabilityVector(probs=tuple([pv.probs[i] for i in perm])), perm


@dataclass(frozen=True)
class Group:
    """An ordered, duplicate-free selection of item indices to pool together.

    Position within ``items`` is the stage-two test order: the item at
    position 0 is tested first once the pool comes back positive.
    """

    items: tuple[int, ...]

    def __post_init__(self):
        items = _as_int_tuple(self.items, "group")
        object.__setattr__(self, "items", items)
        if len(items) == 0:
            raise EmptyInputError("group must contain at least one item")
        if len(set(items)) != len(items):
            raise ValueError(f"group items contain duplicates: {items}")
        if any(i < 0 for i in items):
            raise ValueError(f"group items must be nonnegative indices: {items}")

    @property
    def size(self) -> int:
        return len(self.items)

    def check_against(self, pv: ProbabilityVector) -> None:
        bad = [i for i in self.items if i >= pv.n]
        if bad:
            raise ValueError(f"group items {bad} out of range for population of size {pv.n}")

    def qs(self, pv: ProbabilityVector) -> tuple[float, ...]:
        """Good-probabilities of the group members, in test order."""
        self.check_against(pv)
        return tuple([1.0 - pv.probs[i] for i in self.items])


@dataclass(frozen=True)
class OrderedPartition:
    """Contiguous block sizes n_1..n_J over the population sorted ascending by p.

    Block j covers a run of the sorted order, so every probability in block j
    is <= every probability in block j+1.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _as_int_tuple(self.sizes, "ordered_sizes")
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) == 0:
            raise EmptyInputError("ordered partition must have at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all block sizes must be >= 1: {sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def to_json(self) -> dict[str, Any]:
        return {"ordered_sizes": list(self.sizes)}

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "OrderedPartition":
        return cls(sizes=d["ordered_sizes"])


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty index blocks; together they must cover {0..N-1}."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(_as_int_tuple(b, f"block {j}") for j, b in enumerate(self.blocks, 1))
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) == 0:
            raise EmptyInputError("set partition must have at least one block")
        seen: set[int] = set()
        for b in blocks:
            if len(b) == 0:
                raise ValueError("set partition blocks must be nonempty")
            for i in b:
                if i in seen:
                    raise ValueError(f"item {i} appears in more than one block")
                seen.add(i)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def check_cover(self, n: int) -> None:
        items = {i for b in self.blocks for i in b}
        if items != set(range(n)):
            raise ValueError(
                f"set partition covers {sorted(items)} instead of all items 0..{n - 1}"
            )

    def to_json(self) -> dict[str, Any]:
        return {"blocks": [[i + 1 for i in b] for b in self.blocks]}

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "SetPartition":
        one_based = cls(blocks=d["blocks"])  # checked 1-based: errors quote the input
        return cls(blocks=tuple(tuple(i - 1 for i in b) for b in one_based.blocks))


def plan_from_json(d: dict[str, Any]) -> OrderedPartition | SetPartition:
    """Parse either plan form from its JSON dict."""
    if "ordered_sizes" in d:
        return OrderedPartition.from_json(d)
    if "blocks" in d:
        return SetPartition.from_json(d)
    raise UnknownFormatError('plan JSON must have an "ordered_sizes" or "blocks" key')


@dataclass(frozen=True)
class BlockCost:
    """Expected tests of one block: its members, arranged test order, and cost."""

    items: tuple[int, ...]
    order: tuple[int, ...]
    expected_tests: float

    def __post_init__(self):
        if sorted(self.order) != sorted(self.items):
            raise ValueError("arranged order must be a permutation of the block items")

    def to_json(self) -> dict[str, Any]:
        return {
            "items": [i + 1 for i in self.items],
            "order": [i + 1 for i in self.order],
            "expected_tests": self.expected_tests,
        }


@dataclass(frozen=True)
class CostReport:
    """Per-block and total expected test counts of a plan under one procedure."""

    procedure: str
    per_block: tuple[BlockCost, ...]
    total: float

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.procedure!r}, expected one of {PROCEDURES}")
        s = sum(b.expected_tests for b in self.per_block)
        if abs(s - self.total) > REL_TOL * max(1.0, abs(self.total)):
            raise ValueError(f"total {self.total} does not match block sum {s}")
        for b in self.per_block:
            k = len(b.items)
            upper = 2 * k - 1 if self.procedure == "S" else k + 1
            if not (1.0 - 1e-9 <= b.expected_tests <= upper + 1e-9):
                raise ValueError(
                    f"block of size {k} has expected tests {b.expected_tests}, "
                    f"outside [1, {upper}] for procedure {self.procedure}"
                )

    def to_json(self) -> dict[str, Any]:
        return {
            "procedure": self.procedure,
            "per_block": [b.to_json() for b in self.per_block],
            "total": self.total,
        }


@dataclass(frozen=True)
class SimulationSummary:
    """Monte Carlo estimate of a plan's expected total tests, with the exact
    expectation ``expected_total`` of the block orders it ran."""

    procedure: str
    plan: OrderedPartition | SetPartition
    replicates: int
    mean_tests: float
    std_error: float
    seed: int
    expected_total: float

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.procedure!r}")
        if self.replicates < 2:
            raise ValueError("at least two replicates are required")
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "plan": self.plan.to_json()}
