"""Core domain types shared by every other module.

All types are immutable dataclasses built on tuples, so instances can be
shared freely across threads. Failure probabilities q_i are always derived
as 1 - p_i, never stored.

JSON forms (indices are 1-based on the wire, 0-based in memory). The
probability vector is read only: "p" is an array of numbers (not strings
or booleans), and an optional "ids" array must match it in length and is
otherwise ignored. The plans are read and written: "ordered_sizes" is an
array of integers and "blocks" an array of arrays of item numbers from 1.
The reports are written only:

    ProbabilityVector   {"p": [...], "ids": [...]?}
    OrderedPartition    {"ordered_sizes": [...]}
    SetPartition        {"blocks": [[...], [...]]}
    CostReport          {"procedure": ..., "per_block": [...], "total": ...}
    SimulationSummary   {"procedure": ..., "plan": ..., "replicates": ...,
                         "mean_tests": ..., "std_error": ..., "seed": ...,
                         "expected_total": ...}

Every JSON text pooltest prints is ``json_text(payload)``.

Each value is checked once, where it enters. A probability vector converts
and range-checks its entries in one pass and names the first bad one. The
report types ``BlockCost`` and ``CostReport`` hold what
``cost.evaluate_plan`` computed: that each order is a permutation of its
block, each cost lies in its procedure's range and the total is the sum of
the blocks is tested, not re-checked on every report.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import asdict, dataclass
from json.encoder import JSONEncoder, encode_basestring_ascii
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
    """A search was requested beyond its guard: ``n`` is the size (or, with
    ``unit``, the work) asked for and ``limit`` the most the guard allows."""

    def __init__(self, n: int, limit: int, what: str = "instance", unit: str = "size"):
        self.n = n
        self.limit = limit
        super().__init__(f"{what} {unit} {n} exceeds the enumeration guard {limit}")


class NotSortedError(ValueError):
    """An operation required sorted input and did not get it."""


class UnknownFormatError(ValueError):
    """An input could not be read as pooltest expects: an unreadable file or
    one that is not UTF-8, invalid JSON, a line that is not a decimal
    number, JSON without its "p" or plan key or whose values have the wrong
    JSON types, or an unknown table format name."""


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _json_type(x: Any) -> str:
    """The JSON type of a parsed value, as an error message names it."""
    return _JSON_TYPES.get(type(x), type(x).__name__)


def _json_array(x: Any, what: str) -> list:
    """``x`` if it is a JSON array, else an UnknownFormatError naming its type."""
    if type(x) is not list:
        raise UnknownFormatError(f"{what} must be an array, not {_json_type(x)}")
    return x


# Tuples of per-call data are built from lists, not generators. CPython
# allocates a tuple built from a generator at 10 slots and shrinks it; freed,
# it joins a per-size free list (up to 2000 tuples of each size up to 20)
# that only a full garbage collection empties. Such tuples would fill those
# lists, about 2 MiB over a few hundred `pooltest optimize` calls in one
# process, faster than exact-size allocations take them back out.
def _as_int_tuple(xs: Iterable[Any], what: str) -> tuple[int, ...]:
    """Integer entries of a plan or group: integral numbers such as 2.0 or
    numpy integers pass, but booleans, fractions and non-numbers fail,
    naming the 1-based entry."""
    xs = tuple(xs)
    for j, x in enumerate(xs, 1):
        if type(x) is int:  # the common case, without the ABC check below
            continue
        if isinstance(x, bool) or not isinstance(x, numbers.Real) or x % 1:
            raise ValueError(f"{what} entry {j}: {reprlib.repr(x)} is not an integer")
    return tuple([int(x) for x in xs])


@dataclass(frozen=True)
class ProbabilityVector:
    """Defect probabilities p_1..p_N of a population of independent items.

    Every p_i must lie strictly inside (0, 1): boundary values make
    classification degenerate and the cost formulas do not cover them.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = []
        for j, x in enumerate(self.probs, 1):
            try:
                p = float(x)
            except OverflowError as e:  # an integer too large for a float, such as 10**400
                raise ValueError(f"entry {j}: probability is not strictly inside (0, 1): {e}") from None
            if not (0.0 < p < 1.0):
                raise OutOfRangeError(j, p)
            probs.append(p)
        if not probs:
            raise EmptyInputError("probability vector must contain at least one entry")
        object.__setattr__(self, "probs", tuple(probs))

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
        probs = _json_array(d["p"], '"p"')
        for j, x in enumerate(probs, 1):
            if type(x) is not float and type(x) is not int:
                raise UnknownFormatError(f"entry {j}: probability {reprlib.repr(x)} is not a number")
        pv = cls(probs=tuple(probs))
        if "ids" in d and len(_json_array(d["ids"], '"ids"')) != pv.n:
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
        n = pv.n
        if bad := [i for i in self.items if i >= n]:
            raise ValueError(f"group items {bad} out of range for population of size {n}")

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
        return cls(sizes=_json_array(d["ordered_sizes"], '"ordered_sizes"'))


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty index blocks; together they must cover {0..N-1}."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(_as_int_tuple(b, f"block {j}") for j, b in enumerate(self.blocks, 1))
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) == 0:
            raise EmptyInputError("set partition must have at least one block")
        seen: dict[int, int] = {}  # item -> its block's number
        for j, b in enumerate(blocks, 1):
            if len(b) == 0:
                raise ValueError("set partition blocks must be nonempty")
            for i in b:
                if i in seen:
                    where = f"twice in block {j}" if seen[i] == j else "in more than one block"
                    raise ValueError(f"item {i} appears {where}")
                seen[i] = j

    def check_cover(self, n: int) -> None:
        items = {i for b in self.blocks for i in b}
        for i in sorted(items.symmetric_difference(range(n))):  # named from 1, as in plan files
            what = "names" if i in items else "misses"
            raise ValueError(f"set partition {what} item {i + 1}; the items are 1..{n}")

    def to_json(self) -> dict[str, Any]:
        return {"blocks": [[i + 1 for i in b] for b in self.blocks]}

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "SetPartition":
        blocks = _json_array(d["blocks"], '"blocks"')
        for j, b in enumerate(blocks, 1):
            _json_array(b, f"block {j}")
        one_based = cls(blocks=blocks)  # checked 1-based: errors quote the input
        for j, b in enumerate(one_based.blocks, 1):
            for e, i in enumerate(b, 1):
                if i < 1:
                    raise ValueError(
                        f"block {j} entry {e}: {i} is not an item number; items are numbered from 1"
                    )
        return cls(blocks=tuple(tuple(i - 1 for i in b) for b in one_based.blocks))


def plan_from_json(d: dict[str, Any]) -> OrderedPartition | SetPartition:
    """Parse either plan form from its JSON dict."""
    if type(d) is not dict:
        raise UnknownFormatError(f"plan JSON must be an object, not {_json_type(d)}")
    if "ordered_sizes" in d and "blocks" in d:
        raise UnknownFormatError('plan JSON must have an "ordered_sizes" or "blocks" key, not both')
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

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "plan": self.plan.to_json()}


# float.__repr__ spells these as "nan", "inf" and "-inf"
_JSON_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(payload: Any) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, for str-keyed
    payloads.

    On Python 3.11 ``indent`` sends ``json.dumps`` to the pure-Python
    encoder; this walks the containers itself in about half the time.
    Every leaf but a float is the stdlib's ``JSONEncoder().encode``, so
    str, int, bool and None, and the ``TypeError`` of an unserializable
    leaf, are ``json.dumps``'s own. Two paths stay because they pay on
    ``design`` payloads: a float is ``float.__repr__``, with NaN and
    Infinity spelled as ``json`` spells them, and a list of plain ints
    is joined in one step.
    """
    out: list[str] = []
    _emit(payload, "\n", out)
    return "".join(out)


def _emit(x: Any, newline: str, out: list[str]) -> None:
    # no two of these types can share an instance
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in x.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, x)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _emit(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, float):
        text = float.__repr__(x)
        out.append(_JSON_FLOAT_SPECIALS.get(text, text))
    else:
        out.append(JSONEncoder().encode(x))
