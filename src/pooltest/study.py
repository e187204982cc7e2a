"""Simulation study: sample heterogeneous risk vectors, optimize ordered
plans for all three procedures, and aggregate the optimal expected totals.

For a target mean risk p, individual risks are drawn from Beta(1, beta)
with beta = (1-p)/p by ``simulate.sample_beta_one``, so the draws average p
with population standard deviation p * sqrt((1-p)/(1+p)). Each replicate
optimizes an ordered partition per procedure by dynamic programming and
records the optimal expected totals together with the entropy of the drawn
vector.

Sterrett blocks default to the "smallest-last" arrangement because the
published comparison tables this module reproduces were computed under
that rule; switch ``sterrett_rule`` to "optimal" for the strictly better
arrangement (it lowers the S column, most visibly at small p).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bounds import entropy_bits
from .model import (
    PROCEDURES,
    STERRETT_RULES,
    EmptyInputError,
    UnknownFormatError,
    json_text,
)
from .simulate import check_run, sample_beta_one, stream_generator
from .tables import check_cells, dp_totals

# Targets the study accepts. A Beta(1, beta) quantile is redrawn when it
# rounds to exactly 0 or 1; at both ends of this range about 1e-4 of the
# distribution's mass does. Beyond them the redrawn share grows until, near
# p = 1e-17 or p = 0.9999, almost no draw survives and the study would not end.
P_TARGET_RANGE = (1e-12, 0.8)

COLUMNS = ("p", "std", "D_mean", "D_se", "Dp_mean", "Dp_se", "S_mean", "S_se", "H_mean", "H_se")


@dataclass(frozen=True)
class StudyConfig:
    """Design of one study run.

    ``common_draws`` reuses the same risk vectors for all three procedures
    (and the entropy column) within a replicate; set it to False to give
    every procedure its own independent draws. ``sterrett_rule`` picks the
    within-block arrangement for the S column ("smallest-last" reproduces
    published tables, "optimal" is strictly better).
    """

    p_targets: tuple[float, ...] = (0.001, 0.01, 0.05, 0.10, 0.20, 0.30)
    n: int = 100
    m: int = 200
    seed: int = 1
    common_draws: bool = True
    sterrett_rule: str = "smallest-last"

    def __post_init__(self):
        object.__setattr__(self, "p_targets", tuple(float(p) for p in self.p_targets))
        if len(self.p_targets) == 0:
            raise EmptyInputError("at least one target mean risk is required")
        lo, hi = P_TARGET_RANGE
        if any(not (lo <= p <= hi) for p in self.p_targets):
            raise ValueError(f"target risks must lie in [{lo:g}, {hi:g}]: {self.p_targets}")
        if self.n < 1:
            raise ValueError("population size must be >= 1")
        check_run(self.m, self.seed)
        if self.sterrett_rule not in STERRETT_RULES:
            raise ValueError(f"unknown Sterrett rule {self.sterrett_rule!r}")


# Aggregates for one target risk: the empirical spread of its draws, then the
# mean and standard error of the mean of each column over the replicates.
StudyRow = namedtuple("StudyRow", [c.lower() for c in COLUMNS])


def _mean_se(xs: list[float] | np.ndarray) -> tuple[float, float]:
    arr = np.asarray(xs)
    return float(arr.mean()), float(arr.std(ddof=1)) / math.sqrt(len(xs))


def run_study(config: StudyConfig) -> list[StudyRow]:
    """Run the full study; deterministic for a fixed config.

    Replicate r of target t draws its n risks with ``sample_beta_one`` from
    the child stream (t, r) of ``config.seed`` when the draws are shared,
    and column c (D, Dp, S, H in that order) draws from (t, r, c) when they
    are not. The D, Dp and S columns are optimal totals over the sorted
    draws. The H column is the entropy of the sorted shared draws, or of its
    own draws as drawn.

    A target draws all its replicates first, in that order, into one
    (m, keys, n) buffer and holds them there once, 8 bytes a draw: it takes
    the std column from the buffer, sorts the D, Dp and S columns' draws in
    place, reads the entropies from the H column's draws one replicate at a
    time, then complements the buffer in place. Each of the D, Dp and S
    columns is then one ``dp_totals`` batch over the replicates, equal bit
    for bit to a ``dp_table`` call per replicate. The S table is never cut,
    so its n(n-1)/2 cells bound every batch's: a study whose S table is over
    the cell budget is refused on n alone, before any draw.
    """
    rows = []
    n, m = config.n, config.m
    check_cells("S", n, n * (n - 1) // 2)
    keys = 1 if config.common_draws else len(PROCEDURES) + 1  # streams per replicate
    for t, p in enumerate(config.p_targets):
        beta = (1.0 - p) / p
        drawn = np.empty((m, keys, n))
        for r in range(m):
            for c in range(keys):
                key = (t, r) if config.common_draws else (t, r, c)
                drawn[r, c] = sample_beta_one(n, beta, stream_generator(config.seed, key))
        std = float(drawn.ravel().std(ddof=1))
        # sort the DP columns' draws in place (under common draws that is all
        # of them; the entropy column's own draws stay as drawn), then read
        # the entropies one replicate's floats at a time, never all m * n
        drawn[:, : len(PROCEDURES)].sort()
        entropies = [entropy_bits(row.tolist()) for row in drawn[:, -1]]
        q = np.subtract(1.0, drawn, out=drawn)  # descending rows, as dp_table reads them
        columns = [
            dp_totals(q[:, c % keys], procedure, config.sterrett_rule)
            for c, procedure in enumerate(PROCEDURES)
        ]
        columns.append(entropies)
        rows.append(StudyRow(p, std, *(v for column in columns for v in _mean_se(column))))
    return rows


def emit_table(rows: list[StudyRow], fmt: str, metadata: dict | None = None) -> str:
    """Render study rows as csv, json, or markdown text.

    Column order is fixed; csv uses '.' decimals regardless of locale.
    ``metadata`` is included only in the json form.
    """
    if not rows:
        raise EmptyInputError("no study rows to emit")
    lines = [COLUMNS, *(["%.10g" % v for v in row] for row in rows)]
    if fmt == "csv":
        return "".join(",".join(cells) + "\n" for cells in lines)
    if fmt == "markdown":
        lines.insert(1, ["---"] * len(COLUMNS))
        return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)
    if fmt == "json":
        payload: dict = {"columns": list(COLUMNS)}
        if metadata is not None:
            payload["metadata"] = metadata
        payload["rows"] = [dict(zip(COLUMNS, row)) for row in rows]
        return json_text(payload) + "\n"
    raise UnknownFormatError(f"unknown table format {fmt!r}; expected csv, json, or markdown")
