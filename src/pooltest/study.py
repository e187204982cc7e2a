"""Simulation study: sample heterogeneous risk vectors, optimize ordered
plans for all three procedures, and aggregate the optimal expected totals.

For a target mean risk p, individual risks are drawn from Beta(1, beta)
with beta = (1-p)/p, so the draws average p with population standard
deviation p * sqrt((1-p)/(1+p)). Each replicate optimizes an ordered
partition per procedure by dynamic programming and records the optimal
expected totals together with the entropy of the drawn vector.

Sterrett blocks default to the "smallest-last" arrangement because the
published comparison tables this module reproduces were computed under
that rule; switch ``sterrett_rule`` to "optimal" for the strictly better
arrangement (it lowers the S column, most visibly at small p).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .bounds import entropy_bits
from .model import (
    PROCEDURES,
    STERRETT_RULES,
    EmptyInputError,
    ProbabilityVector,
    UnknownFormatError,
)
from .optimize import dp_table
from .simulate import _beta_one_draws, stream_generator

DEFAULT_P_TARGETS = (0.001, 0.01, 0.05, 0.10, 0.20, 0.30)

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

    p_targets: tuple[float, ...] = DEFAULT_P_TARGETS
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
        if self.m < 2:
            raise ValueError("at least two replicates are required")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.sterrett_rule not in STERRETT_RULES:
            raise ValueError(f"unknown Sterrett rule {self.sterrett_rule!r}")


@dataclass(frozen=True)
class StudyRow:
    """Aggregates for one target risk: empirical draw spread plus mean and
    standard error of the mean for each optimal expected total."""

    p: float
    std: float
    d_mean: float
    d_se: float
    dp_mean: float
    dp_se: float
    s_mean: float
    s_se: float
    h_mean: float
    h_se: float

    def values(self) -> tuple[float, ...]:
        return (
            self.p,
            self.std,
            self.d_mean,
            self.d_se,
            self.dp_mean,
            self.dp_se,
            self.s_mean,
            self.s_se,
            self.h_mean,
            self.h_se,
        )


def run_study(config: StudyConfig) -> list[StudyRow]:
    """Run the full study; deterministic for a fixed config."""
    rows = []
    for t, p in enumerate(config.p_targets):
        beta = (1.0 - p) / p
        per_proc = {proc: [] for proc in PROCEDURES}
        entropies = []
        all_draws: list[float] = []

        def draw(*key: int) -> list[float]:
            return _beta_one_draws(config.n, beta, stream_generator(config.seed, (t, *key)))

        for r in range(config.m):
            if config.common_draws:
                risks = draw(r)
                all_draws.extend(risks)
                pv = ProbabilityVector(probs=tuple(sorted(risks)))
                for proc in PROCEDURES:
                    per_proc[proc].append(dp_table(pv, proc, s_rule=config.sterrett_rule).total)
                entropies.append(entropy_bits(pv))
            else:
                for c, proc in enumerate(PROCEDURES):
                    risks = draw(r, c)
                    all_draws.extend(risks)
                    pv = ProbabilityVector(probs=tuple(sorted(risks)))
                    per_proc[proc].append(dp_table(pv, proc, s_rule=config.sterrett_rule).total)
                risks = draw(r, 3)
                all_draws.extend(risks)
                entropies.append(entropy_bits(ProbabilityVector(probs=tuple(risks))))

        def mean_se(xs: list[float]) -> tuple[float, float]:
            arr = np.asarray(xs)
            return float(arr.mean()), float(arr.std(ddof=1)) / math.sqrt(len(xs))

        d_mean, d_se = mean_se(per_proc["D"])
        dp_mean, dp_se = mean_se(per_proc["Dp"])
        s_mean, s_se = mean_se(per_proc["S"])
        h_mean, h_se = mean_se(entropies)
        rows.append(
            StudyRow(
                p=p,
                std=float(np.asarray(all_draws).std(ddof=1)),
                d_mean=d_mean,
                d_se=d_se,
                dp_mean=dp_mean,
                dp_se=dp_se,
                s_mean=s_mean,
                s_se=s_se,
                h_mean=h_mean,
                h_se=h_se,
            )
        )
    return rows


def _fmt(x: float) -> str:
    return "%.10g" % x


def emit_table(rows: list[StudyRow], fmt: str, metadata: dict | None = None) -> str:
    """Render study rows as csv, json, or markdown text.

    Column order is fixed; csv uses '.' decimals regardless of locale.
    ``metadata`` is included only in the json form.
    """
    if not rows:
        raise EmptyInputError("no study rows to emit")
    if fmt == "csv":
        out = io.StringIO()
        out.write(",".join(COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row.values()) + "\n")
        return out.getvalue()
    if fmt == "markdown":
        out = io.StringIO()
        out.write("| " + " | ".join(COLUMNS) + " |\n")
        out.write("|" + "|".join(" --- " for _ in COLUMNS) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(_fmt(v) for v in row.values()) + " |\n")
        return out.getvalue()
    if fmt == "json":
        import json

        payload: dict = {"columns": list(COLUMNS)}
        if metadata is not None:
            payload["metadata"] = metadata
        payload["rows"] = [dict(zip(COLUMNS, row.values())) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise UnknownFormatError(f"unknown table format {fmt!r}; expected csv, json, or markdown")
