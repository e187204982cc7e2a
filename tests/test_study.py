import dataclasses
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pooltest.study
import pooltest.tables
from pooltest.bounds import entropy_bits
from pooltest.model import (
    PROCEDURES,
    EmptyInputError,
    InstanceTooLargeError,
    ProbabilityVector,
    UnknownFormatError,
)
from pooltest.optimize import dp_table
from pooltest.simulate import sample_beta_one, stream_generator
from pooltest.study import COLUMNS, P_TARGET_RANGE, StudyConfig, emit_table, run_study

SMALL = StudyConfig(p_targets=(0.05, 0.2), n=12, m=30, seed=77)
LO, HI = P_TARGET_RANGE
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_rows():
    return run_study(SMALL)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(m=1)
    with pytest.raises(ValueError):
        StudyConfig(n=0)
    with pytest.raises(ValueError):
        StudyConfig(p_targets=(0.0,))
    with pytest.raises(EmptyInputError):
        StudyConfig(p_targets=())
    with pytest.raises(ValueError):
        StudyConfig(sterrett_rule="fastest")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            StudyConfig(seed=seed)


@pytest.mark.parametrize(
    "p", [1e-18, math.nextafter(LO, 0.0), math.nextafter(HI, 1.0), 0.99999999, math.nan]
)
def test_rejects_targets_outside_range(p):
    # far outside the range hardly any Beta(1, beta) draw lands strictly
    # inside (0, 1), so the study would never finish
    with pytest.raises(ValueError, match="target risks must lie in"):
        StudyConfig(p_targets=(0.1, p))


@pytest.mark.parametrize("p", [LO, 1e-9, 1e-5, 0.01, 0.5, HI])
def test_targets_inside_range_finish(p):
    start = time.perf_counter()
    rows = run_study(StudyConfig(p_targets=(p,), n=100, m=2, seed=4))
    assert time.perf_counter() - start < 1.0
    assert rows[0].std > 0


def test_single_item_population_always_one_test():
    rows = run_study(StudyConfig(p_targets=(0.1,), n=1, m=5, seed=3))
    row = rows[0]
    assert row.d_mean == row.dp_mean == row.s_mean == 1.0
    assert row.d_se == 0.0


def test_rows_ordered_like_targets(small_rows):
    assert [row.p for row in small_rows] == [0.05, 0.2]


def test_dominance_and_entropy_floor(small_rows):
    for row in small_rows:
        assert row.s_mean <= row.dp_mean + 1e-12
        assert row.dp_mean <= row.d_mean + 1e-12
        assert row.h_mean <= row.s_mean + 1e-12


def test_std_converges_to_population_value():
    # 100 * 100 = 10^4 draws pin the sd within a few percent
    p = 0.1
    rows = run_study(StudyConfig(p_targets=(p,), n=100, m=100, seed=5))
    analytic = p * math.sqrt((1 - p) / (1 + p))
    assert abs(rows[0].std - analytic) <= 0.05 * analytic


def test_seed_determinism():
    a = run_study(SMALL)
    b = run_study(SMALL)
    assert a == b
    c = run_study(StudyConfig(p_targets=(0.05, 0.2), n=12, m=30, seed=78))
    assert a != c


@pytest.mark.parametrize("common_draws, per_replicate", [(True, 1), (False, 4)])
def test_draws_through_the_public_sampler(monkeypatch, common_draws, per_replicate):
    # one sample_beta_one call of n draws per stream: one stream per
    # replicate with shared draws, one per column (D, Dp, S, H) without
    calls = []

    def counting(n, beta, rng):
        calls.append(n)
        return sample_beta_one(n, beta, rng)

    config = StudyConfig(p_targets=(0.05, 0.2), n=12, m=30, seed=77, common_draws=common_draws)
    expected = run_study(config)
    monkeypatch.setattr(pooltest.study, "sample_beta_one", counting)
    assert run_study(config) == expected
    assert calls == [12] * (2 * 30 * per_replicate)


def reference_row(config, t):
    # column c (D, Dp, S, H) of replicate r takes the draws of stream (t, r)
    # when they are shared, else of (t, r, c); D, Dp and S are optimal totals
    # over the sorted draws, H the entropy of the sorted shared draws or of
    # its own draws as drawn; the spread counts each distinct draw once
    p = config.p_targets[t]
    columns, spread = [[], [], [], []], []
    for r in range(config.m):
        for c, column in enumerate(columns):
            key = (t, r) if config.common_draws else (t, r, c)
            risks = sample_beta_one(config.n, (1 - p) / p, stream_generator(config.seed, key))
            if c == 0 or not config.common_draws:
                spread.extend(risks)
            ordered = ProbabilityVector(tuple(sorted(risks)))
            if c < len(PROCEDURES):
                column.append(dp_table(ordered, PROCEDURES[c], s_rule=config.sterrett_rule).total)
            elif config.common_draws:
                column.append(entropy_bits(ordered.probs))
            else:
                column.append(entropy_bits(ProbabilityVector(tuple(risks)).probs))
    values = [p, float(np.std(spread, ddof=1))]
    for column in columns:
        values += [float(np.mean(column)), float(np.std(column, ddof=1)) / math.sqrt(config.m)]
    return values


@pytest.mark.parametrize("common_draws", [True, False])
def test_rows_equal_reference_bit_for_bit(common_draws):
    config = StudyConfig(p_targets=(0.05, 0.3), n=40, m=20, seed=3, common_draws=common_draws)
    rows = run_study(config)
    assert [list(row) for row in rows] == [reference_row(config, t) for t in range(2)]


def test_refused_on_n_before_any_draw(monkeypatch):
    # the S table is never cut, so its n(n-1)/2 cells bound every batch's
    # and the study makes that one check, before the first draw
    monkeypatch.setattr(pooltest.study, "stream_generator", lambda *a: pytest.fail("drew"))
    monkeypatch.setattr(pooltest.study, "sample_beta_one", lambda *a: pytest.fail("drew"))
    with pytest.raises(InstanceTooLargeError) as excinfo:
        run_study(StudyConfig(p_targets=(0.1,), n=5293, m=2))
    assert str(excinfo.value) == (
        "S DP over 5293 items: cell count 14005278 exceeds the enumeration guard 14000000"
    )


def test_one_budget_check_per_study(monkeypatch):
    # the largest full tables pass it; the batches are stubbed, as they take seconds
    calls = []
    check = pooltest.study.check_cells
    monkeypatch.setattr(pooltest.study, "check_cells", lambda *a: calls.append(a) or check(*a))
    monkeypatch.setattr(pooltest.study, "dp_totals", lambda q, *a: np.zeros(len(q)))
    rows = run_study(StudyConfig(p_targets=(0.1, 0.3), n=5292, m=2))
    assert len(rows) == 2
    assert calls == [("S", 5292, 5292 * 5291 // 2)]


def test_memory_per_draw(monkeypatch):
    # one target holds its draws once, in one buffer sorted and complemented
    # in place, 8 bytes a draw, plus the draw std's temporary of the same
    # size; the batches run 32 replicates a chunk, so the DP scratch stays
    # small beside the m * n draws
    monkeypatch.setattr(pooltest.tables, "CHUNK_DRAWS", 16 * 40 * 32)
    config = StudyConfig(p_targets=(0.1,), n=40, m=500, seed=3)
    run_study(config)  # warm-up: caches and first-call allocations
    tracemalloc.start()
    try:
        run_study(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * config.n * config.m, peak / (config.n * config.m)


def test_independent_draws_mode_changes_values_not_contracts():
    config = StudyConfig(p_targets=(0.1,), n=10, m=20, seed=9, common_draws=False)
    rows = run_study(config)
    assert rows[0].s_mean <= rows[0].d_mean + 0.5  # looser: no common-draw pairing


def test_optimal_rule_lowers_s_column():
    base = StudyConfig(p_targets=(0.01,), n=40, m=15, seed=13)
    repro = run_study(base)[0]
    better = run_study(
        StudyConfig(p_targets=(0.01,), n=40, m=15, seed=13, sterrett_rule="optimal")
    )[0]
    assert better.s_mean < repro.s_mean
    assert better.d_mean == repro.d_mean  # D and Dp are unaffected by the rule


@pytest.mark.parametrize("rule", ["smallest-last", "optimal"])
def test_readme_tables_equal_the_published_scale_goldens(rule):
    # the README shows each rule's `--format markdown` table under its
    # command line; csv and markdown both print "%.10g", so every cell
    # must equal the golden csv's string
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    at = lines.index(f"`pooltest study --m 1000 --sterrett-rule {rule} --format markdown`:")
    table = []
    for line in lines[at + 2 :]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    golden = (ROOT / "tests" / "golden" / f"study-m1000-{rule}.csv").read_text().splitlines()
    assert table[0] == list(COLUMNS) == golden[0].split(",")
    assert table[1] == ["---"] * len(COLUMNS)
    assert table[2:] == [row.split(",") for row in golden[1:]]


class TestEmitTable:
    def test_csv_shape(self, small_rows):
        text = emit_table(small_rows, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 1 + len(small_rows)
        assert "," in lines[1] and "." in lines[1]

    def test_markdown_shape(self, small_rows):
        text = emit_table(small_rows, "markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| p |")
        assert len(lines) == 2 + len(small_rows)

    @pytest.mark.parametrize("common_draws", [True, False], ids=["common", "independent-draws"])
    def test_markdown_cells_equal_csv_cells(self, small_rows, common_draws):
        rows = small_rows if common_draws else run_study(dataclasses.replace(SMALL, common_draws=False))
        csv = [line.split(",") for line in emit_table(rows, "csv").splitlines()]
        markdown = emit_table(rows, "markdown").splitlines()
        cells = []
        for line in markdown:
            assert line.startswith("|") and line.endswith("|")
            cells.append([cell.strip() for cell in line[1:-1].split("|")])
        assert cells[0] == list(COLUMNS) == csv[0]
        assert cells[1] == ["---"] * len(COLUMNS)
        assert cells[2:] == csv[1:]
        # one space pads each cell, and the rule row's dashes too
        assert markdown[1] == "|" + " --- |" * len(COLUMNS)
        assert markdown[2:] == ["| " + " | ".join(row) + " |" for row in csv[1:]]

    def test_json_roundtrip(self, small_rows):
        payload = json.loads(emit_table(small_rows, "json", metadata={"seed": 77}))
        assert payload["columns"] == list(COLUMNS)
        assert payload["metadata"] == {"seed": 77}
        assert len(payload["rows"]) == len(small_rows)
        assert payload["rows"][0]["p"] == 0.05

    def test_empty_rows_rejected(self):
        with pytest.raises(EmptyInputError):
            emit_table([], "csv")

    def test_unknown_format_rejected(self, small_rows):
        with pytest.raises(UnknownFormatError):
            emit_table(small_rows, "xlsx")

    def test_byte_identical_for_same_rows(self, small_rows):
        assert emit_table(small_rows, "csv") == emit_table(small_rows, "csv")


def scalar_beta_one(beta, rng):
    # reference: one uniform at a time, redrawn until strictly inside (0, 1)
    while True:
        x = 1.0 - (1.0 - rng.random()) ** (1.0 / beta)
        if 0.0 < x < 1.0:
            return x


@pytest.mark.parametrize("beta", [0.01, 0.5, 9.0, 999.0])
def test_draw_risks_equals_scalar_sampler(beta):
    # one batch of n draws, and n batches of one draw, against the scalar
    # loop; beta = 0.01 lands most draws exactly on 1.0, so redraws are exercised
    for key in range(60):
        n = 1 + key % 40
        rng = stream_generator(5, (key,))
        expected = [scalar_beta_one(beta, rng) for _ in range(n)]
        assert sample_beta_one(n, beta, stream_generator(5, (key,))) == expected
        rng = stream_generator(5, (key,))
        assert [x for _ in range(n) for x in sample_beta_one(1, beta, rng)] == expected
