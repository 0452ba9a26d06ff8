"""The gain rule ``scripts/bench_pairs.py`` prints for paired runs."""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics(**values) -> dict:
    return {name: {"value": value} for name, value in values.items()}


def verdicts(base: list[float], new: list[float], name="requests_per_s") -> str:
    lines = bench_pairs.gain_rule(
        {s: metrics(**{name: v}) for s, v in enumerate(base)},
        {s: metrics(**{name: v}) for s, v in enumerate(new)},
        SPEC,
    )
    (row,) = [line for line in lines if line.startswith(name)]
    return row


def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain():
    base = [100.0, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    new = [v + 20 for v in base[:9]] + [base[9] - 1]
    row = verdicts(base, new)
    assert " 9/10" in row and row.endswith("yes")


def test_eight_of_ten_wins_is_not():
    base = [100.0, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    new = [v + 20 for v in base[:8]] + [base[8], base[9] - 1]
    row = verdicts(base, new)
    assert " 8/10" in row and row.endswith("no")


def test_ties_count_for_neither_side():
    base = [100.0] * 10
    row = verdicts(base, list(base))
    assert " 0/10" in row and row.split()[3] == "0" and row.endswith("no")


def test_lower_is_better_metrics_win_by_falling():
    base = [10.0, 11, 9, 10, 12, 10, 9, 11, 10, 10]
    row = verdicts(base, [v / 2 for v in base], name="tick_p50_ms")
    assert "10/10" in row and row.endswith("yes")


def test_win_inside_the_parent_spread_is_not_a_gain():
    base = [100.0, 140, 60, 120, 80, 100, 130, 70, 110, 90]
    row = verdicts(base, [v + 1 for v in base])
    assert "10/10" in row and row.endswith("no")
