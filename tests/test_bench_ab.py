"""The verdict of bench/ab.py: `summary` and `compare`, on made-up runs.
The module is loaded by path; nothing here starts git, a subprocess or a
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def runs(base, change, name="jobs_per_s"):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def verdict(base, change, better="higher"):
    return ab.compare(runs(base, change), {"jobs_per_s": better})["jobs_per_s"]


def test_summary_gives_the_median_and_quartiles():
    s = ab.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 1.5, 4.5, 3.0)


def test_a_single_run_is_its_own_median_and_quartiles():
    assert ab.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}
    m = verdict([100.0], [104.0])
    assert (m["change_wins"], m["base_wins"], m["ties"], m["gain"]) == (1, 0, 0, True)
    assert not verdict([100.0], [96.0])["gain"]


@pytest.mark.parametrize("wins", [10, 9])
def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_iqr(wins):
    change = [b + 5.0 for b in BASE]
    for i in range(10 - wins):
        change[i] = BASE[i] - 1.0
    m = verdict(BASE, change)
    assert (m["change_wins"], m["base_wins"]) == (wins, 10 - wins)
    assert m["change"]["median"] - m["base"]["median"] > m["base"]["iqr"]
    assert m["gain"]
    assert m["rel_change"] == pytest.approx(m["change"]["median"] / m["base"]["median"] - 1.0)


def test_eight_of_ten_pairs_is_no_gain():
    change = [b + 5.0 for b in BASE]
    change[0], change[1] = BASE[0] - 1.0, BASE[1] - 1.0
    m = verdict(BASE, change)
    assert (m["change_wins"], m["base_wins"]) == (8, 2)
    assert m["change"]["median"] - m["base"]["median"] > m["base"]["iqr"]
    assert not m["gain"]


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    change = [b + 0.2 for b in BASE]  # wins every pair, by less than the IQR
    m = verdict(BASE, change)
    assert m["change_wins"] == 10
    assert 0 < m["change"]["median"] - m["base"]["median"] < m["base"]["iqr"]
    assert not m["gain"]


def test_ties_count_for_neither_side():
    change = [b + 5.0 for b in BASE]
    change[0] = BASE[0]
    m = verdict(BASE, change)
    assert (m["change_wins"], m["base_wins"], m["ties"], m["gain"]) == (9, 0, 1, True)
    change[1] = BASE[1]
    m = verdict(BASE, change)
    assert (m["change_wins"], m["base_wins"], m["ties"], m["gain"]) == (8, 0, 2, False)


def test_lower_is_better_counts_a_drop_as_a_win():
    change = [b - 5.0 for b in BASE]
    m = verdict(BASE, change, better="lower")
    assert (m["better"], m["change_wins"], m["base_wins"], m["gain"]) == ("lower", 10, 0, True)
    assert not verdict(BASE, change, better="higher")["gain"]
    assert not verdict(BASE, [b + 5.0 for b in BASE], better="lower")["gain"]


def test_every_metric_of_the_benchmark_gets_its_own_verdict():
    pairs = [{"base": {"metrics": {"a": b, "b": b}}, "change": {"metrics": {"a": b + 5, "b": b + 5}}}
             for b in BASE]
    out = ab.compare(pairs, {"a": "higher", "b": "lower"})
    assert (out["a"]["gain"], out["b"]["gain"]) == (True, False)
    assert (out["b"]["change_wins"], out["b"]["base_wins"]) == (0, 10)
