"""The verdict scripts/bench_record.py gives each metric, on synthetic pairs."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # IQR 1.0


def shifted(values, delta):
    return [v + delta for v in values]


@pytest.mark.parametrize("better, sign", [("lower", -1), ("higher", 1)])
def test_a_clear_win_on_every_pair_is_a_gain(better, sign):
    change = shifted(PARENT, sign * 5.0)
    assert bench_record.verdict(PARENT, change, better, 0.25) == {"gain": True,
                                                                  "within_bound": True}
    # the same values read the other way round are a loss, still within a 25% bound
    assert bench_record.verdict(change, PARENT, better, 0.25) == {"gain": False,
                                                                  "within_bound": True}


def test_nine_wins_and_a_tie_are_a_gain_but_eight_wins_and_two_ties_are_not():
    change = shifted(PARENT, -5.0)
    change[0] = PARENT[0]
    assert bench_record.pairs_won(PARENT, change, "lower") == 9
    assert bench_record.verdict(PARENT, change, "lower", 0.25)["gain"]
    change[1] = PARENT[1]
    assert bench_record.pairs_won(PARENT, change, "lower") == 8
    assert not bench_record.verdict(PARENT, change, "lower", 0.25)["gain"]


def test_winning_every_pair_by_less_than_the_parents_iqr_is_no_gain():
    change = shifted(PARENT, -0.5)  # every pair won; the medians differ by 0.5 < IQR 1.0
    assert bench_record.pairs_won(PARENT, change, "lower") == len(PARENT)
    assert bench_record.summary(PARENT)["iqr"] == 1.0
    assert not bench_record.verdict(PARENT, change, "lower", 0.25)["gain"]


@pytest.mark.parametrize("better, ratio, within", [
    ("lower", 1.2, True), ("lower", 1.3, False), ("lower", 0.5, True),
    ("higher", 0.8, True), ("higher", 0.7, False), ("higher", 2.0, True)])
def test_within_bound_compares_the_medians_against_the_bound(better, ratio, within):
    change = [v * ratio for v in PARENT]
    assert bench_record.verdict(PARENT, change, better, 0.25)["within_bound"] is within


def test_pairs_must_line_up():
    with pytest.raises(ValueError):
        bench_record.pairs_won(PARENT, PARENT[:-1], "lower")
