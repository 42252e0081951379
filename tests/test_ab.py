"""`tools/ab.py`'s paired statistics on synthetic perfbench records."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(studies_per_s, failed=0, digest="aa", **e2e):
    metrics = {"setup_s": 0.5, "studies_per_s": studies_per_s,
               "study_ms.p50": 1000.0 / studies_per_s, "peak_rss_mb": 60.0}
    return {"end_to_end": {**metrics, **e2e},
            "studies": [{"sid": "r0.c0.0", "rc": 0, "ok": True,
                         "digest": digest}],
            "result": {"correct": True, "attempted": 1, "failed": failed}}


def test_pairs_alternate_which_side_runs_first():
    assert [ab.order(k) for k in range(4)] == [
        ("base", "change"), ("change", "base"),
        ("base", "change"), ("change", "base")]


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024), (9, 1, 22 / 1024), (0, 10, 2 / 1024),
    (5, 5, 1.0), (0, 0, 1.0), (8, 2, 112 / 1024)])
def test_the_sign_test_is_the_exact_binomial(wins, losses, p):
    assert ab.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-12)


def test_the_ratio_interval_holds_its_median_and_repeats():
    base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change = [b * r for b, r in zip(base, [1.1, 1.2, 1.15, 1.12, 1.13,
                                           1.14, 1.11, 1.16, 1.1, 1.13])]
    got = ab.ratio_interval(base, change)
    assert got["median"] == pytest.approx(1.13)
    lo, hi = got["ci95"]
    assert 1.1 <= lo <= got["median"] <= hi <= 1.2
    assert ab.ratio_interval(base, change) == got


def test_a_clear_gain_is_claimed_and_ties_count_for_neither():
    base = [1.90, 1.94, 1.86, 1.92, 1.88, 1.93, 1.91, 1.89, 1.87, 1.90]
    change = [2.15, 2.20, 2.10, 2.17, 1.88, 2.16, 2.18, 2.12, 2.14, 2.19]
    m = ab.compare_metric(base, change, "higher", 0.25)
    assert (m["wins"], m["losses"], m["ties"]) == (9, 0, 1)
    assert m["sign_p"] == pytest.approx(2 / 512)
    assert m["gain"] and m["within_bound"]
    assert m["base"]["iqr"] == pytest.approx(
        m["base"]["q3"] - m["base"]["q1"])
    # for a lower-is-better metric the same numbers are a loss
    m = ab.compare_metric(base, change, "lower", 0.25)
    assert (m["wins"], m["losses"], m["gain"]) == (0, 9, False)
    assert m["within_bound"]    # +13 % is inside a 25 % bound
    assert not ab.compare_metric(base, change, "lower", 0.1)["within_bound"]


def test_a_gain_inside_the_base_spread_is_no_claim():
    base = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [b + 0.01 for b in base]
    m = ab.compare_metric(base, change, "higher", 0.25)
    assert m["wins"] == 10 and not m["gain"]


@pytest.mark.parametrize("change, within", [
    ([1.1, 1.3, 0.9, 1.2, 1.0, 1.1, 1.3, 0.9, 1.2, 1.0], None),
    ([2.0] * 10, True),     # every change run beats every base run
], ids=["overlapping", "separated"])
def test_a_base_spread_wider_than_the_bound_leaves_the_bound_unresolved(
        change, within):
    base = [1.0, 1.5, 0.6, 1.3, 0.8, 1.0, 1.5, 0.6, 1.3, 0.8]
    m = ab.compare_metric(base, change, "higher", 0.25)
    assert m["base"]["iqr"] > 0.25 * m["base"]["median"]
    assert m["within_bound"] is within


def test_nine_wins_of_ten_are_needed():
    base = [1.0] * 10
    change = [1.5] * 8 + [0.9] * 2
    m = ab.compare_metric(base, change, "higher", 0.25)
    assert (m["wins"], m["losses"], m["gain"]) == (8, 2, False)


def test_compare_reads_every_declared_metric_and_each_pair():
    pairs = [(_record(1.9 + 0.01 * k), _record(2.1 + 0.01 * k))
             for k in range(10)]
    pairs[3] = (_record(1.9), _record(2.1, failed=1, digest="bb"))
    got = ab.compare(pairs, BENCHMARK)
    assert set(got["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    sps = got["metrics"]["studies_per_s"]
    assert sps["wins"] == 10 and sps["gain"]
    assert got["metrics"]["study_ms.p50"]["wins"] == 10
    assert got["metrics"]["setup_s"]["ties"] == 10
    assert not got["metrics"]["setup_s"]["gain"]
    assert got["pairs"][1]["order"] == ["change", "base"]
    assert got["pairs"][3]["failed"] == [0, 1]
    assert got["pairs"][3]["regressions"] == [
        "r0.c0.0: digest aa -> bb", "failed: 0 -> 1"]
    assert all(not p["regressions"] for k, p in enumerate(got["pairs"])
               if k != 3)
    assert math.isclose(sps["base"]["median"], 1.945)
