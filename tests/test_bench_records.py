"""Every committed BENCH_*.json is a whole record of the declared benchmark.

The records are written by `tools/bench_summary.py`; a partial or
hand-edited one (a workload or metric missing, a median that is not the
median of its runs) fails here.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def test_records_exist():
    assert RECORDS


def _check_stats(where: str, declared: list[dict], stats: dict,
                 n_runs: int) -> None:
    for m in declared:
        s = stats.get(m["name"])
        assert s is not None, f"{where}: {m['name']} missing"
        assert (s["unit"], s["better"]) == (m["unit"], m["better"]), where
        runs = s["runs"]
        assert len(runs) == n_runs, f"{where}: {m['name']} runs"
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in runs), f"{where}: {m['name']} runs"
        expect = bench_summary.quartiles(runs)
        assert {k: s[k] for k in expect} == expect, f"{where}: {m['name']}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete(path):
    rec = json.loads(path.read_text())
    sha = rec["src_sha256"]
    assert isinstance(sha, str) and len(sha) == 64
    int(sha, 16)
    assert rec["environment"]["src_sha256"] == sha
    seeds = rec["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert len(set(seeds)) == len(seeds)
    workloads = rec["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, w in workloads.items():
        for key in ("correct", "attempted", "failed"):
            assert key in w, f"{name}: {key} missing"
        _check_stats(name, BENCHMARK["end_to_end"], w["metrics"], len(seeds))
        if rec["trace"]:
            _check_stats(f"{name} per_layer", BENCHMARK["per_layer"],
                         w["per_layer"], len(seeds))
