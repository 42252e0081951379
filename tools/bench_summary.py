"""Summarise perfbench result records into one committed BENCH_<pr>.json.

    python3 tools/bench_summary.py --pr 8 --seeds 1-5
    python3 tools/bench_summary.py --pr 9 --seeds 1-5 --trace 1
    python3 tools/bench_summary.py --pr 7 --seeds 1-5 \
        --results ../parent/.perfbench/results

Reads `<results>/<workload>-seed<N>-trace<T>.json`, as written by
`perfbench/run.py`, for every workload declared in BENCHMARK.json and
every listed seed.  For each workload it writes the median and quartiles
(over the seeds) of the declared end-to-end metrics, with every run's
value, and the `correct`/`attempted`/`failed` totals.  From `--trace 1`
records it adds, under `per_layer`, the same statistics of every declared
per-layer metric (traced layer times and work counters).  Next to them it
keeps the environment record of the runs (host, Python, numpy, threads
and the `src_sha256` of the sources measured).  A missing record, a
missing metric, or records of different sources, is an error (exit 2).
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fields of a run's environment record that every summarised run shares;
# `src_sha256` names the sources measured (a commit id would name the
# parent of an uncommitted tree)
SHARED_ENV = ("python", "numpy", "vesselstudy", "nproc", "cpu", "src_sha256",
              "threads")


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7' (or a mix) to a sorted list of seeds."""
    seeds = set()
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return sorted(seeds)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _medians(declared: list[dict], values: list[dict]) -> dict:
    """Median, quartiles and every run's value of each declared metric."""
    return {m["name"]: {"unit": m["unit"], "better": m["better"],
                        **quartiles([v[m["name"]] for v in values]),
                        "runs": [v[m["name"]] for v in values]}
            for m in declared}


def summarise(results: Path, seeds: list[int], trace: int, pr: str,
              benchmark: dict) -> dict:
    metrics = benchmark["end_to_end"]
    env = None
    workloads = {}
    for w in benchmark["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            path = results / f"{name}-seed{seed}-trace{trace}.json"
            if not path.is_file():
                raise ValueError(f"missing result record {path}")
            runs.append(json.loads(path.read_text()))
        for run in runs:
            shared = {k: run["environment"].get(k) for k in SHARED_ENV}
            if env is None:
                env = shared
            elif shared != env:
                raise ValueError(f"{name}: runs of different environments "
                                 f"or sources ({shared['src_sha256']} vs "
                                 f"{env['src_sha256']})")
        workloads[name] = {
            "seconds": sorted({r["environment"]["seconds"] for r in runs}),
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": _medians(metrics, [r["end_to_end"] for r in runs]),
        }
        if trace:
            workloads[name]["per_layer"] = _medians(
                benchmark["per_layer"],
                [{k: m["value"] for k, m in r["per_layer"].items()}
                 for r in runs])
    return {"pr": pr, "seeds": seeds, "trace": trace, "environment": env,
            "src_sha256": env["src_sha256"], "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True,
                    help="label of the measured change; names BENCH_<pr>.json")
    ap.add_argument("--seeds", required=True, help="e.g. 1-5 or 1,2,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="which records to read: --trace of the runs")
    ap.add_argument("--results", type=Path,
                    default=ROOT / ".perfbench" / "results")
    args = ap.parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        summary = summarise(args.results, parse_seeds(args.seeds), args.trace,
                            args.pr, benchmark)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
