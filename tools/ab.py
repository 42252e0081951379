"""Paired A/B timing of two source trees on one perfbench workload.

    python3 tools/ab.py --base ../parent --change . --workload transient \
        --pairs 10 [--seed 1] [--out AB.json]

Runs `perfbench/run.py --trace 0` of each tree, from that tree's own
checkout, for BENCHMARK.json's `run_seconds`, `--pairs` times each, in
ABBA order: even pairs run the base first, odd pairs the change first,
so a drift of the host's speed within the session falls on both sides
alike (Kalibera and Jones, *Rigorous Benchmarking in Reasonable Time*,
ISMM 2013).  After every pair it runs `digest_diff.py --regressions` on
the two records, so a timing is never taken from a change whose studies
changed.

For each end-to-end metric that BENCHMARK.json declares, the output
holds both sides' median, quartiles and IQR, the median over the pairs
of change / base with a bootstrap 95 % interval (pairs resampled), the
pairs the change wins, loses and ties (better as the metric declares),
an exact two-sided sign-test p over the pairs that are not ties, and
two verdicts: `gain`, the change wins at least nine tenths of all pairs
and its median is better than the base's by more than the base's IQR;
and `within_bound`, its median is no worse than the base's by more than
the metric's bound, or null, unresolved, when the base's IQR is wider
than the bound and not every change run is better than every base run.
Each run adds its comparison, keyed `<workload>/seed<N>`, to the JSON
file `--out`, keeping the others.

Exits 0 when every pair ran and agreed, 1 when some pair's studies
regressed, 2 when a run failed.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_summary  # noqa: E402
import digest_diff  # noqa: E402

ROOT = HERE.parent
BOOTSTRAP = 10_000      # resamples of the pairs
GAIN_WINS = 0.9         # the share of all pairs a gain must win
ENV = ("python", "numpy", "nproc", "cpu", "threads")


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run: ABBA."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided binomial p of `wins` against `losses` at 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def ratio_interval(base: list[float], change: list[float]) -> dict:
    """Median over the pairs of change / base, with the 2.5 and 97.5
    percentiles of that median over BOOTSTRAP resamplings of the pairs
    (a fixed generator, so a record always gives the same interval)."""
    ratios = [c / b for b, c in zip(base, change)]
    rng = random.Random(0)
    boot = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(BOOTSTRAP))
    lo, hi = boot[int(0.025 * BOOTSTRAP)], boot[int(0.975 * BOOTSTRAP) - 1]
    return {"median": statistics.median(ratios), "ci95": [lo, hi]}


def compare_metric(base: list[float], change: list[float], better: str,
                   bound: float) -> dict:
    """The paired statistics of one metric, `better` "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    sides = {}
    for name, values in (("base", base), ("change", change)):
        q = bench_summary.quartiles(values)
        sides[name] = {**q, "iqr": q["q3"] - q["q1"], "runs": values}
    b, c = sides["base"]["median"], sides["change"]["median"]
    settled = (sides["base"]["iqr"] <= bound * abs(b)
               or min(sign * v for v in change) > max(sign * v for v in base))
    return {
        **sides,
        "ratio": ratio_interval(base, change),
        "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
        "sign_p": sign_test_p(wins, losses),
        "gain": (wins >= GAIN_WINS * len(base)
                 and sign * (c - b) > sides["base"]["iqr"]),
        "within_bound": (sign * (c - b) >= -bound * abs(b)
                         if settled else None),
    }


def compare(pairs: list[tuple[dict, dict]], benchmark: dict) -> dict:
    """Statistics of every declared end-to-end metric over the (base,
    change) record pairs, with each pair's values and regressions."""
    runs = []
    for k, (old, new) in enumerate(pairs):
        runs.append({
            "order": list(order(k)),
            "base": {m["name"]: old["end_to_end"][m["name"]]
                     for m in benchmark["end_to_end"]},
            "change": {m["name"]: new["end_to_end"][m["name"]]
                       for m in benchmark["end_to_end"]},
            "failed": [old["result"]["failed"], new["result"]["failed"]],
            "regressions": digest_diff.regressions(old, new)})
    metrics = {
        m["name"]: {"unit": m["unit"], "better": m["better"],
                    "bound": m["bound"], **compare_metric(
                        [r["base"][m["name"]] for r in runs],
                        [r["change"][m["name"]] for r in runs],
                        m["better"], m["bound"])}
        for m in benchmark["end_to_end"]}
    return {"metrics": metrics, "pairs": runs}


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of `tree`; its result record."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "0"], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT / "AB.json")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}

    pairs, status = [], 0
    for k in range(args.pairs):
        records = {}
        try:
            for side in order(k):
                records[side] = run_tree(trees[side], args.workload,
                                         args.seed, benchmark["run_seconds"])
        except (subprocess.CalledProcessError, OSError, ValueError) as exc:
            print(f"error: pair {k}: {exc}", file=sys.stderr)
            return 2
        pairs.append((records["base"], records["change"]))
        lines = digest_diff.regressions(*pairs[-1])
        status = status or bool(lines)
        print(f"pair {k} ({' then '.join(order(k))}): " + ", ".join(
            f"{name} {records['base']['end_to_end'][name]:.4g} -> "
            f"{records['change']['end_to_end'][name]:.4g}"
            for name in (m["name"] for m in benchmark["end_to_end"]))
              + "".join(f"\n  regression: {line}" for line in lines),
              flush=True)

    result = {
        "base": str(args.base), "change": str(args.change),
        "workload": args.workload, "seed": args.seed,
        "seconds": benchmark["run_seconds"],
        "environment": {k: pairs[0][0]["environment"].get(k) for k in ENV},
        "src_sha256": {side: rec["environment"].get("src_sha256")
                       for side, rec in zip(("base", "change"), pairs[0])},
        **compare(pairs, benchmark)}
    for name, m in result["metrics"].items():
        bound = "unresolved" if m["within_bound"] is None else m["within_bound"]
        print(f"{name}: {m['base']['median']:.4g} -> "
              f"{m['change']['median']:.4g} {m['unit']} (ratio "
              f"{m['ratio']['median']:.4f}, 95 % {m['ratio']['ci95'][0]:.4f}"
              f"-{m['ratio']['ci95'][1]:.4f}; base IQR {m['base']['iqr']:.4g};"
              f" wins {m['wins']}/{args.pairs}, p {m['sign_p']:.3g}; gain "
              f"{m['gain']}, within bound {bound})")
    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    out[f"{args.workload}/seed{args.seed}"] = result
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
