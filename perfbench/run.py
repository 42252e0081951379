"""vesselstudy benchmark: seeded CLI studies in a closed loop.

    python3 perfbench/run.py --workload screening --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One client calls
``vesselstudy.cli.main(argv)`` in this process and starts the next study
only when the previous one has returned.  The program under test receives
only generated grid and study files plus argv.

A run makes a fixed number of rounds of the workload's studies, set by
``--seconds`` and the round's time on the reference host, so a seed always
gives the same studies and the same verdicts.  Time metrics are calibrated
to a reference host speed measured while the studies run (``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then replays its first half with spans installed around
calls into each module's public functions and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is the JSON
result; a full record (environment, failures by scenario, tail latency,
artifact digests) goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import os

# one thread of BLAS/OpenMP work, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5      # spread over the run: before, during and after
SETUP_SLICES = 100     # host-speed slices timed after each set-up
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
DEFECT_RE = re.compile(r"network fixed point not converged at t=([0-9.]+) s")
MODULES = ("cli", "gridfile", "grid", "fixtures", "powerflow", "sc_ac",
           "sc_dc", "protection", "tdsim", "report")

# per-layer times in ms per study: (metric, span name, self time?)
LAYER_TIMES = (
    ("cli.main.self_ms", "cli.main", True),
    ("gridfile.parse_grid.ms", "gridfile.parse_grid", False),
    ("gridfile.read_sections.ms", "gridfile.read_sections", False),
    ("grid.validate.ms", "grid.validate", False),
    ("powerflow.solve_ac_powerflow.ms", "powerflow.solve_ac_powerflow", False),
    ("powerflow.solve_dc_balance.ms", "powerflow.solve_dc_balance", False),
    ("sc_ac.fault_summary.ms", "sc_ac.fault_summary", False),
    ("sc_dc.dc_fault_summary.ms", "sc_dc.dc_fault_summary", False),
    ("protection.build_breaker_graph.ms", "protection.build_breaker_graph",
     False),
    ("protection.sequence_of_operations.ms",
     "protection.sequence_of_operations", False),
    ("protection.fuse_i2t_clearing.ms", "protection.fuse_i2t_clearing",
     False),
    ("report.render.ms", "report.render", False),
    ("report.write_artifact.ms", "report.write_artifact", False),
    ("tdsim.simulate.self_ms", "tdsim.simulate", True),
    ("tdsim.find_cct.self_ms", "tdsim.find_cct", True),
)
# per-layer counts per study: calls of a span name, then counters
LAYER_CALLS = (
    ("grid.with_breaker_states.calls", "grid.with_breaker_states"),
    ("powerflow.solve_ac_powerflow.calls", "powerflow.solve_ac_powerflow"),
    ("powerflow.build_ac_networks.calls", "powerflow.build_ac_networks"),
)
LAYER_COUNTERS = (
    ("powerflow.nr_iterations", "count"),
    ("sc_ac.contributors", "count"),
    ("sc_ac.samples", "count"),
    ("sc_dc.samples", "count"),
    ("protection.trip_events", "count"),
    ("report.bytes", "B"),
    ("tdsim.steps", "count"),
    ("tdsim.cct_probes", "count"),
    ("tdsim.probe_steps", "count"),
)

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vesselstudy, vesselstudy.cli
for path in sys.argv[4:]:
    with open(path) as fh:
        grid = vesselstudy.parse_grid(fh.read())
    if not vesselstudy.validate(grid).ok():
        sys.exit(f"{path}: grid fails validation")
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import hostspeed
print(t1 - t0, hostspeed.mean_slice_ns(int(sys.argv[3])))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    if not (SRC / "vesselstudy" / "__init__.py").is_file():
        raise BenchError(f"no vesselstudy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vesselstudy
    import vesselstudy.cli

    if Path(vesselstudy.__file__).resolve().parent != SRC / "vesselstudy":
        raise BenchError(f"imported {vesselstudy.__file__}, not {SRC}")
    return vesselstudy, {m: sys.modules[f"vesselstudy.{m}"] for m in MODULES}


def measure_setup(grids: list[str]) -> tuple[float, float]:
    """A fresh interpreter importing vesselstudy and loading the grids.

    Returns the wall time in s and the calibrated time: the interpreter
    times host-speed slices right after the set-up.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE),
         str(SETUP_SLICES), *grids],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    wall, slice_ns = map(float, proc.stdout.split()[-2:])
    return wall, wall * hostspeed.NOMINAL_SLICE_NS / slice_ns


def is_known_defect(study, rc, msg: str) -> bool:
    """The listed tdsim defect: exit 3, the network fixed point failing to
    converge at a time inside the study's fault window (one step of
    slack for the event grid).  The same error anywhere else is not
    excused."""
    if study.check != "tdsim" or rc != 3:
        return False
    m = DEFECT_RE.search(msg)
    if m is None:
        return False
    t = float(m.group(1))
    slack = workloads.TRANSIENT_STEP_S
    return (study.expect["t_fault"] - slack <= t
            <= study.expect["t_clear"] + slack)


# ---- the closed loop -----------------------------------------------------------


class Runner:
    def __init__(self, cli, plan, writer, host, tracer=None):
        self.cli = cli
        self.plan = plan
        self.writer = writer
        self.host = host
        self.tracer = tracer
        self.read_later = {s.reads for s in plan if s.reads}

    def run_one(self, study) -> dict:
        out = self.writer.out(study.sid)
        shutil.rmtree(out, ignore_errors=True)
        argv = study.argv + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        self.host.begin()
        t0 = hostspeed.clock_ns()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except Exception:       # an engine bug must not stop the loop
            rc, error = None, traceback.format_exc(limit=3)
        t1 = hostspeed.clock_ns()
        self.host.end()
        if self.tracer is not None:
            self.tracer.finish_study()
        # wall time without the host-speed slices; calibrated later
        rec = {"sid": study.sid, "scenario": study.scenario,
               "ms": (t1 - t0) / 1e6, "rc": rc, "ok": False,
               "known_defect": False}
        if rc == 0:
            try:
                checks.CHECKS[study.check](out, stdout.getvalue(),
                                           study.expect)
                rec["ok"] = True
            except (checks.CheckError, OSError, ValueError, KeyError,
                    StopIteration) as exc:
                rec["reason"] = f"check {study.check}: {exc!r}"
            rec["digest"] = checks.digest(out)
        else:
            msg = (error or stderr.getvalue()).strip()
            rec["reason"] = f"exit {rc}: {msg[-300:]}"
            rec["known_defect"] = is_known_defect(study, rc, msg)
        if study.sid not in self.read_later:
            shutil.rmtree(out, ignore_errors=True)
        if study.reads:
            shutil.rmtree(self.writer.out(study.reads), ignore_errors=True)
        return rec

    def loop(self, studies, between=None) -> list[dict]:
        """Run `studies` in order; `between(k)` runs before study k,
        outside its timing."""
        recs = []
        for k, study in enumerate(studies):
            if between is not None:
                between(k)
            if self.tracer is not None:
                self.tracer.study = k
            recs.append(self.run_one(study))
        return recs


def trace_replay(cli, modules, wl, writer, host, recs: list[dict]):
    """Replay the first half of the loop, in whole rounds, with spans."""
    n = max(1, len(recs) // 2 // wl.round_size) * wl.round_size
    tr = tracing.Tracer()
    host.per_study.clear()
    runner = Runner(cli, wl.plan, writer, host, tr)
    tr.install(modules)
    try:
        traced = runner.loop(wl.plan[:n])
    finally:
        tr.uninstall()
    return tr, traced, calibrate(traced, host)


def repeated_identical(runner: Runner, plan, warm: list[dict],
                       recs: list[dict]) -> bool:
    """A study run twice must write byte-identical artifacts.

    Compares a warm-up study with its timed run, else runs the quickest
    completed study again.
    """
    timed = {r["sid"]: r for r in recs}
    for r in warm:
        if r["ok"] and timed[r["sid"]]["ok"]:
            return r["digest"] == timed[r["sid"]]["digest"]
    done = [r for r in recs if r["ok"]]
    if not done:
        return False
    quick = min(done, key=lambda r: r["ms"])
    again = runner.run_one(next(s for s in plan if s.sid == quick["sid"]))
    return again.get("digest") == quick["digest"]


# ---- metrics -------------------------------------------------------------------


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def latency_summary(recs: list[dict]) -> dict:
    """p50 of the completed studies' calibrated times; for the tail, a
    failed study counts as missing every latency limit (+inf)."""
    done = [r["cal_ms"] for r in recs if r["ok"]]
    lat = sorted(r["cal_ms"] if r["ok"] else math.inf for r in recs)
    n = len(lat)
    out = {"study_ms.p50": statistics.median(done) if done else math.nan,
           "samples": n, "completed": len(done)}
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            value = percentile(lat, p)
            out["study_ms.tail"] = {
                "percentile": p,
                "value": value if math.isfinite(value) else None,
                "samples_beyond": n - math.ceil(p / 100.0 * n)}
            break
    return out


def calibrate(recs: list[dict], host: hostspeed.HostSpeed) -> float:
    """Add each study's calibrated time; returns calibrated / wall."""
    for r, f in zip(recs, host.factors()):
        r["cal_ms"] = r["ms"] * f
    return sum(r["cal_ms"] for r in recs) / sum(r["ms"] for r in recs)


def end_to_end(recs: list[dict], setup: list[float]) -> dict:
    """The end-to-end metrics, from calibrated times."""
    busy_s = sum(r["cal_ms"] for r in recs) / 1e3
    ok = sum(r["ok"] for r in recs)
    lat = latency_summary(recs)
    return {
        "setup_s": statistics.median(setup),
        "studies_per_s": ok / busy_s,
        "study_ms.p50": lat["study_ms.p50"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "study_ms.tail": lat.get("study_ms.tail"),
        "error_rate": (len(recs) - ok) / len(recs),
    }


E2E_UNITS = {"setup_s": "s", "studies_per_s": "1/s", "study_ms.p50": "ms",
             "peak_rss_mb": "MB"}


def _ratio(num: float, den: float) -> float:
    """A ratio whose base a workload never produces (a layer it never
    calls) reads 0, like every other metric of that layer."""
    return num / den if den else 0.0


def per_layer(tr: tracing.Tracer, recs: list[dict], factor: float,
              untraced_p50: float) -> dict:
    """Per-study layer metrics of the traced replay; times are calibrated
    by the replay's host-speed `factor`, and `untraced_p50` is the
    calibrated p50 of the same studies without spans."""
    n = len(recs)
    m = {}
    for metric, span, self_time in LAYER_TIMES:
        m[metric] = (tr.covered_ns(span, self_time) * factor / n / 1e6, "ms")
    for metric, span in LAYER_CALLS:
        m[metric] = (tr.count(span) / n, "count")
    for metric, unit in LAYER_COUNTERS:
        m[metric] = (tr.counters.get(metric, 0) / n, unit)
    m["tdsim.rebuilds"] = (tr.rebuilds() / n, "count")
    report_ns = (tr.covered_ns("report.render")
                 + tr.covered_ns("report.write_artifact"))
    m["report.mb_per_s"] = (_ratio(tr.counters.get("report.bytes", 0) / 1e6,
                                   report_ns * factor / 1e9), "MB/s")
    # steps are counted from returned time series, so simulations that
    # raised are left out of the time too
    m["tdsim.ms_per_step"] = (
        _ratio(tr.covered_ns("tdsim.simulate", True, completed=True)
               * factor / 1e6, tr.counters.get("tdsim.steps", 0)), "ms")
    m["tdsim.probe_useful_frac"] = (
        _ratio(tr.counters.get("tdsim.probe_useful_steps", 0),
               tr.counters.get("tdsim.probe_steps", 0)), "frac")
    traced = latency_summary(recs)["study_ms.p50"]
    m["trace.overhead_ms"] = (traced - untraced_p50, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced / untraced_p50 - 1), "%")
    m["trace.spans"] = (len(tr.names) / n, "count")
    return m


# ---- environment ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vesselstudy").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(vs, args, rounds: int, plan_size: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vesselstudy": vs.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "plan_studies": plan_size,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


# ---- main ----------------------------------------------------------------------


def run(args) -> dict:
    vs, modules = import_program()
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    writer = workloads.Writer(vs, str(work / "inputs"), str(work / "out"))
    rng = random.Random(f"{args.workload}/{args.seed}")
    # as many rounds as fill --seconds on the reference host; never
    # decided by the clock, so a seed always runs the same studies
    rounds = max(1, round(args.seconds / workloads.ROUND_S[args.workload]))
    wl = workloads.BUILDERS[args.workload](vs, rng, writer, rounds)
    count = len(wl.plan)
    # set-up is sampled across the run, so it sees the same host as the loop
    setup = [measure_setup(wl.grids)]
    marks = [count * k // (SETUP_SAMPLES - 1)
             for k in range(1, SETUP_SAMPLES - 1)]

    def sample_setup(k: int) -> None:
        if marks and k >= marks[0]:
            marks.pop(0)
            setup.append(measure_setup(wl.grids))

    cli = modules["cli"]
    host = hostspeed.HostSpeed()
    try:
        runner = Runner(cli, wl.plan, writer, host)
        warm = runner.loop(wl.plan[:wl.warmup])
        host.per_study.clear()
        recs = runner.loop(wl.plan, between=sample_setup)
        factor = calibrate(recs, host)
        slices = host.slices()
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(wl.grids))
        e2e = end_to_end(recs, [cal for _, cal in setup])
        repeat_ok = repeated_identical(runner, wl.plan, warm, recs)
        if args.trace:
            traced_part = trace_replay(cli, modules, wl, writer, host, recs)
    finally:
        host.close()

    record = {"environment": environment(vs, args, rounds, len(wl.plan)),
              "grid_sizes": writer.grid_sizes,
              "setup_runs_s": [wall for wall, _ in setup],
              "end_to_end": e2e,
              "host_speed": {"factor": factor, "slices": slices},
              "repeat_identical": repeat_ok}
    unexplained = [r for r in recs if not r["ok"] and not r["known_defect"]]
    correct = repeat_ok and not unexplained

    if args.trace:
        tr, traced, traced_factor = traced_part
        n = len(traced)
        mismatched = [a["sid"] for a, b in zip(recs, traced)
                      if (a["rc"], a.get("digest")) != (b["rc"], b.get("digest"))]
        correct = correct and not mismatched
        layers = per_layer(tr, traced, traced_factor,
                           latency_summary(recs[:n])["study_ms.p50"])
        record["host_speed"]["traced_factor"] = traced_factor
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        record["traced_digest_mismatches"] = mismatched
        metrics = record["per_layer"]
        spans_path = work.parent / "results" / f"{work.name}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tr.write(str(spans_path))
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    record["studies"] = recs
    record["failures_by_scenario"] = {}
    for r in recs:
        if not r["ok"]:
            record["failures_by_scenario"].setdefault(r["scenario"], []).append(
                r["reason"])
    result = {"correct": bool(correct), "attempted": len(recs),
              "failed": sum(not r["ok"] for r in recs), "metrics": metrics}
    record["result"] = result
    results = work.parent / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return record


def report(record: dict) -> None:
    env = record["environment"]
    e2e = record["end_to_end"]
    print(f"workload {env['workload']} seed {env['seed']}: "
          f"{env['rounds']} rounds, {record['result']['attempted']} studies, "
          f"python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu']}, "
          f"commit {env['git_commit'][:12]}")
    host = record["host_speed"]
    print(f"  host speed: calibrated / wall time {host['factor']:.4f} "
          f"({host['slices']} slices); times below are calibrated")
    for key, unit in E2E_UNITS.items():
        print(f"  {key} = {e2e[key]:.6g} {unit}")
    tail = e2e["study_ms.tail"]
    if tail is None:
        print("  study_ms.tail omitted (fewer than 10 studies beyond p75)")
    else:
        value = ("a failed study" if tail["value"] is None
                 else f"{tail['value']:.6g} ms")
        print(f"  study_ms.tail = {value} at p{tail['percentile']:g} "
              f"({tail['samples_beyond']} of {record['result']['attempted']} "
              "studies beyond)")
    print(f"  error_rate = {e2e['error_rate']:.6g} "
          f"({record['result']['failed']} of {record['result']['attempted']})")
    for scenario, reasons in record["failures_by_scenario"].items():
        print(f"  failed x{len(reasons)}: {scenario}: {reasons[0][:120]}")
    print(f"  repeated study byte-identical: {record['repeat_identical']}")
    if "per_layer" in record:
        for key, m in record["per_layer"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(f"  traced artifacts differing from untraced: "
              f"{record['traced_digest_mismatches'] or 'none'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
