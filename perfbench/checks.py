"""Output checks that read a study's artifacts, never engine internals.

Each check raises `CheckError` with a reason; the benchmark counts the study
as failed.  Tolerances are fixed here, before any run: identities the
engines compute in closed form must hold to floating-point rounding.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

ROUNDING = 1e-12        # relative, for identities evaluated in closed form
SUM_ROUNDING = 1e-9     # relative, for sums whose order differs
BALANCE_KW = 1e-3       # per-step tdsim power balance
EQUAL_AREA_S = 2e-3     # SMIB bus-fault CCT against the closed form


class CheckError(Exception):
    pass


def digest(out_dir: str) -> str:
    """SHA-256 over the study's artifact names and bytes, in name order."""
    h = hashlib.sha256()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                h.update(name.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _text_columns(header: str):
    """Cell splitter for `--format text` tables: columns are left-aligned
    at the offsets of the header words, and empty cells are blank."""
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    bounds = list(zip(starts, starts[1:] + [None]))
    return lambda line: [line[a:b].strip() for a, b in bounds]


def _table(out_dir: str, stem: str) -> list[dict]:
    """Rows of `<stem>.csv` or of the text-format `<stem>.txt`."""
    for ext in (".csv", ".txt"):
        path = os.path.join(out_dir, stem + ext)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = fh.read().splitlines()
        if ext == ".csv":
            split = lambda line: line.split(",")
        else:
            split = _text_columns(lines[0])
        header = split(lines[0])
        rows = []
        for line in lines[1:]:
            cells = split(line)
            if len(cells) != len(header):
                raise CheckError(f"{stem}{ext}: ragged row {line!r}")
            rows.append(dict(zip(header, cells)))
        if not rows:
            raise CheckError(f"{stem}{ext}: no rows")
        return rows
    raise CheckError(f"{stem}.csv/.txt missing")


def _finite(value: str, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CheckError(f"{what} not finite: {value}")
    return x


def _close(a: float, b: float, rel: float, what: str) -> None:
    if abs(a - b) > rel * max(abs(a), abs(b), 1e-300):
        raise CheckError(f"{what}: {a!r} != {b!r}")


def check_powerflow(out_dir: str, stdout: str, expect: dict) -> None:
    for row in _table(out_dir, "buses"):
        for col in ("v_pu", "angle_rad", "p_kw", "q_kvar"):
            _finite(row[col], f"buses {row['bus_id']} {col}")


def check_sc_ac(out_dir: str, stdout: str, expect: dict) -> None:
    rows = _table(out_dir, "summary")
    parts = [r for r in rows if r["contributor"] != "TOTAL"]
    total = next(r for r in rows if r["contributor"] == "TOTAL")
    for r in rows:
        iac, idc, ip = (_finite(r[c], f"{r['contributor']} {c}")
                        for c in ("iac_half_a", "idc_half_a", "ip_a"))
        _close(ip, math.sqrt(2.0) * iac + idc, ROUNDING,
               f"{r['contributor']} ip = sqrt2*iac_half + idc_half")
    for col in ("iac_half_a", "idc_half_a"):
        _close(float(total[col]), math.fsum(float(r[col]) for r in parts),
               SUM_ROUNDING, f"TOTAL {col} = sum of contributors")
    traces = [n for n in os.listdir(out_dir) if n.startswith("trace_")]
    if os.path.exists(os.path.join(out_dir, "summary.csv")) \
            and len(traces) != len(parts):
        raise CheckError(f"{len(traces)} trace files for {len(parts)} "
                         "contributors")


def check_sc_dc(out_dir: str, stdout: str, expect: dict) -> None:
    rows = _table(out_dir, "summary")
    parts = [r for r in rows if r["contributor"] != "TOTAL"]
    total = next(r for r in rows if r["contributor"] == "TOTAL")
    _close(_finite(total["sustained_a"], "TOTAL sustained"),
           math.fsum(_finite(r["sustained_a"], r["contributor"])
                     for r in parts),
           SUM_ROUNDING, "TOTAL sustained = sum of contributors")


def check_protect(out_dir: str, stdout: str, expect: dict) -> None:
    trips = _table(out_dir, "trips")
    times = [_finite(r["t_trip_s"], r["breaker_id"]) for r in trips]
    if times != sorted(times):
        raise CheckError("trips not sorted by time")
    with open(os.path.join(out_dir, "selectivity.txt")) as fh:
        sel = dict(line.split(" = ") for line in fh.read().splitlines())
    locked = [r["locked"] == "true" for r in trips]
    intended = [t for t, lk in zip(times, locked) if not lk]
    backups = [t for t, lk in zip(times, locked) if lk]
    if not intended:
        selective = False
    elif backups:
        selective = max(intended) < min(backups)
    else:
        selective = len(intended) == 1
    first = min(times)
    budget = expect["cct_budget_s"]
    want = {"selective": "true" if selective else "false",
            "cleared_within_cct": "true" if first <= budget else "false",
            "first_trip_s": repr(first)}
    for key, value in want.items():
        if sel.get(key) != value:
            raise CheckError(f"selectivity.txt {key} = {sel.get(key)}, "
                             f"trips.csv gives {value}")
    _close(float(sel["cct_margin_s"]), budget - first, ROUNDING,
           "cct_margin_s")
    if backups and intended:
        _close(float(sel["coordination_margin_s"]),
               min(backups) - max(intended), ROUNDING, "coordination_margin_s")


def check_tdsim(out_dir: str, stdout: str, expect: dict) -> None:
    with open(os.path.join(out_dir, "timeseries.csv")) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cols = {name: k for k, name in enumerate(header)}
    ids = {n.rsplit(".", 1)[0] for n in header if "." in n}
    machines = {i for i in ids if f"{i}.delta_rad" in cols}
    inverters = {i for i in ids - machines if f"{i}.q_kvar" in cols}
    loads = {i for i in ids - machines - inverters
             if f"{i}.p_kw" in cols and i != "sys"}
    plus = [cols[f"{i}.p_kw"] for i in sorted(machines | inverters)]
    minus = [cols[f"{i}.p_kw"] for i in sorted(loads)]
    minus.append(cols["sys.p_loss_kw"])
    worst = 0.0
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        if not all(math.isfinite(v) for v in vals):
            raise CheckError(f"non-finite channel at t = {vals[0]}")
        resid = math.fsum(vals[k] for k in plus) - math.fsum(
            vals[k] for k in minus)
        worst = max(worst, abs(resid))
    if worst > BALANCE_KW:
        raise CheckError(f"power balance residual {worst:.3g} kW")


def check_cct(out_dir: str, stdout: str, expect: dict) -> None:
    rows = _table(out_dir, "cct")
    stable = [float(r["t_clear_s"]) for r in rows if r["stable"] == "true"]
    unstable = [float(r["t_clear_s"]) for r in rows if r["stable"] == "false"]
    if not stable or not unstable or max(stable) >= min(unstable):
        raise CheckError("cct transcript not monotone")
    lo, hi = max(stable), min(unstable)
    if hi - lo > expect["tol_s"] + 1e-15:
        raise CheckError(f"final interval {hi - lo} > tol {expect['tol_s']}")
    line = next(x for x in stdout.splitlines() if x.startswith("cct_s = "))
    if float(line.split("=")[1]) != lo:
        raise CheckError(f"printed {line!r}, transcript gives {lo!r}")
    oracle = expect.get("equal_area_s")
    if oracle is not None and abs(lo - oracle) > EQUAL_AREA_S:
        raise CheckError(f"cct {lo:.4f} s vs equal-area {oracle:.4f} s")


def check_i2t(out_dir: str, stdout: str, expect: dict) -> None:
    """The clearing time lands where the trace's let-through reaches the
    rating (trapezoidal I^2t, linear between samples)."""
    rating = expect["rating"]
    row = _table(out_dir, "i2t")[0]
    t, i = [], []
    with open(expect["trace"]) as fh:
        next(fh)
        for line in fh:
            a, b = line.split(",")[:2]
            t.append(float(a))
            i.append(float(b))
    energy, cleared = 0.0, None
    for k in range(1, len(t)):
        step = 0.5 * (i[k] ** 2 + i[k - 1] ** 2) * (t[k] - t[k - 1])
        if energy + step >= rating:
            cleared = t[k - 1] + (rating - energy) / step * (t[k] - t[k - 1])
            break
        energy += step
    if cleared is None:
        if row["t_clear_s"] != "NOT_CLEARED":
            raise CheckError(f"t_clear {row['t_clear_s']} but let-through "
                             f"{energy:.1f} < rating {rating}")
    else:
        _close(float(row["t_clear_s"]), cleared, 1e-6, "t_clear_s")


CHECKS = {
    "powerflow": check_powerflow,
    "sc_ac": check_sc_ac,
    "sc_dc": check_sc_dc,
    "protect": check_protect,
    "tdsim": check_tdsim,
    "cct": check_cct,
    "i2t": check_i2t,
}
