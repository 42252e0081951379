"""Deterministic study artifacts.

Floats are written with their shortest round-trip representation, columns
have a fixed order, line endings are LF and no timestamps appear anywhere,
so repeated runs of the same study produce byte-identical files.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .powerflow import DcBalanceSolution, PowerflowSolution
from .protection import SelectivityReport, TripEvent
from .sc_ac import FaultSummary
from .sc_dc import DcFaultSummary, DcScTrace
from .tdsim import CctResult, TimeSeries


_BLOCK_CELLS = 1024   # cells per block: larger blocks measured higher peak RSS


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def format_column(values) -> list[str]:
    """Each cell as `fmt` writes it; a float array skips its per-cell checks,
    and one whose elements all share a bit pattern is formatted once."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        if len(values) > 1 and values.itemsize <= 8:
            # bits, not values: 0.0 == -0.0 and nan != nan, but repr tells
            # the zeros apart and writes every nan alike
            bits = values.view(f"u{values.itemsize}")
            if bits[-1] == bits[0] and (bits == bits[0]).all():
                return [repr(values[0].item())] * len(values)
        return list(map(repr, values.tolist()))
    return list(map(fmt, values))


def _csv(header: list[str], columns: list) -> str:
    """CSV of columns given as arrays, formatted about `_BLOCK_CELLS` cells
    at a time, or as cells already formatted by `format_column`."""
    lines = [",".join(header)]
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))
    for i in range(0, max(map(len, columns), default=0), step):
        block = [format_column(c[i:i + step]) if isinstance(c, np.ndarray)
                 else c[i:i + step] for c in columns]
        lines.append("\n".join(map(",".join, zip(*block, strict=True))))
    return "\n".join(lines) + "\n"


def render_csv(header: list[str], rows: list[tuple]) -> str:
    return _csv(header, [format_column(c) for c in zip(*rows)])


def render_table(header: list[str], rows: list[tuple]) -> str:
    columns = [format_column(c) for c in zip(header, *rows)]
    widths = [max(map(len, c)) for c in columns]
    lines = ("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip()
             for r in zip(*columns))
    return "\n".join(lines) + "\n"


def write_artifact(out_dir: str, name: str, content: str) -> str:
    """Write to a temp file and rename, so artifacts are never partial."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.tmp")
    with open(tmp, "w", newline="\n") as fh:
        fh.write(content)
    os.replace(tmp, path)
    return path


def safe_name(element_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", element_id)


# ---- per-study tables -------------------------------------------------------


def powerflow_rows(sol: PowerflowSolution) -> tuple[list[str], list[tuple]]:
    header = ["bus_id", "v_pu", "angle_rad", "p_kw", "q_kvar"]
    rows = [(b, sol.v_pu[b], sol.angle_rad[b], sol.bus_p_kw[b], sol.bus_q_kvar[b])
            for b in sorted(sol.v_pu)]
    return header, rows


def dc_balance_rows(bal: DcBalanceSolution) -> tuple[list[str], list[tuple]]:
    header = ["element", "kind", "p_kw"]
    rows = [(k, "transfer", v) for k, v in sorted(bal.transfers_kw.items())]
    rows += [(k, "source", v) for k, v in sorted(bal.source_output_kw.items())]
    rows += [(k, "load", v) for k, v in sorted(bal.loads_kw.items())]
    rows += [("(losses)", "loss", bal.losses_kw),
             ("(residual)", "residual", bal.residual_kw)]
    return header, rows


def ac_summary_rows(summary: FaultSummary) -> tuple[list[str], list[tuple]]:
    header = ["contributor", "ikd_st_a", "ikd_t_a", "ikd_a",
              "iac_half_a", "idc_half_a", "ip_a"]
    rows = []
    for cid in sorted(summary.traces):
        tr = summary.traces[cid]
        rows.append((cid, tr.i_kd_st, tr.i_kd_t, tr.i_kd,
                     tr.iac_half, tr.idc_half,
                     2.0 ** 0.5 * tr.iac_half + tr.idc_half))
    rows.append(("TOTAL", "", "", "", summary.iac_half_cycle,
                 summary.idc_half_cycle, summary.ip))
    return header, rows


def ac_trace_csv(trace, t_cells: list[str] | None = None) -> str:
    """`t_cells`: `format_column(trace.t)` when traces share one time grid."""
    return _csv(["t_s", "iac_a", "idc_a", "envelope_a"],
                [trace.t if t_cells is None else t_cells,
                 trace.iac, trace.idc, trace.envelope])


def dc_summary_rows(summary: DcFaultSummary) -> tuple[list[str], list[tuple]]:
    header = ["contributor", "regime", "peak_a", "tp_s", "sustained_a"]
    rows = []
    for cid in sorted(summary.traces):
        tr = summary.traces[cid]
        rows.append((cid, tr.regime, tr.peak_current, tr.time_to_peak,
                     tr.sustained))
    t = summary.total
    rows.append(("TOTAL", t.regime, t.peak_current, t.time_to_peak, t.sustained))
    return header, rows


def dc_trace_csv(trace: DcScTrace, total: bool = False,
                 t_cells: list[str] | None = None) -> str:
    return _csv(["t_s", "i_total_a" if total else "i_a"],
                [trace.t if t_cells is None else t_cells, trace.i])


def timeseries_csv(ts: TimeSeries) -> str:
    names = sorted(ts.channels)
    return _csv(["t_s"] + names, [ts.t] + [ts.channels[n] for n in names])


def trip_rows(events: list[TripEvent]) -> tuple[list[str], list[tuple]]:
    header = ["breaker_id", "t_trip_s", "cause", "locked"]
    rows = [(e.breaker_id, e.time_s, e.cause, e.locked) for e in events]
    return header, rows


def selectivity_text(rep: SelectivityReport) -> str:
    lines = [
        f"selective = {fmt(rep.selective)}",
        f"cleared_within_cct = {fmt(rep.cleared_within_cct)}",
        f"first_trip_s = {fmt(rep.first_trip_s)}",
        f"cct_margin_s = {fmt(rep.cct_margin_s)}",
    ]
    if rep.coordination_margin_s is not None:
        lines.append(f"coordination_margin_s = {fmt(rep.coordination_margin_s)}")
    return "\n".join(lines) + "\n"


def fuse_rows(results: list[tuple[str, float, float | None]]
              ) -> tuple[list[str], list[tuple]]:
    header = ["fuse_id", "i2t_rating", "t_clear_s"]
    rows = [(fid, rating, "NOT_CLEARED" if t is None else t)
            for fid, rating, t in results]
    return header, rows


def cct_rows(result: CctResult) -> tuple[list[str], list[tuple]]:
    header = ["t_clear_s", "stable"]
    rows = [(t, ok) for t, ok in result.transcript]
    return header, rows
