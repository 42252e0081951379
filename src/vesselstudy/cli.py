"""The `vessel-study` command line.

    vessel-study <kind> --grid <path|builtin:name> [--study <path>]
                 [--bus <id>] --out <dir> [--format csv|text]
    vessel-study tdsim --grid <path|builtin:name> [--study <path>] --out <dir>
    vessel-study protect --grid <path|builtin:name> [--study <path>] --out <dir>
                 [--format csv|text] [--strict]
    vessel-study i2t --trace <csv> --fuse-i2t <A^2 s>
                 [--out <dir> [--format csv|text]] [--strict]

Study kinds: powerflow, sc-ac, sc-dc, tdsim, cct, protect, i2t; `--bus` is
the fault bus of sc-ac and sc-dc.  Every kind but tdsim, whose
timeseries.csv has no text form, takes `--format` (i2t only with `--out`,
the artifact it formats); only protect and i2t, the kinds with a verdict
to fail, take `--strict`; a kind refuses a flag it does not take (exit 2).  The CLI is a thin shell over the library: it
loads the grid and study files (a grid file is read on every call, and each
distinct text parsed once per process), applies the study's breaker states,
validates that topology, calls the corresponding engine and writes the
artifacts.  A study file holds only sections its kind reads (`_RUNNERS`);
only `[event <id>]` and `[controller <id>]` take ids, and appear any number
of times; any other section appears at most once.  Each keyed section is
read into its spec by a `gridfile.Table`, so its own defects are refused
as the study is read, before the grid's.
Exit codes: 0 success, 2 input error, 3 numerical failure, 4 negative study
result under ``--strict``.  A `NumericalError` is 3, an `InputError` or an
unreadable file 2; any other exception is a bug, shown with its traceback
(exit 1).  The engines, not the CLI, check the ids a study names.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import fixtures, report
from .grid import GridModel, InputError, NumericalError, validate
from .gridfile import (GridParseError, Key, Table, boolean, build,
                       check_declared, convert, integer, parse_grid,
                       read_sections)
from .powerflow import SteadyState, solve_ac_powerflow, solve_dc_balance
from .protection import (fuse_i2t_clearing, selectivity_check,
                         sequence_of_operations)
from .sc_ac import fault_summary
from .sc_dc import DcScTrace, dc_fault_summary
from .tdsim import (
    FIELD_KEYS,
    CctFaultSpec,
    ControllerConfig,
    Event,
    EventSchedule,
    SimConfig,
    find_cct,
    simulate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_STRICT = 4


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise InputError("not on or off")
    return text == "on"


def _id_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _table(cls, **converters) -> Table:
    """The table of a section that builds `cls`: each study-file key, with
    its converter, fills its own field or the one `FIELD_KEYS` maps to it."""
    field_of = {key: name for name, key in FIELD_KEYS.items()}
    return Table(cls, [Key(key, field_of.get(key, key), conv)
                       for key, conv in converters.items()])


@dataclass(frozen=True)
class _Protect:
    """A `[protect]` section: the fault, at an element's terminal or on a
    bus, and how the protection answers it."""

    fault_element: str | None = None
    fault_bus: str | None = None
    failed_breakers: tuple[str, ...] = ()
    zsi: bool = True
    cct_budget_s: float = 0.542

    def __post_init__(self):
        if (self.fault_element is None) == (self.fault_bus is None):
            raise InputError(
                "[protect] needs exactly one of fault_element and fault_bus")


# each study section kind: a keyed section's table, which builds its spec
# (a missing key takes the field's default), or an id-keyed section's value
# converter (breaker -> true/false, generator -> kW, load -> scale factor),
# whose ids the engines check against the grid
_STUDY_SECTIONS = {
    "breakers": boolean, "dispatch": float, "load_scale": float,
    "sim": _table(SimConfig, step_s=float, end_s=float),
    "cct": _table(CctFaultSpec, machine=str, loading=float, location=float,
                  branch=str, t_lo_s=float, t_hi_s=float, tol_s=float,
                  step_s=float, window_s=float, governor=_on_off, avr=_on_off),
    "protect": _table(_Protect, fault_element=str, fault_bus=str,
                      failed_breakers=_id_list, zsi=boolean,
                      cct_budget_s=float),
    "powerflow": _table(SteadyState, slack=str, tol=float, max_iter=integer),
    "event": _table(Event, time_s=float, action=str, target=str, scale=float,
                    ramp_s=float, location=float),
    "controller": _table(ControllerConfig, mode=str, inverter=str,
                         watched=_id_list, p_threshold_kw=float,
                         q_threshold_kvar=float, p_rating_kw=float,
                         q_rating_kvar=float, dp_delay_s=float)}
# the kinds that take an id and may appear any number of times; every other
# kind takes none and may appear once
_WITH_ID = ("event", "controller")


class _Study:
    """Parsed study file: {section kind: {id: its spec, or its {id: typed
    value} map}}, of the kinds the study kind reads (`_RUNNERS`); any other
    section, and a section its spec refuses, is an input error."""

    def __init__(self, text: str, study_kind: str):
        reads = _RUNNERS[study_kind][1]
        self.sections: dict[str, dict] = {}
        for kind, sid, line, keys in read_sections(text):
            where = f"[{kind} {sid}]" if sid else f"[{kind}]"
            table = _STUDY_SECTIONS.get(kind)
            if table is None:
                raise GridParseError(
                    f"unknown study section kind {kind!r}", line)
            if kind not in reads:
                raise GridParseError(
                    f"{where} is not read by a {study_kind} study", line)
            if bool(sid) != (kind in _WITH_ID):
                raise GridParseError(f"{where} needs an id" if not sid
                                     else f"{where} takes no id", line)
            if isinstance(table, Table):
                check_declared(where, line, keys, table.names)
                value = build(table, keys, where, line)
            else:
                value = {k: convert(where, line, k, v, table)
                         for k, v in keys.items()}
            if sid in self.sections.setdefault(kind, {}):
                raise GridParseError(f"{where} repeated", line)
            self.sections[kind][sid] = value

    def one(self, kind: str, required: bool = False):
        """The section of `kind`, a kind without ids, or its defaults when
        there is none and the study does not require one."""
        if "" in self.sections.get(kind, {}):
            return self.sections[kind][""]
        if required:
            raise InputError(f"{kind} study requires a [{kind}] section")
        table = _STUDY_SECTIONS[kind]
        return table.cls() if isinstance(table, Table) else {}

    def many(self, kind: str) -> dict:
        return self.sections.get(kind, {})


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc.reason}") from None


def _load_grid(spec: str) -> GridModel:
    if spec.startswith("builtin:"):
        return fixtures.builtin_fixture(spec.split(":", 1)[1])
    return _parsed(_read_text(spec))


# the model of each distinct grid text, parsed once per process and shared
# (frozen); keyed on the text, so an edited file parses afresh, and an error
# is raised on every call, never kept
@functools.lru_cache(maxsize=8)
def _parsed(text: str) -> GridModel:
    return parse_grid(text)


def _emit(args, name: str, header, rows) -> None:
    if args.format == "text":
        content = report.render_table(header, rows)
        name = name.rsplit(".", 1)[0] + ".txt"
    else:
        content = report.render_csv(header, rows)
    report.write_artifact(args.out, name, content)


def _steady_state(study: _Study) -> SteadyState:
    """The operating point of the study's [powerflow], [dispatch] and
    [load_scale] sections."""
    return replace(study.one("powerflow"), dispatch=study.one("dispatch"),
                   load_scale=study.one("load_scale"))


# ---- study runners ----------------------------------------------------------


def _run_powerflow(args, grid: GridModel, study: _Study) -> int:
    bal = draws = None
    if any(b.kind == "dc" for b in grid.buses):
        bal = solve_dc_balance(grid)
        draws = {cid: (p, 0.0) for cid, p in bal.transfers_kw.items()
                 if grid.converter(cid).kind == "charger"}
    sol = solve_ac_powerflow(grid, _steady_state(study), converter_draws=draws)
    if bal is not None:   # written once both solves have passed
        _emit(args, "dcbalance.csv", *report.dc_balance_rows(bal))
    _emit(args, "buses.csv", *report.powerflow_rows(sol))
    print(f"powerflow converged in {sol.iterations} iterations, "
          f"max mismatch {report.fmt(sol.max_mismatch)} pu, "
          f"slack {', '.join(sol.slack_elements)}")
    return EXIT_OK


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(
        (a.view(f"u{a.itemsize}") == b.view(f"u{b.itemsize}")).all())


def _write_traces(out: str, traces: dict, fields: tuple[str, ...],
                  render) -> None:
    """Write `render(trace)` to trace_<id>.csv for every contributor.

    `fields` names the arrays `render` reads from a trace; contributors
    whose `fields` are bitwise equal (twin machines) share one rendering.
    Bits, not values: 0.0 == -0.0, but the two are written differently.
    Two ids that map to one file name are an input error, raised before
    any trace is written.
    """
    owner: dict[str, str] = {}   # file name -> contributor id
    for cid in sorted(traces):
        name = f"trace_{report.safe_name(cid)}.csv"
        if name in owner:
            raise InputError(f"contributors {owner[name]!r} and {cid!r} "
                             f"would both be written to {name}")
        owner[name] = cid
    groups: list[tuple[object, list[str]]] = []   # (trace, its files)
    for name, cid in owner.items():
        tr = traces[cid]
        for rep, names in groups:
            if all(_same_bits(getattr(tr, f), getattr(rep, f))
                   for f in fields):
                names.append(name)
                break
        else:
            groups.append((tr, [name]))
    for rep, names in groups:
        text = render(rep)
        for name in names:
            report.write_artifact(out, name, text)
        del text   # released before the next group is rendered


def _run_sc_ac(args, grid: GridModel, study: _Study) -> int:
    sol = solve_ac_powerflow(grid, _steady_state(study))
    summ = fault_summary(grid, args.bus, sol)
    if args.format == "csv":
        t_cells = report.format_column(next(iter(summ.traces.values())).t)
        _write_traces(args.out, summ.traces, ("iac", "idc", "envelope"),
                      lambda tr: report.ac_trace_csv(tr, t_cells))
    _emit(args, "summary.csv", *report.ac_summary_rows(summ))
    print(f"fault at {args.bus}: Iac(T/2) = {summ.iac_half_cycle/1e3:.3f} kA, "
          f"idc(T/2) = {summ.idc_half_cycle/1e3:.3f} kA, "
          f"ip = {summ.ip/1e3:.3f} kA")
    return EXIT_OK


def _run_sc_dc(args, grid: GridModel, study: _Study) -> int:
    summ = dc_fault_summary(grid, args.bus)
    if args.format == "csv":
        t_cells = report.format_column(summ.total.t)   # shared by every trace
        _write_traces(args.out, summ.traces, ("i",),
                      lambda tr: report.dc_trace_csv(tr, t_cells=t_cells))
        report.write_artifact(args.out, "total.csv", report.dc_trace_csv(
            summ.total, total=True, t_cells=t_cells))
    _emit(args, "summary.csv", *report.dc_summary_rows(summ))
    print(f"fault at {args.bus}: sustained {summ.sustained/1e3:.3f} kA, "
          f"peak {summ.peak/1e3:.3f} kA")
    return EXIT_OK


def _run_tdsim(args, grid: GridModel, study: _Study) -> int:
    events = sorted(study.many("event").values(), key=lambda e: e.time)
    controllers = [c for _, c in sorted(study.many("controller").items())]
    ts = simulate(grid, EventSchedule(tuple(events)), controllers,
                  study.one("sim"), _steady_state(study))
    report.write_artifact(args.out, "timeseries.csv", report.timeseries_csv(ts))
    print(f"simulated {ts.t[-1]:g} s, {len(ts.channels)} channels")
    return EXIT_OK


def _run_cct(args, grid: GridModel, study: _Study) -> int:
    result = find_cct(grid, study.one("cct", required=True))
    _emit(args, "cct.csv", *report.cct_rows(result))
    print(f"cct_s = {report.fmt(result.cct)}")
    return EXIT_OK


def _run_protect(args, grid: GridModel, study: _Study) -> int:
    spec = study.one("protect", required=True)   # names exactly one
    fault_bus = spec.fault_bus or grid.element(spec.fault_element).bus
    sol = solve_ac_powerflow(grid, _steady_state(study))
    summ = fault_summary(grid, fault_bus, sol)
    events = sequence_of_operations(grid, summ, spec.fault_element,
                                    zsi_enabled=spec.zsi,
                                    failed_breakers=set(spec.failed_breakers))
    rep = selectivity_check(events, spec.cct_budget_s)
    _emit(args, "trips.csv", *report.trip_rows(events))
    report.write_artifact(args.out, "selectivity.txt",
                          report.selectivity_text(rep))
    print(f"first trip {events[0].breaker_id} at "
          f"{report.fmt(events[0].time_s)} s; selective="
          f"{report.fmt(rep.selective)} within_cct="
          f"{report.fmt(rep.cleared_within_cct)}")
    if args.strict and not (rep.selective and rep.cleared_within_cct):
        return EXIT_STRICT
    return EXIT_OK


def _read_trace_csv(path: str) -> DcScTrace:
    header, *rows = _read_text(path).splitlines() or [""]
    header = header.strip().split(",")
    if header[0] != "t_s" or len(header) < 2:
        raise InputError(f"{path}: expected a trace CSV with a t_s column")
    t, i = [], []
    for lineno, line in enumerate(rows, start=2):
        parts = line.strip().split(",")
        try:
            t.append(float(parts[0]))
            i.append(float(parts[1]))
        except (IndexError, ValueError):
            raise InputError(f"{path}: line {lineno}: expected a time and "
                             f"a current, got {line.strip()!r}") from None
    if not t:
        raise InputError(f"{path}: no rows after the header")
    t_arr, i_arr = np.asarray(t), np.asarray(i)
    bad = np.flatnonzero(~(np.isfinite(t_arr) & np.isfinite(i_arr)))
    if len(bad):
        raise InputError(f"{path}: line {bad[0] + 2}: non-finite time or "
                         f"current ({t[bad[0]]!r}, {i[bad[0]]!r})")
    back = np.flatnonzero(np.diff(t_arr) < 0)
    if len(back):
        raise InputError(f"{path}: line {back[0] + 3}: time {t[back[0] + 1]!r} "
                         f"before the previous row's {t[back[0]]!r}")
    k = int(np.argmax(np.abs(i_arr)))
    return DcScTrace(t=t_arr, i=i_arr, peak_current=float(abs(i_arr[k])),
                     time_to_peak=float(t_arr[k]), regime="file")


def _run_i2t(args, grid, study) -> int:   # reads neither
    if args.format and not args.out:
        raise InputError("i2t --format formats the --out artifact; "
                         "give --out")
    trace = _read_trace_csv(args.trace)
    t_clear = fuse_i2t_clearing(trace, args.fuse_i2t)
    if args.out:
        _emit(args, "i2t.csv",
              *report.fuse_rows([("fuse", args.fuse_i2t, t_clear)]))
    if t_clear is None:
        print("t_clear_s = NOT_CLEARED")
        if args.strict:
            return EXIT_STRICT
    else:
        print(f"t_clear_s = {report.fmt(t_clear)}")
    return EXIT_OK


# study kind -> (its runner, the study section kinds it reads)
_STEADY = ("breakers", "dispatch", "load_scale", "powerflow")
_RUNNERS = {
    "powerflow": (_run_powerflow, _STEADY),
    "sc-ac": (_run_sc_ac, _STEADY),
    "sc-dc": (_run_sc_dc, ("breakers",)),
    "tdsim": (_run_tdsim, _STEADY + ("sim", "event", "controller")),
    "cct": (_run_cct, ("breakers", "cct")),
    "protect": (_run_protect, _STEADY + ("protect",)),
    "i2t": (_run_i2t, ()),
}


@functools.cache   # built on the first main() call, then reused unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vessel-study",
        description="Electrical studies for hybrid vessel grids.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        if kind != "i2t":
            p.add_argument("--grid", required=True,
                           help="grid file path or builtin:<name>")
            p.add_argument("--study", default=None, help="study config file")
        p.add_argument("--out", required=kind != "i2t",
                       help="output directory")
        if kind != "tdsim":
            p.add_argument("--format", choices=("csv", "text"),
                           default=None if kind == "i2t" else "csv")
        if kind in ("protect", "i2t"):
            p.add_argument("--strict", action="store_true")
        if kind in ("sc-ac", "sc-dc"):
            p.add_argument("--bus", required=True, help="fault bus id")
        if kind == "i2t":
            p.add_argument("--trace", required=True, help="trace CSV file")
            p.add_argument("--fuse-i2t", required=True, type=float,
                           help="fuse total clearing I^2t, A^2 s")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        grid = study = None   # i2t reads a trace, not a grid or a study
        if args.kind != "i2t":
            grid = _load_grid(args.grid)
            study = _Study("" if args.study is None
                           else _read_text(args.study), args.kind)
            # the breaker states apply first: the topology studied is the
            # one validated
            states = study.one("breakers")
            if states:
                grid = grid.with_breaker_states(states)
            bad = validate(grid)
            if not bad.ok():
                for v in bad:
                    print(f"error: {v.element_id}: {v.rule}: {v.message}",
                          file=sys.stderr)
                return EXIT_INPUT
        return _RUNNERS[args.kind][0](args, grid, study)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
