"""Trace files of sc-ac and sc-dc studies.

Contributors whose waveforms are bitwise equal share one rendering; every
trace file must still equal that contributor's own rendering, and traces
that differ in a single bit must be rendered separately.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vesselstudy import (builtin_fixture, dc_fault_summary, fault_summary,
                         solve_ac_powerflow)
from vesselstudy.cli import _write_traces, main
from vesselstudy.grid import GridError
from vesselstudy.report import ac_trace_csv, dc_trace_csv, safe_name

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

GRIDS = {"sc-ac": "ac_vessel", "sc-dc": "dc_vessel"}
FIXTURES = {kind: builtin_fixture(name) for kind, name in GRIDS.items()}


def _expected(kind, grid, bus):
    """{file name: the contributor's own rendering}, or None when the
    engines reject the case."""
    try:
        if kind == "sc-ac":
            summ = fault_summary(grid, bus, solve_ac_powerflow(grid))
            return {f"trace_{safe_name(c)}.csv": ac_trace_csv(tr)
                    for c, tr in summ.traces.items()}
        summ = dc_fault_summary(grid, bus)
    except GridError:
        return None
    files = {f"trace_{safe_name(c)}.csv": dc_trace_csv(tr)
             for c, tr in summ.traces.items()}
    files["total.csv"] = dc_trace_csv(summ.total, total=True)
    return files


@st.composite
def studies(draw):
    """A study kind, a fault bus of its fixture and drawn breaker states."""
    kind = draw(st.sampled_from(sorted(FIXTURES)))
    grid = FIXTURES[kind]
    bus = draw(st.sampled_from([b.id for b in grid.buses
                                if (b.kind == "dc") == (kind == "sc-dc")]))
    states = {b.id: draw(st.booleans()) for b in grid.breakers}
    return kind, bus, states


@settings(deadline=None, max_examples=12)
@given(studies())
def test_every_trace_file_is_its_own_rendering(case):
    kind, bus, states = case
    expected = _expected(kind, FIXTURES[kind].with_breaker_states(states), bus)
    assume(expected is not None)
    with tempfile.TemporaryDirectory() as tmp:
        study = Path(tmp) / "s.study"
        study.write_text("[breakers]\n" + "".join(
            f"{b} = {str(v).lower()}\n" for b, v in states.items()))
        out = Path(tmp) / "out"
        assert main([kind, "--grid", f"builtin:{GRIDS[kind]}", "--bus", bus,
                     "--study", str(study), "--out", str(out)]) == 0
        written = {p.name: p.read_text() for p in out.iterdir()
                   if p.name != "summary.csv"}
    assert sorted(written) == sorted(expected)
    assert [n for n in expected if written[n] != expected[n]] == []


@pytest.mark.parametrize("kind, bus", [("sc-ac", "AC_PS"), ("sc-dc", "DC_PS")])
def test_twin_traces_are_rendered_once(tmp_path, monkeypatch, kind, bus):
    """The fixtures' twin contributors (identical machines on one bus) give
    fewer renderings than trace files, one per distinct file content."""
    from vesselstudy import report
    name = "ac_trace_csv" if kind == "sc-ac" else "dc_trace_csv"
    calls = []
    original = getattr(report, name)
    monkeypatch.setattr(report, name,
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    assert main([kind, "--grid", f"builtin:{GRIDS[kind]}", "--bus", bus,
                 "--out", str(tmp_path)]) == 0
    traces = [p.read_text() for p in tmp_path.glob("trace_*.csv")]
    extra = kind == "sc-dc"   # total.csv goes through dc_trace_csv too
    assert len(calls) == len(set(traces)) + extra < len(traces) + extra


@pytest.mark.parametrize("kind, bus, twins, field", [
    ("sc-ac", "AC_PS", ("DG#01", "DG#04"), "iac"),
    ("sc-ac", "AC_PS", ("DG#01", "DG#04"), "idc"),
    ("sc-ac", "AC_PS", ("DG#01", "DG#04"), "envelope"),
    ("sc-dc", "DC_PS", ("INV_BOW1", "INV_BOW2"), "i"),
])
def test_twins_one_bit_apart_in_any_column_get_their_own_files(
        tmp_path, monkeypatch, kind, bus, twins, field):
    """Every column a trace file holds takes part in the twin test."""
    from vesselstudy import cli
    engine = "fault_summary" if kind == "sc-ac" else "dc_fault_summary"
    original = getattr(cli, engine)

    def nudged(*args, **kwargs):
        summ = original(*args, **kwargs)
        a, b = (summ.traces[c] for c in twins)
        assert all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("iac", "idc", "envelope", "i") if hasattr(a, f))
        values = getattr(a, field).copy()
        values[7] = np.nextafter(values[7], np.inf)
        summ.traces[twins[1]] = _Overridden(b, **{field: values})
        return summ

    monkeypatch.setattr(cli, engine, nudged)
    assert main([kind, "--grid", f"builtin:{GRIDS[kind]}", "--bus", bus,
                 "--out", str(tmp_path)]) == 0
    summ = nudged(FIXTURES[kind], bus, *(
        [solve_ac_powerflow(FIXTURES[kind])] if kind == "sc-ac" else []))
    render = ac_trace_csv if kind == "sc-ac" else dc_trace_csv
    assert _mismatched(tmp_path, {c: summ.traces[c] for c in twins},
                       render) == []


class _Overridden:
    """`trace` with the given attributes replaced and the rest its own: a
    sampled AC column is computed, not a field `dataclasses.replace` sets."""

    def __init__(self, trace, **values):
        self._trace, self._values = trace, values

    def __getattr__(self, name):
        if name in self._values:
            return self._values[name]
        return getattr(self._trace, name)


def _mismatched(out, traces, render) -> list[str]:
    """Ids whose trace file is not their own rendering (names only: a
    failing comparison of two whole files would print a huge diff)."""
    return [cid for cid, tr in traces.items()
            if (out / f"trace_{safe_name(cid)}.csv").read_text() != render(tr)]


def _trace(i):
    return SimpleNamespace(t=np.linspace(0.0, 1.0, len(i)),
                           i=np.asarray(i, dtype=np.float64))


def test_traces_one_bit_apart_are_rendered_separately(tmp_path):
    base = np.r_[0.0, np.linspace(1.0, 2.0, 600), 0.0]
    neg_zero, ulp = base.copy(), base.copy()
    neg_zero[-1] = -0.0                       # value-equal, repr differs
    ulp[300] = np.nextafter(ulp[300], np.inf)
    traces = {"A": _trace(base), "B": _trace(base.copy()),
              "C": _trace(neg_zero), "D": _trace(ulp), "E": _trace(ulp.copy())}
    rendered = []

    def render(tr):
        rendered.append(tr)
        return dc_trace_csv(tr)

    _write_traces(str(tmp_path), traces, ("t", "i"), render)
    assert len(rendered) == 3                 # {A, B}, {C}, {D, E}
    assert _mismatched(tmp_path, traces, dc_trace_csv) == []


def test_traces_with_different_time_columns_are_rendered_separately(tmp_path):
    a = _trace(np.ones(10))
    b = SimpleNamespace(t=a.t + 1.0, i=a.i.copy())
    traces = {"A": a, "B": b}
    _write_traces(str(tmp_path), traces, ("t", "i"), dc_trace_csv)
    assert _mismatched(tmp_path, traces, dc_trace_csv) == []
