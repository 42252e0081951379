"""Every span target of `perfbench/tracing.py` resolves in vesselstudy,
and every result name its counters read is still there.

The tracer wraps each public function in the namespace where its caller
looks it up, and `Tracer.finish_study` reads fields of the kept results
(`PowerflowSolution.iterations`, `FaultSummary.traces`, `TimeSeries.t`,
the CCT probes' `schedule.events`), so a renamed function, import or field
would otherwise break only `perfbench/run.py --trace 1`.  These tests
install and uninstall a tracer on the package modules that run.py hands
it; they change nothing in perfbench.
"""

import ast
import importlib
from pathlib import Path

import pytest

from vesselstudy import serialize_grid
from vesselstudy.cli import main

from helpers import smib_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_modules() -> tuple[str, ...]:
    """run.py's MODULES, read without importing run.py, which sets the BLAS
    thread count in os.environ on import."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["MODULES"])


def _tracing_and_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    modules = {m: importlib.import_module(f"vesselstudy.{m}")
               for m in _run_modules()}
    return tracing, modules


def test_every_target_is_wrapped_and_restored(monkeypatch):
    tracing, modules = _tracing_and_modules(monkeypatch)
    owners = [(tracing._resolve(modules, path), attr)
              for path, attr, _ in tracing.TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in owners
               if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in owners]

    tr = tracing.Tracer()
    tr.install(modules)
    try:
        assert [getattr(owner, attr).__wrapped__ for owner, attr in owners] \
            == originals
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is fn
               for (owner, attr), fn in zip(owners, originals))


# one short study of each kind -> the counter its result feeds
STUDIES = {
    "powerflow": (["powerflow", "--grid", "builtin:ac_vessel"], "",
                  "powerflow.nr_iterations"),
    "sc-ac": (["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS"], "",
              "sc_ac.samples"),
    "sc-dc": (["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS"], "",
              "sc_dc.samples"),
    "protect": (["protect", "--grid", "builtin:ac_vessel"],
                "[protect]\nfault_element = DG#01\n", "protection.trip_events"),
    "tdsim": (["tdsim", "--grid", "builtin:ac_vessel"],
              "[sim]\nstep_s = 0.02\nend_s = 0.1\n", "tdsim.steps"),
    "cct": (["cct", "--grid", "smib"],
            "[cct]\nmachine = G1\nloading = 0.9\nt_hi_s = 0.4\n"
            "tol_s = 0.1\nstep_s = 0.01\nwindow_s = 0.5\n"
            "governor = off\navr = off\n", "tdsim.cct_probes"),
}


@pytest.mark.parametrize("kind", sorted(STUDIES))
def test_every_counter_reads_its_result(monkeypatch, tmp_path, kind):
    argv, study_text, counter = STUDIES[kind]
    if "smib" in argv:
        grid = tmp_path / "smib.grid"
        grid.write_text(serialize_grid(smib_grid()))
        argv = [str(grid) if a == "smib" else a for a in argv]
    study = tmp_path / "s.study"
    study.write_text(study_text)
    tracing, modules = _tracing_and_modules(monkeypatch)
    tr = tracing.Tracer()
    tr.install(modules)
    try:
        rc = main([*argv, "--study", str(study), "--out", str(tmp_path / "o")])
    finally:
        tr.uninstall()
    assert rc == 0
    tr.finish_study()
    assert tr.counters.get(counter, 0) > 0
