"""Every entry of the engines' domain tables (`tdsim.DOMAINS`,
`powerflow.DOMAINS`, `protection.DOMAINS`) is enforced by the public
constructor or function that owns it: a value just outside a finite end,
nan, inf, -inf, None, a str and a bool each raise an `InputError` naming
the key and showing the value's repr, and the value at a closed end, or
a numpy number inside, passes the key's check, as None does in a
field whose default is None.  Every entry of the grid's
table, `grid.DOMAINS`, is enforced the same way by `validate`, as one
`domain` violation naming the field."""

import dataclasses
import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

import vesselstudy
from vesselstudy import powerflow, protection, tdsim
from vesselstudy.fixtures import builtin_fixture
from vesselstudy.grid import (DOMAINS, CapacitorBranch, InputError,
                              LongTimeElement, NumericalError,
                              ShortTimeElement, TccCurve, Violation, validate)
from vesselstudy.protection import TripEvent
from vesselstudy.sc_dc import DcScTrace

from helpers import smib_grid

AC = builtin_fixture("ac_vessel")
ENGINES = (tdsim, powerflow, protection)


def _controller(**kw):
    return tdsim.ControllerConfig(**{"mode": "peak_shave", "inverter": "INV_PS",
                                     "watched": ("DG#01",), "p_rating_kw": 1.0,
                                     "q_rating_kvar": 1.0, **kw})


# each table entry -> the public calls that own it, each given the value
OWNERS = {
    ("tdsim", "time_s"): [
        lambda v: tdsim.Event(v, "load_step", "LOAD440_PS", scale=1.0)],
    ("tdsim", "scale"): [
        lambda v: tdsim.Event(0.0, "load_step", "LOAD440_PS", scale=v)],
    ("tdsim", "ramp_s"): [
        lambda v: tdsim.Event(0.0, "load_step", "LOAD440_PS", scale=1.0,
                              ramp=v)],
    ("tdsim", "location"): [
        lambda v: tdsim.Event(0.0, "fault_apply", "FDR_LV_PS", location=v),
        lambda v: tdsim.CctFaultSpec("DG#01", location=v)],
    ("tdsim", "step_s"): [lambda v: tdsim.SimConfig(step=v),
                          lambda v: tdsim.CctFaultSpec("DG#01", step=v)],
    ("tdsim", "end_s"): [lambda v: tdsim.SimConfig(end=v)],
    ("tdsim", "p_rating_kw"): [lambda v: _controller(p_rating_kw=v)],
    ("tdsim", "q_rating_kvar"): [lambda v: _controller(q_rating_kvar=v)],
    ("tdsim", "p_threshold_kw"): [lambda v: _controller(p_threshold_kw=v)],
    ("tdsim", "q_threshold_kvar"): [lambda v: _controller(q_threshold_kvar=v)],
    ("tdsim", "dp_delay_s"): [
        lambda v: _controller(mode="dp_failover", dp_delay=v)],
    ("tdsim", "loading"): [lambda v: tdsim.CctFaultSpec("DG#01", loading=v)],
    ("tdsim", "t_lo_s"): [lambda v: tdsim.CctFaultSpec("DG#01", t_lo=v)],
    ("tdsim", "t_hi_s"): [lambda v: tdsim.CctFaultSpec("DG#01", t_hi=v)],
    ("tdsim", "tol_s"): [lambda v: tdsim.CctFaultSpec("DG#01", tol=v)],
    ("tdsim", "window_s"): [lambda v: tdsim.CctFaultSpec("DG#01", window=v)],
    ("powerflow", "tol"): [lambda v: powerflow.SteadyState(tol=v)],
    ("powerflow", "max_iter"): [lambda v: powerflow.SteadyState(max_iter=v)],
    ("powerflow", "dispatch"): [
        lambda v: powerflow.SteadyState(dispatch={"DG#01": v})],
    ("powerflow", "load_scale"): [
        lambda v: powerflow.SteadyState(load_scale={"LOAD440_PS": v})],
    ("protection", "cct_budget_s"): [
        lambda v: protection.selectivity_check(
            [TripEvent("CB_DG01", 0.216, "short_time", False)], v)],
    ("protection", "fuse_i2t"): [
        lambda v: protection.fuse_i2t_clearing(DcScTrace(
            t=np.array([0.0, 1.0]), i=np.zeros(2), peak_current=0.0,
            time_to_peak=0.0, regime="file"), v)],
    ("protection", "current"): [
        lambda v: protection.trip_time(TccCurve(LongTimeElement(1000.0),
                                                ShortTimeElement(5000.0)), v)],
}
# the owners whose field defaults to None, which there means unset
NONE_PASSES = {("tdsim", "scale", 0), ("tdsim", "location", 0)}


def _entries():
    for module in ENGINES:
        engine = module.__name__.rsplit(".", 1)[1]
        for key, domain in module.DOMAINS.items():
            yield engine, key, domain


def _values(domain: str) -> tuple[list[float], list[float]]:
    """The values outside `domain` (nan, +-inf, and just past each finite
    end) and the values at its closed ends."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    outside, closed = [math.nan, math.inf, -math.inf], []
    for end, is_closed, away in ((lo, domain[0] == "[", -math.inf),
                                 (hi, domain[-1] == "]", math.inf)):
        if math.isfinite(end):
            outside.append(math.nextafter(end, away) if is_closed else end)
            if is_closed:
                closed.append(end)
        else:
            assert not is_closed, f"{domain}: an infinite end is open"
    return outside, closed


def _owner_values(engine: str, key: str, domain: str, k: int):
    """`_values`, with a str and a bool outside too, as no numbers, and
    None, which passes for NONE_PASSES."""
    outside, closed = _values(domain)
    outside += ["1", True]
    (closed if (engine, key, k) in NONE_PASSES else outside).append(None)
    return outside, closed


def _cases(pick: int):
    return [pytest.param(engine, key, domain, k, value,
                         id=f"{engine}.{key}-{k}-{value!r}")
            for engine, key, domain in _entries()
            for k in range(len(OWNERS[(engine, key)]))
            for value in _owner_values(engine, key, domain, k)[pick]]


def test_every_entry_has_an_owner():
    assert set(OWNERS) == {(engine, key) for engine, key, _ in _entries()}


@pytest.mark.parametrize("engine, key, domain, k, value", _cases(0))
def test_a_value_outside_the_domain_is_refused(engine, key, domain, k, value):
    with pytest.raises(InputError) as exc:
        OWNERS[(engine, key)][k](value)
    assert str(exc.value).startswith(f"need {key} in {domain}, got {key}")
    assert str(exc.value).endswith(f" = {value!r}")


def test_numpy_numbers_are_numbers():
    cfg = tdsim.SimConfig(step=np.float64(0.01), end=np.int64(2))
    assert (cfg.step, cfg.end) == (0.01, 2)
    assert powerflow.SteadyState(
        dispatch={"DG#01": np.float32(100.0)}).dispatch == {"DG#01": 100.0}


@pytest.mark.parametrize("engine, key, domain, k, value", _cases(1))
def test_a_closed_end_is_accepted(engine, key, domain, k, value):
    try:
        OWNERS[(engine, key)][k](value)
    except InputError as exc:
        assert f"need {key} in" not in str(exc)
    except NumericalError:
        pass   # tol = 0 or max_iter = 0 may leave the power flow unconverged


# ---- grid values: grid.DOMAINS through validate ----------------------------

ROOT = Path(__file__).resolve().parents[1]
DC = builtin_fixture("dc_vessel")
# no fixture converter has a DC link: the DC vessel's first gets the Fig. 6 one
DC_LINKED = dataclasses.replace(DC, converters=(dataclasses.replace(
    DC.converters[0], dc_link=CapacitorBranch(2400e-6, 54.7e-3, 5.5e-6, 650.0)),
    *DC.converters[1:]))
GROUPS = ("buses", "generators", "batteries", "converters", "loads",
          "branches", "breakers", "fuses")


def _sites() -> dict:
    """(spec class, number field) of every spec of the two fixtures, itself
    or nested -> (grid, group, index, path to the nested spec, default) at
    its first spec."""
    sites = {}

    def visit(spec, site):
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if dataclasses.is_dataclass(value):
                visit(value, (*site[:3], (*site[3], f.name)))
            elif "float" in f.type:
                sites.setdefault((type(spec), f.name), (*site, f.default))

    for grid in (AC, DC_LINKED):
        for group in GROUPS:
            for k, spec in enumerate(getattr(grid, group)):
                visit(spec, (grid, group, k, ()))
    return sites


SITES = _sites()


def _set(spec, path, field, value):
    if path:
        return dataclasses.replace(spec, **{path[0]: _set(
            getattr(spec, path[0]), path[1:], field, value)})
    return dataclasses.replace(spec, **{field: value})


def _validate_with(cls, field: str, value):
    """validate on the fixture site of `cls.field` set to `value`: the
    spec's id, the dotted field and the violations."""
    grid, group, k, path, _ = SITES[(cls, field)]
    specs = list(getattr(grid, group))
    specs[k] = _set(specs[k], path, field, value)
    report = validate(dataclasses.replace(grid, **{group: tuple(specs)}))
    return specs[k].id, ".".join((*path, field)), list(report)


def _grid_cases(pick: int):
    """`_values` of each grid field, with a str and a bool outside too."""
    return [pytest.param(cls, field, domain, value,
                         id=f"{cls.__name__}.{field}-{value!r}")
            for cls, table in DOMAINS.items()
            for field, domain in table.items()
            for value in _values(domain)[pick] + [["400", True], []][pick]]


def test_every_grid_entry_names_a_number_field_of_a_fixture():
    assert {(cls, f) for cls, table in DOMAINS.items() for f in table} <= set(SITES)


@pytest.mark.parametrize("cls, field, domain, value", _grid_cases(0))
def test_a_grid_value_outside_the_domain_is_one_violation(cls, field, domain,
                                                          value):
    spec_id, name, found = _validate_with(cls, field, value)
    shown = value if isinstance(value, float) else repr(value)
    assert found == [Violation(spec_id, "domain",
                               f"need {name} in {domain}, got {name} = {shown}")]


@pytest.mark.parametrize("cls, field, domain, value", _grid_cases(1))
def test_a_grid_value_at_a_closed_end_is_accepted(cls, field, domain, value):
    assert [v for v in _validate_with(cls, field, value)[2]
            if v.rule == "domain"] == []


@pytest.mark.parametrize("cls, field", sorted(SITES, key=lambda s: (
    s[0].__name__, s[1])), ids=lambda x: getattr(x, "__name__", x))
def test_every_number_field_is_checked_and_none_only_where_it_may_be(cls,
                                                                      field):
    """Each number field, with or without a domain, must be finite; None is
    one violation in a field whose default is not None and passes where it
    is; and None, nan, +-inf, 0 and -1 never make validate raise."""
    domain = DOMAINS.get(cls, {}).get(field, "(-inf, inf)")
    for value in (None, math.nan, math.inf, -math.inf, 0.0, -1.0):
        spec_id, name, found = _validate_with(cls, field, value)
        refused = [v for v in found if v.rule == "domain"]
        if value is None and SITES[(cls, field)][4] is None:
            assert refused == []
        elif value is None or not math.isfinite(value):
            assert refused == [Violation(
                spec_id, "domain", f"need {name} in {domain}, got {name} = {value}")]


@pytest.mark.parametrize("grid", ["ac_vessel", "dc_vessel", "smib_grid",
                                  "ac_vessel_s9"])
def test_every_grid_value_lies_in_its_domain(grid, monkeypatch):
    if grid == "smib_grid":
        model = smib_grid()
    elif grid == "ac_vessel_s9":
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        model = importlib.import_module("workloads").sectioned_ac_vessel(
            vesselstudy, 9, random.Random(1))
    else:
        model = builtin_fixture(grid)
    assert validate(model).ok()
