"""Every entry of the engines' domain tables (`tdsim.DOMAINS`,
`powerflow.DOMAINS`, `protection.DOMAINS`) is enforced by the public
constructor or function that owns it: a value just outside a finite end,
nan, inf and -inf each raise an `InputError` naming the key, and the
value at a closed end passes the key's check."""

import math

import numpy as np
import pytest

from vesselstudy import powerflow, protection, tdsim
from vesselstudy.fixtures import builtin_fixture
from vesselstudy.grid import (InputError, LongTimeElement, NumericalError,
                              ShortTimeElement, TccCurve)
from vesselstudy.protection import TripEvent
from vesselstudy.sc_dc import DcScTrace

AC = builtin_fixture("ac_vessel")
ENGINES = (tdsim, powerflow, protection)


def _controller(**kw):
    return tdsim.ControllerConfig(**{"mode": "peak_shave", "inverter": "INV_PS",
                                     "p_rating_kw": 1.0, "q_rating_kvar": 1.0,
                                     **kw})


def _cct(**kw):
    # an unknown machine: every value check passes before its lookup fails
    args = {"t_lo": 0.0, "t_hi": 0.4, "tol": 0.01, "window": 1.0, **kw}
    return tdsim.find_cct(AC, tdsim.CctFaultSpec("NOPE"),
                          cfg=tdsim.SimConfig(step=0.01), **args)


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
    ("tdsim", "step_s"): [lambda v: tdsim.SimConfig(step=v)],
    ("tdsim", "end_s"): [lambda v: tdsim.SimConfig(end=v)],
    ("tdsim", "p_rating_kw"): [lambda v: _controller(p_rating_kw=v)],
    ("tdsim", "q_rating_kvar"): [lambda v: _controller(q_rating_kvar=v)],
    ("tdsim", "p_threshold_kw"): [lambda v: _controller(p_threshold_kw=v)],
    ("tdsim", "q_threshold_kvar"): [lambda v: _controller(q_threshold_kvar=v)],
    ("tdsim", "dp_delay_s"): [
        lambda v: _controller(mode="dp_failover", dp_delay=v)],
    ("tdsim", "loading"): [lambda v: tdsim.CctFaultSpec("DG#01", loading=v)],
    ("tdsim", "t_lo_s"): [lambda v: _cct(t_lo=v)],
    ("tdsim", "t_hi_s"): [lambda v: _cct(t_hi=v)],
    ("tdsim", "tol_s"): [lambda v: _cct(tol=v)],
    ("tdsim", "window_s"): [lambda v: _cct(window=v)],
    ("powerflow", "tol"): [lambda v: powerflow.solve_ac_powerflow(AC, tol=v)],
    # an integral max_iter as the int that the CLI's `integer` converter makes
    ("powerflow", "max_iter"): [lambda v: powerflow.solve_ac_powerflow(
        AC, max_iter=int(v) if v.is_integer() else v)],
    ("powerflow", "dispatch"): [
        lambda v: powerflow.solve_ac_powerflow(AC, dispatch={"DG#01": v})],
    ("powerflow", "load_scale"): [
        lambda v: powerflow.solve_ac_powerflow(AC, load_scale={"LOAD440_PS": v})],
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


def _cases(pick: int):
    return [pytest.param(engine, key, domain, k, value,
                         id=f"{engine}.{key}-{k}-{value!r}")
            for engine, key, domain in _entries()
            for k in range(len(OWNERS[(engine, key)]))
            for value in _values(domain)[pick]]


def test_every_entry_has_an_owner():
    assert set(OWNERS) == {(engine, key) for engine, key, _ in _entries()}


@pytest.mark.parametrize("engine, key, domain, k, value", _cases(0))
def test_a_value_outside_the_domain_is_refused(engine, key, domain, k, value):
    with pytest.raises(InputError) as exc:
        OWNERS[(engine, key)][k](value)
    assert str(exc.value).startswith(f"need {key} in {domain}, got {key}")


@pytest.mark.parametrize("engine, key, domain, k, value", _cases(1))
def test_a_closed_end_is_accepted(engine, key, domain, k, value):
    try:
        OWNERS[(engine, key)][k](value)
    except InputError as exc:
        assert f"need {key} in" not in str(exc)
    except NumericalError:
        pass   # tol = 0 or max_iter = 0 may leave the power flow unconverged
