"""AC short-circuit currents by the marine decrement-curve method.

Each synchronous machine contributes a three-term decaying AC component and
an aperiodic DC component driven by its subtransient/transient reactances
and time constants; motor groups contribute a single-exponential decrement,
and drives/inverters a constant current capped by their limiter.  Fault
currents at a bus are the sum of all contributions reachable through closed
breakers, with the peak composed at the first half cycle:
``ip = sqrt(2)*Iac(T/2) + idc(T/2)``.  The island frequency sets T and the
estimated DC time constants; the traces and the summary keep what it
shaped, not the frequency itself.

All three kinds share one closed-form curve.  The summary and protection
read only its closed-form values; a trace's sampled arrays are computed on
first read, so only a study that writes trace files samples them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .grid import (AC, ConverterSpec, GeneratorSpec, GridModel, InputError,
                   LoadSpec, island_frequency)
from .powerflow import OperatingPoint, PowerflowSolution, prefault_operating_point

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
MOTOR_AC_DECAY = 0.04   # s; motor-group AC decay, not part of the load data


@functools.cache
def default_time_grid() -> np.ndarray:
    """0-1 s: 10 us steps through the subtransient window, 1 ms after.

    Built once per process and read-only: every trace shares it.
    """
    fine = np.arange(0.0, 0.05, 10e-6)
    coarse = np.arange(0.05, 1.0 + 1e-12, 1e-3)
    grid = np.concatenate([fine, coarse])
    grid.setflags(write=False)
    return grid


@dataclass
class AcScTrace:
    """Fault-current contribution of one element, referred to the fault bus.

    `iac` is the RMS AC component, `idc` the aperiodic component and
    `envelope` the composed upper envelope sqrt(2)*iac + idc, sampled on
    `t`.  The three arrays are computed on first read and kept (read-only):
    a study that writes no trace samples nothing.  The half-cycle values
    are evaluated in closed form (not read off the grid) so the composition
    identity holds to machine precision.
    """

    t: np.ndarray
    curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]  # unreferred
    i_kd_st: float                 # I''kd
    i_kd_t: float                  # I'kd
    i_kd: float                    # Ikd
    iac_half: float                # Iac(T/2)
    idc_half: float                # idc(T/2)
    ikd_source: str = "datasheet"  # datasheet | estimated | none
    tdc_source: str = "datasheet"
    referral: float = 1.0          # factor on `curve`, to the fault bus

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _sample(self)

    iac = property(lambda self: self._arrays[0])
    idc = property(lambda self: self._arrays[1])
    envelope = property(lambda self: self._arrays[2])

    def scaled(self, k: float) -> "AcScTrace":
        return replace(
            self, referral=self.referral * k,
            i_kd_st=self.i_kd_st * k, i_kd_t=self.i_kd_t * k, i_kd=self.i_kd * k,
            iac_half=self.iac_half * k, idc_half=self.idc_half * k)


def _sample(trace: AcScTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(iac, idc, envelope) on `trace.t`: the envelope is composed from the
    unreferred curve, then all three are referred."""
    iac, idc = trace.curve(trace.t)
    arrays = tuple(a * trace.referral for a in (iac, idc, SQRT2 * iac + idc))
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass
class FaultSummary:
    bus: str
    traces: dict[str, AcScTrace]
    iac_half_cycle: float
    idc_half_cycle: float
    ip: float


def convert_time_constants(xd: float, xd_t: float, xd_st: float,
                           td_t: float, td_st: float) -> tuple[float, float]:
    """Short-circuit time constants -> open-circuit (datasheet conversion)."""
    _check_reactances(xd, xd_t, xd_st)
    if td_t <= 0 or td_st <= 0:
        raise InputError("time constants must be > 0")
    return td_t * xd / xd_t, td_st * xd_t / xd_st


def short_circuit_time_constants(xd: float, xd_t: float, xd_st: float,
                                 td0_t: float, td0_st: float) -> tuple[float, float]:
    """Open-circuit time constants -> short-circuit (reciprocal mapping)."""
    _check_reactances(xd, xd_t, xd_st)
    if td0_t <= 0 or td0_st <= 0:
        raise InputError("time constants must be > 0")
    return td0_t * xd_t / xd, td0_st * xd_st / xd_t


def _check_reactances(xd, xd_t, xd_st):
    if not 0 < xd_st < xd_t < xd:
        raise InputError(f"need 0 < xd_st < xd_t < xd, got {xd_st}, {xd_t}, {xd}")


def _decrement(tgrid, frequency, i_st, i_t, ikd, td_st, td_t, idc0, tdc,
               **sources) -> AcScTrace:
    """The one curve form of every contributor:

        Iac(t) = (I''kd - I'kd) e^(-t/T''d) + (I'kd - Ikd) e^(-t/T'd) + Ikd
        idc(t) = idc0 e^(-t/Tdc)

    A term whose current is zero, or whose time constant is infinite, adds
    exactly nothing or exactly its constant.
    """
    def curve(t):
        return ((i_st - i_t) * np.exp(-t / td_st)
                + (i_t - ikd) * np.exp(-t / td_t) + ikd,
                idc0 * np.exp(-t / tdc))

    iac_half, idc_half = curve(1.0 / (2.0 * frequency))
    return AcScTrace(t=tgrid, curve=curve, i_kd_st=i_st, i_kd_t=i_t, i_kd=ikd,
                     iac_half=float(iac_half), idc_half=float(idc_half),
                     **sources)


def machine_sc_trace(gen: GeneratorSpec, op: OperatingPoint,
                     tgrid: np.ndarray, frequency: float) -> AcScTrace:
    """Decrement curve of one synchronous machine feeding a terminal fault.

    Per-unit reactances are converted to ohms on the machine base.  The
    internal EMFs come from the pre-fault terminal state:

        E''q0 = sqrt((U0/sqrt3 + I0 X''d sin phi0)^2 + (I0 X''d cos phi0)^2)

    (E'q0 analogous with X'd), then

        Iac(t) = (I''kd - I'kd) e^(-t/T''d) + (I'kd - Ikd) e^(-t/T'd) + Ikd
        idc(t) = sqrt(2) (I''kd - I0 sin phi0) e^(-t/Tdc)

    with the short-circuit constants T'd = T'd0 X'd/Xd, T''d = T''d0 X''d/X'd.
    A datasheet Ikd is preferred; otherwise Ikd = E'q0/Xd is used and the
    trace labelled "estimated".  The faulted network's `frequency` sets the
    half cycle; the arrays are sampled on `tgrid` when first read.
    """
    d = gen.dynamics
    if d is None:
        raise InputError(f"{gen.id}: no dynamics block")
    td_t, td_st = short_circuit_time_constants(d.xd, d.xd_t, d.xd_st,
                                               d.td0_t, d.td0_st)

    zbase = gen.voltage ** 2 / (gen.rated_kva * 1e3)
    xd, xd_t, xd_st = d.xd * zbase, d.xd_t * zbase, d.xd_st * zbase

    sin_phi, cos_phi = math.sin(op.phi0), math.cos(op.phi0)
    e_ln = op.u0 / SQRT3
    e_st = math.hypot(e_ln + op.i0 * xd_st * sin_phi, op.i0 * xd_st * cos_phi)
    e_t = math.hypot(e_ln + op.i0 * xd_t * sin_phi, op.i0 * xd_t * cos_phi)

    i_st = e_st / xd_st
    i_t = e_t / xd_t
    if d.ikd is not None:
        ikd, ikd_source = d.ikd, "datasheet"
    else:
        ikd, ikd_source = e_t / xd, "estimated"

    if d.tdc is not None and d.tdc > 0:
        tdc, tdc_source = d.tdc, "datasheet"
    else:
        ra = gen.winding_resistance_mohm * 1e-3
        tdc, tdc_source = xd_st / (2 * math.pi * frequency * ra), "estimated"
    if not i_st >= i_t >= ikd:
        raise InputError(
            f"{gen.id}: decrement ordering violated "
            f"(I''kd={i_st:.0f}, I'kd={i_t:.0f}, Ikd={ikd:.0f} A)")

    return _decrement(
        tgrid, frequency, i_st, i_t, ikd, td_st, td_t,
        SQRT2 * (i_st - op.i0 * sin_phi), tdc,
        ikd_source=ikd_source, tdc_source=tdc_source)


def motor_group_sc_trace(load: LoadSpec, bus_voltage: float,
                         tgrid: np.ndarray, frequency: float) -> AcScTrace:
    """Single-exponential decrement of a lumped load's motor fraction.

    The initial symmetrical contribution is the locked-rotor multiple of the
    motor-rated current; the AC component decays with MOTOR_AC_DECAY and
    the DC component with Tdc = (X/R)/(2 pi f): the machine form with
    I'kd = Ikd = 0.
    """
    if load.motor_fraction <= 0:
        raise InputError(f"{load.id}: motor fraction is zero")
    if load.xr_ratio is None:
        raise InputError(f"{load.id}: xr_ratio required for DC component")
    i_rated = load.motor_fraction * load.rated_kva * 1e3 / (SQRT3 * bus_voltage)
    i_lr = load.locked_rotor_multiplier * i_rated
    tdc = load.xr_ratio / (2 * math.pi * frequency)

    return _decrement(
        tgrid, frequency, i_lr, 0.0, 0.0, MOTOR_AC_DECAY, math.inf,
        SQRT2 * i_lr, tdc, ikd_source="none", tdc_source="xr_ratio")


def vfd_contribution(conv: ConverterSpec, tgrid: np.ndarray,
                     frequency: float) -> AcScTrace:
    """Constant limiter-bound contribution of an AC-coupled drive/inverter:
    I''kd = I'kd = Ikd at the limit and no DC component."""
    if conv.kind not in ("inverter", "grid_inverter"):
        raise InputError(
            f"{conv.id}: {conv.kind} is not an AC-coupled drive/inverter")
    level = conv.sc_contribution_factor * conv.rated_current

    return _decrement(
        tgrid, frequency, level, level, level, math.inf, math.inf,
        0.0, math.inf, ikd_source="none", tdc_source="none")


def fault_summary(grid: GridModel, bus_id: str,
                  sol: PowerflowSolution) -> FaultSummary:
    """Aggregate every contribution reachable through closed breakers.

    Contributor currents are referred to the fault bus by the ratio of
    nominal voltages; cable impedance between contributor and fault is
    neglected, as the machine-decrement method reasons about source
    contributions, not network-limited currents.
    """
    fault_bus = grid.bus(bus_id)
    if fault_bus.kind != AC:
        raise InputError(f"{bus_id} is a DC bus; use the DC fault engine")
    tgrid = default_time_grid()   # sampled only if a trace is read
    island = grid.island_of(bus_id)
    on = grid.online_elements(island)
    f = island_frequency(grid, island)
    v_fault = fault_bus.nominal_voltage

    traces: dict[str, AcScTrace] = {}

    for g in on.generators:
        op = prefault_operating_point(grid, sol, g.id)
        tr = machine_sc_trace(g, op, tgrid, f)
        traces[g.id] = tr.scaled(grid.bus(g.bus).nominal_voltage / v_fault)
    for l in on.loads:
        if l.motor_fraction > 0:
            v_bus = grid.bus(l.bus).nominal_voltage
            tr = motor_group_sc_trace(l, v_bus, tgrid, f)
            traces[l.id] = tr.scaled(v_bus / v_fault)
    for c in on.converters:
        if c.kind in ("inverter", "grid_inverter"):
            tr = vfd_contribution(c, tgrid, f)
            v_conv = grid.bus(grid.converter_ac_bus(c)).nominal_voltage
            traces[c.id] = tr.scaled(v_conv / v_fault)

    if not traces:
        raise InputError(f"no contributors reachable from {bus_id}")

    iac_half = sum(tr.iac_half for tr in traces.values())
    idc_half = sum(tr.idc_half for tr in traces.values())
    return FaultSummary(
        bus=bus_id,
        traces=traces,
        iac_half_cycle=iac_half,
        idc_half_cycle=idc_half,
        ip=SQRT2 * iac_half + idc_half,
    )
