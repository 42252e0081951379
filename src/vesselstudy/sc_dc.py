"""DC fault-current synthesis.

Converter DC links discharge as an exact series-RLC transient, batteries
rise exponentially to their datasheet short-circuit current, chargers feed
a constant limiter-bound current and inverters contribute nothing.  A bus
fault is the pointwise sum of all contributions on the island.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import BatterySource, CapacitorBranch, ConverterSpec, DC, GridModel, InputError

UNDERDAMPED = "underdamped"
CRITICAL = "critical"
OVERDAMPED = "overdamped"
EXPONENTIAL_RISE = "exponential_rise"
CONSTANT = "constant"
AGGREGATE = "aggregate"

_CRITICAL_RTOL = 1e-9


class DcFaultError(InputError):
    pass


def default_time_grid() -> np.ndarray:
    """0-5 ms at 0.5 us: resolves sub-millisecond DC-link dynamics."""
    return np.arange(0.0, 5e-3 + 0.25e-6, 0.5e-6)


@dataclass
class DcScTrace:
    t: np.ndarray
    i: np.ndarray
    peak_current: float
    time_to_peak: float
    regime: str
    sustained: float = 0.0


@dataclass
class DcFaultSummary:
    traces: dict[str, DcScTrace]
    total: DcScTrace

    @property
    def sustained(self) -> float:
        return self.total.sustained

    @property
    def peak(self) -> float:
        return self.total.peak_current


def capacitor_sc_trace(cap: CapacitorBranch, tgrid: np.ndarray) -> DcScTrace:
    """Exact discharge of a charged series-RLC branch into a bolted fault.

    With delta = R/(2L) and w0^2 = 1/(LC) the regimes are:

        underdamped  (delta < w0): i = (EC/(wd L)) e^(-delta t) sin(wd t)
        critical     (delta = w0): i = (EC/L) t e^(-delta t)
        overdamped   (delta > w0): i = (EC/(wh L)) e^(-delta t) sinh(wh t)

    The time to peak is analytic and independent of the initial voltage;
    the peak scales linearly with it.  In the underdamped case the current
    rings through zero, so it is signed; all stored energy still ends up in
    the series resistance.
    """
    ec, L = cap.initial_voltage, cap.series_inductance
    delta = cap.series_resistance / (2.0 * L)
    w0sq = 1.0 / (L * cap.capacitance)
    disc = delta * delta - w0sq

    if abs(disc) <= _CRITICAL_RTOL * w0sq:
        regime = CRITICAL
        i = (ec / L) * tgrid * np.exp(-delta * tgrid)
        tp = 1.0 / delta
        ip = (ec / L) * tp * math.exp(-1.0)
    elif disc < 0:
        regime = UNDERDAMPED
        wd = math.sqrt(-disc)
        i = (ec / (wd * L)) * np.exp(-delta * tgrid) * np.sin(wd * tgrid)
        tp = math.atan2(wd, delta) / wd
        ip = (ec / (wd * L)) * math.exp(-delta * tp) * math.sin(wd * tp)
    else:
        regime = OVERDAMPED
        wh = math.sqrt(disc)
        i = (ec / (wh * L)) * np.exp(-delta * tgrid) * np.sinh(wh * tgrid)
        tp = math.atanh(wh / delta) / wh
        ip = (ec / (wh * L)) * math.exp(-delta * tp) * math.sinh(wh * tp)

    return DcScTrace(t=tgrid, i=i, peak_current=ip, time_to_peak=tp,
                     regime=regime, sustained=0.0)


def battery_sc_trace(bat: BatterySource, tgrid: np.ndarray) -> DcScTrace:
    """Exponential rise to the datasheet short-circuit current.

    There is no state-of-charge model: the level is the datasheet's at any
    state of charge.
    """
    if bat.sc_peak_current is None or bat.sc_time_constant is None:
        raise DcFaultError(f"{bat.id}: missing datasheet short-circuit data")
    i = bat.sc_peak_current * (1.0 - np.exp(-tgrid / bat.sc_time_constant))
    return DcScTrace(t=tgrid, i=i, peak_current=float(i[-1]),
                     time_to_peak=float(tgrid[-1]), regime=EXPONENTIAL_RISE,
                     sustained=bat.sc_peak_current)


def converter_sc_contribution(conv: ConverterSpec,
                              tgrid: np.ndarray) -> DcScTrace:
    """Chargers feed their limiter level; inverter-family converters feed 0."""
    if conv.kind == "charger":
        level = conv.sc_contribution_factor * conv.rated_current
    else:
        level = 0.0
    i = np.full_like(tgrid, level)
    return DcScTrace(t=tgrid, i=i, peak_current=level, time_to_peak=0.0,
                     regime=CONSTANT, sustained=level)


def dc_fault_summary(grid: GridModel, bus_id: str) -> DcFaultSummary:
    """Pointwise sum of every DC contribution on the faulted island."""
    bus = grid.bus(bus_id)
    if bus.kind != DC:
        raise DcFaultError(f"{bus_id} is an AC bus; use the AC fault engine")
    tgrid = default_time_grid()
    on = grid.online_elements(grid.island_of(bus_id))

    traces: dict[str, DcScTrace] = {}
    for bat in on.batteries:
        traces[bat.id] = battery_sc_trace(bat, tgrid)
    for conv in on.converters:
        traces[conv.id] = converter_sc_contribution(conv, tgrid)
        if conv.dc_link is not None:
            traces[f"{conv.id}:dclink"] = capacitor_sc_trace(conv.dc_link, tgrid)

    if not traces:
        raise DcFaultError(f"no contributors reachable from {bus_id}")

    i_total = np.zeros_like(tgrid)
    for tr in traces.values():
        i_total = i_total + tr.i
    k = int(np.argmax(i_total))
    total = DcScTrace(
        t=tgrid, i=i_total,
        peak_current=float(i_total[k]), time_to_peak=float(tgrid[k]),
        regime=AGGREGATE,
        sustained=sum(tr.sustained for tr in traces.values()),
    )
    return DcFaultSummary(traces=traces, total=total)
