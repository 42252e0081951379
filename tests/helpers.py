"""Shared scenario builders and independent oracles used across tests.

Oracles here are deliberately primitive (fixed-point iteration, closed
forms, fine-grid quadrature) and never call the code paths they check.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from vesselstudy.grid import (
    Bus,
    CableBranch,
    GeneratorDynamicParams,
    GeneratorSpec,
    GridModel,
    LoadSpec,
    NumericalError,
)
from vesselstudy import tdsim
from vesselstudy.powerflow import S_BASE_KVA
from vesselstudy.tdsim import (V_FLOOR, CctFaultSpec, CctResult, Event,
                               EventSchedule, SimConfig, simulate)

# breakers that leave only the port-side section of the AC vessel energized
PS_ISLAND_OPEN = (
    "CB_TIE_PS_MID", "CB_DG02", "CB_DG03", "CB_DG04", "CB_DG05",
    "CB_CRANE_SB", "CB_LOAD440_SB", "CB_THR_BOW2", "CB_THR_BOW3",
    "CB_THR_PROP_SB", "CB_INV_SB",
)
# same but DG#02 stays online (DP scenario)
DP_ISLAND_OPEN = tuple(b for b in PS_ISLAND_OPEN if b != "CB_DG02")


def ps_island(grid, extra_open=()):
    states = {b: False for b in PS_ISLAND_OPEN + tuple(extra_open)}
    return grid.with_breaker_states(states)


def dp_island(grid):
    return grid.with_breaker_states({b: False for b in DP_ISLAND_OPEN})


def split_frequency_grid(grid: GridModel) -> GridModel:
    """The AC vessel with its starboard section (AC_SB, LV_SB) and the
    machines on it at 50 Hz, and the AC_MID-AC_SB tie open, so each island
    has one frequency."""
    starboard = ("AC_SB", "LV_SB")
    buses = tuple(dataclasses.replace(b, frequency=50.0)
                  if b.id in starboard else b for b in grid.buses)
    gens = tuple(dataclasses.replace(g, frequency=50.0)
                 if g.bus in starboard else g for g in grid.generators)
    return dataclasses.replace(grid, buses=buses, generators=gens
                               ).with_breaker_states({"CB_TIE_MID_SB": False})


def single_gen_grid(load_kw: float = 0.0, load_kvar: float = 0.0) -> GridModel:
    """One DG#01-class machine feeding a local lumped load."""
    bus = Bus("B1", "ac", 690.0, 60.0)
    gen = GeneratorSpec(
        "G1", "B1", 2395.0, 1916.0, 690.0, 2004.0, 60.0, 0.80, 720.0, 1.02,
        dynamics=GeneratorDynamicParams(
            xd=1.8, xd_t=0.28, xd_st=0.18, td0_t=3.5, td0_st=0.04, tdc=0.15,
            inertia_h=1.2, damping=2.0, synthetic=True))
    loads = ()
    if load_kw or load_kvar:
        s = math.hypot(load_kw, load_kvar)
        loads = (LoadSpec("L1", "B1", s, load_kw / s, 0.0),)
    return GridModel("single", buses=(bus,), generators=(gen,), loads=loads)


def two_bus_grid(load_p_pu: float, load_q_pu: float) -> GridModel:
    """Slack machine, one cable of z = 0.01 + j0.10 pu, constant-power load."""
    zbase = 690.0 ** 2 / 1e6
    buses = (Bus("B1", "ac", 690.0, 60.0), Bus("B2", "ac", 690.0, 60.0))
    gen = GeneratorSpec(
        "G1", "B1", 5000.0, 4000.0, 690.0, 4183.7, 60.0, 0.80, 720.0, 1.0)
    line = CableBranch("L12", "B1", "B2", 0.01 * zbase, 0.10 * zbase)
    s = math.hypot(load_p_pu, load_q_pu) * 1e3
    load = LoadSpec("LD", "B2", s, load_p_pu * 1e3 / s, 0.0)
    return GridModel("twobus", buses=buses, generators=(gen,),
                     branches=(line,), loads=(load,))


def gauss_seidel_two_bus(load_p_pu: float, load_q_pu: float,
                         iters: int = 2000) -> complex:
    """Independent fixed-point solution of the two-bus case."""
    y = 1.0 / complex(0.01, 0.10)
    s2 = -complex(load_p_pu, load_q_pu)
    v2 = 1.0 + 0j
    for _ in range(iters):
        v2 = (np.conj(s2) / np.conj(v2) + y * 1.0) / y
    return complex(v2)


def smib_grid() -> GridModel:
    """One machine behind x'd = 0.3 pu and a j0.4 pu line to a stiff source.

    The machine base equals the 1 MVA system base so per-unit quantities
    match the hand formulas; the stiff source is a machine with enormous
    inertia and negligible reactance.
    """
    buses = (Bus("B_M", "ac", 690.0, 60.0), Bus("B_INF", "ac", 690.0, 60.0))
    g1 = GeneratorSpec(
        "G1", "B_M", 1000.0, 900.0, 690.0, 836.74, 60.0, 0.90, 900.0, 1.0,
        dynamics=GeneratorDynamicParams(
            xd=1.8, xd_t=0.3, xd_st=0.2, td0_t=5.0, td0_st=0.05, tdc=0.1,
            inertia_h=3.5, damping=0.0, synthetic=True))
    ib = GeneratorSpec(
        "IB", "B_INF", 1e6, 9e5, 690.0, 836740.0, 60.0, 0.90, 900.0, 1.0,
        dynamics=GeneratorDynamicParams(
            xd=3e-5, xd_t=2e-5, xd_st=1e-5, td0_t=100.0, td0_st=1.0, tdc=0.1,
            inertia_h=1e7, damping=0.0, synthetic=True))
    zb = 690.0 ** 2 / 1e6
    line = CableBranch("LINE", "B_M", "B_INF", 0.0, 0.4 * zb)
    return GridModel("smib", buses=buses, branches=(line,),
                     generators=(g1, ib))


def equal_area_cct(loading: float, h: float = 3.5, xdp: float = 0.3,
                   xline: float = 0.4, f: float = 60.0) -> float:
    """Closed-form critical clearing time for the smib_grid scenario.

    Pre-fault state from the dispatch, fault at the machine bus (electrical
    power zero while on), equal-area critical angle, then the quadratic
    fault-on swing solved for the clearing instant.
    """
    pm = loading * 0.9          # rated_kw 900 on the 1 MVA base
    th = math.asin(pm * xline)
    vm = complex(math.cos(th), math.sin(th))
    i = (vm - 1.0) / (1j * xline)
    ep = vm + 1j * xdp * i
    d0 = math.atan2(ep.imag, ep.real)
    pmax = abs(ep) / (xdp + xline)
    dmax = math.pi - d0
    dc = math.acos(math.sin(d0) * (dmax - d0) + math.cos(dmax))
    assert pmax * math.sin(d0) - pm < 1e-9
    return math.sqrt(4.0 * h * (dc - d0) / (2.0 * math.pi * f * pm))


def cap_probes(monkeypatch, cap: int) -> list:
    """Count `find_cct`'s probes in the returned list, and fail past `cap`
    of them, so that a search that never ends fails instead."""
    probes, run = [], tdsim.simulate

    def counted(*args, **kwargs):
        probes.append(args)
        assert len(probes) <= cap, f"still bisecting after {cap} probes"
        return run(*args, **kwargs)

    monkeypatch.setattr(tdsim, "simulate", counted)
    return probes


# a search of G1's CCT on smib_grid for a bolted fault at its bus, without
# governors and voltage regulators; tests replace its tol and window
SMIB_CCT = CctFaultSpec("G1", location=0.0, step=0.005, governor=False,
                        avr=False, t_hi=0.4)


def reference_cct(grid: GridModel, fault: CctFaultSpec) -> CctResult:
    """`find_cct`'s bisection on smib_grid, every probe a plain `simulate`
    from t = 0 over its whole window, judged by the largest rotor-angle
    spread from the clearing on.  Its faults start at 0.25 s, after a
    rest that `find_cct` does not integrate, so the search also checks
    that a fault's verdicts do not depend on when it starts.  A probe
    whose run raises `NumericalError` is unstable: a pole slip held for
    many seconds drives the speed past `_step`'s sanity bound.  A
    `location` of 0 faults the machine bus, any other one LINE at that
    fraction from it."""
    gen = grid.generator(fault.machine)
    dispatch = {fault.machine: fault.loading * gen.rated_kw}
    apply = (Event(0.25, "fault_apply", gen.bus) if fault.location == 0 else
             Event(0.25, "fault_apply", "LINE", location=fault.location))

    def stable(t_clear: float) -> bool:
        if t_clear <= 0:
            return True
        t_end = 0.25 + t_clear
        sched = EventSchedule((apply, Event(t_end, "fault_clear")))
        # the recording step nearest the window's end, as `find_cct` ends it
        step = fault.step
        probe_cfg = SimConfig(step, round((t_end + fault.window) / step) * step,
                              fault.governor, fault.avr)
        try:
            ts = simulate(grid, sched, (), probe_cfg, dispatch=dispatch)
        except NumericalError:
            return False
        deltas = np.vstack([ts[name] for name in ts.channels
                            if name.endswith(".delta_rad")])
        spread = deltas.max(axis=0) - deltas.min(axis=0)
        return spread[ts.t >= t_end - 1e-9].max() < math.pi

    lo, hi = fault.t_lo, fault.t_hi
    transcript = [(lo, stable(lo)), (hi, stable(hi))]
    while hi - lo > fault.tol:
        mid = 0.5 * (lo + hi)
        ok = stable(mid)
        transcript.append((mid, ok))
        lo, hi = (mid, hi) if ok else (lo, mid)
    return CctResult(cct=lo, interval=(lo, hi), transcript=tuple(transcript))


def reference_solve(engine, x: np.ndarray, t: float):
    """`_Engine._solve` as it was before linear islands were solved in
    closed form and before islands kept their demand matrix: every
    solve reads the load factors, assembles M and takes the fixed point
    on every island, with or without demands."""
    e = x[:, 2] * np.exp(1j * x[:, 0])
    vb = np.empty(len(x), dtype=complex)
    for isl in engine.islands:
        lf = np.ones(len(isl.cons_ids))
        for j, lid in enumerate(isl.load_ids):
            lf[j] = engine._load_factor(lid, t)
        isl.lf = lf
        inj = -isl.cons_s * lf
        if isl.inv_ids:
            inj = np.concatenate((inj, [
                complex(*engine.controllers[c].setpoint) / S_BASE_KVA
                for c in isl.inv_ids]))
        m = isl.z * np.conj(isl.inc @ inj)
        w = isl.src @ e
        v = isl.v
        v[len(isl.net.nodes):] = 1.0
        for _ in range(400):
            v_new = w + m @ (v / np.maximum(np.abs(v) ** 2, V_FLOOR ** 2))
            err = float(np.abs(v_new - v).max())
            if not math.isfinite(err):
                raise NumericalError("network solve produced non-finite V")
            v = v_new
            if err <= 1e-10:
                break
        else:
            raise NumericalError(
                f"network fixed point not converged at t={t:.4f} s")
        isl.v = v
        vb[isl.mach] = v[isl.mach_node]
    s = vb * np.conj((e - vb) / engine.m.jxdp)
    return s.real, s.imag, np.abs(vb)
