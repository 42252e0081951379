"""Critical clearing time by bisection, checked against the equal-area rule.

The machine-and-stiff-source case has a closed-form answer: with the fault
at the machine bus the electrical power is zero while the fault is on, so
the equal-area criterion gives the critical angle and the fault-on swing is
a pure quadratic.  The bisection search over simulated clearing times must
land on the same value.

Run:  python demos/07_critical_clearing_time.py
"""

import math

from vesselstudy import SimConfig, find_cct
from vesselstudy.grid import Bus, CableBranch, GeneratorDynamicParams, GeneratorSpec, GridModel
from vesselstudy.tdsim import CctFaultSpec


def smib() -> GridModel:
    zb = 690.0 ** 2 / 1e6
    return GridModel(
        "smib",
        buses=(Bus("B_M", "ac", 690.0, 60.0), Bus("B_INF", "ac", 690.0, 60.0)),
        branches=(CableBranch("LINE", "B_M", "B_INF", 0.0, 0.4 * zb),),
        generators=(
            GeneratorSpec(
                "G1", "B_M", 1000.0, 900.0, 690.0, 836.74, 60.0, 0.90, 900.0,
                1.0, dynamics=GeneratorDynamicParams(
                    xd=1.8, xd_t=0.3, xd_st=0.2, td0_t=5.0, td0_st=0.05,
                    tdc=0.1, inertia_h=3.5, damping=0.0, synthetic=True)),
            GeneratorSpec(
                "IB", "B_INF", 1e6, 9e5, 690.0, 836740.0, 60.0, 0.90, 900.0,
                1.0, dynamics=GeneratorDynamicParams(
                    xd=3e-5, xd_t=2e-5, xd_st=1e-5, td0_t=100.0, td0_st=1.0,
                    tdc=0.1, inertia_h=1e7, damping=0.0, synthetic=True)),
        ))


def equal_area(pm, h=3.5, xdp=0.3, xline=0.4, f=60.0):
    th = math.asin(pm * xline)
    vm = complex(math.cos(th), math.sin(th))
    ep = vm + 1j * xdp * (vm - 1.0) / (1j * xline)
    d0 = math.atan2(ep.imag, ep.real)
    dmax = math.pi - d0
    dc = math.acos(math.sin(d0) * (dmax - d0) + math.cos(dmax))
    return math.sqrt(4.0 * h * (dc - d0) / (2.0 * math.pi * f * pm))


grid = smib()
bare = SimConfig(step=0.005, governor=False, avr=False)
for loading in (0.90, 0.95):
    res = find_cct(grid, CctFaultSpec("G1", loading=loading, location=0.0),
                   t_lo=0.0, t_hi=0.4, tol=1e-3, cfg=bare, window=2.0)
    oracle = equal_area(loading * 0.9)
    print(f"loading {loading:.0%}: bisection CCT = {res.cct*1e3:.1f} ms "
          f"(interval {1e3*(res.interval[1]-res.interval[0]):.2f} ms, "
          f"{len(res.transcript)} probes), equal-area = {oracle*1e3:.1f} ms")
