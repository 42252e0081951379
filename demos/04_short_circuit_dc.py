"""DC fault currents: RLC link discharge, battery rise, fuse clearing.

Reproduces the reference figures for the DC vessel: the 2400 uF /
54.7 mohm / 5.5 uH converter link peaks in 0.134 ms, the battery rises to
14.9 kA with a 0.16 ms time constant, a port-side bus fault sustains
16.175 kA, and a 9350 A^2s fuse clears the link discharge at ~0.35 ms.

Run:  python demos/04_short_circuit_dc.py [outdir]
"""

import sys

from vesselstudy import (
    battery_sc_trace,
    builtin_fixture,
    capacitor_sc_trace,
    dc_fault_summary,
    fuse_i2t_clearing,
)
from vesselstudy.grid import CapacitorBranch, FuseSpec
from vesselstudy.report import dc_trace_csv, write_artifact
from vesselstudy.sc_dc import default_time_grid

TGRID = default_time_grid()   # 0-5 ms at 0.5 us, as the bus-fault engine

link = CapacitorBranch(capacitance=2400e-6, series_resistance=54.7e-3,
                       series_inductance=5.5e-6, initial_voltage=650.0)
cap = capacitor_sc_trace(link, TGRID)
print(f"converter DC link: {cap.regime}, peak {cap.peak_current:.0f} A "
      f"at {cap.time_to_peak*1e3:.3f} ms")

grid = builtin_fixture("dc_vessel")
bat = battery_sc_trace(grid.batteries[0], TGRID)
print(f"battery: rises to {bat.sustained:.0f} A "
      f"(t = tau gives {0.6321*bat.sustained:.0f} A)")

summ = dc_fault_summary(grid, "DC_PS")
print(f"\nfault on DC_PS (split bus): sustained {summ.sustained:.0f} A")
for cid, tr in sorted(summ.traces.items()):
    print(f"  {cid:14s} {tr.regime:16s} sustained {tr.sustained:7.0f} A")

# Fuse pairing: the let-through of the link discharge against a 9350 A^2s
# total-clearing rating.  The initial voltage here is back-solved from the
# published crossing; see the package README for the derivation note.
fig6 = capacitor_sc_trace(CapacitorBranch(
    capacitance=2400e-6, series_resistance=54.7e-3, series_inductance=5.5e-6,
    initial_voltage=659.67), TGRID)
fuse = FuseSpec("170M1790", "link", 9350.0)
t_clear = fuse_i2t_clearing(fig6, fuse)
print(f"\nfuse {fuse.id}: clears the link discharge at {t_clear*1e3:.3f} ms")
print("the same fuse on the battery trace:",
      f"{fuse_i2t_clearing(bat, fuse)*1e3:.3f} ms")

if len(sys.argv) > 1:
    out = sys.argv[1]
    write_artifact(out, "cap_discharge.csv", dc_trace_csv(cap))
    write_artifact(out, "dc_ps_total.csv", dc_trace_csv(summ.total, total=True))
    print(f"\nwrote waveforms to {out}/")
