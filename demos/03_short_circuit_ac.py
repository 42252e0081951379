"""AC short circuit by the marine decrement-curve method.

Shows a single-machine decrement curve, the motor-group and drive
contributions, and a full bus fault aggregation with the half-cycle peak
composition ip = sqrt(2) * Iac(T/2) + idc(T/2).

Run:  python demos/03_short_circuit_ac.py [outdir]
"""

import math
import sys

from vesselstudy import (
    builtin_fixture,
    fault_summary,
    motor_group_sc_trace,
    solve_ac_powerflow,
    vfd_contribution,
)
from vesselstudy.report import ac_summary_rows, ac_trace_csv, render_table, write_artifact
from vesselstudy.sc_ac import default_time_grid

grid = builtin_fixture("ac_vessel")
sol = solve_ac_powerflow(grid)
tgrid = default_time_grid()   # 0-1 s, as the bus-fault engine samples

# Crane lumped load: 80 % motor at pf 0.75 behind a 6.25x locked-rotor start.
crane = grid.load("CRANE_PS")
motor = motor_group_sc_trace(crane, 690.0, tgrid, 60.0)
print(f"crane motor group: I''M = {motor.i_kd_st:.0f} A, "
      f"Iac(T/2) = {motor.iac_half:.0f} A")

# Drives contribute at their current-limiter setting (150 % by default).
drive = grid.converter("THR_PROP_PS")
print(f"{drive.id}: constant {vfd_contribution(drive, tgrid, 60.0).iac_half:.0f} A")

# Aggregate everything feeding a port-side main bus fault.
summ = fault_summary(grid, "AC_PS", sol)
print(f"\nfault at AC_PS ({len(summ.traces)} contributors):")
header, rows = ac_summary_rows(summ)
print(render_table(header, [
    tuple(f"{v:.0f}" if isinstance(v, float) else v for v in row)
    for row in rows]))
assert summ.ip == math.sqrt(2) * summ.iac_half_cycle + summ.idc_half_cycle

if len(sys.argv) > 1:
    out = sys.argv[1]
    for cid, tr in summ.traces.items():
        write_artifact(out, f"trace_{cid.replace('#', '_')}.csv",
                       ac_trace_csv(tr))
    print(f"wrote per-contributor traces to {out}/")
