"""Time-domain runs: peak shaving and DP-mode generator failover.

Only the port side of the AC vessel runs, with DG#01 carrying just under
1.5 MW.  A load ramp pushes demand over the 80 % threshold and the battery
inverter supplies the surplus; in the failover case DG#02 trips and the
inverter latches its delayed pre-trip output.

Run:  python demos/05_time_domain.py [outdir]
"""

import dataclasses
import sys

from vesselstudy import (
    ControllerConfig,
    Event,
    EventSchedule,
    SimConfig,
    SteadyState,
    builtin_fixture,
    simulate,
)
from vesselstudy.report import timeseries_csv, write_artifact

OPEN_FOR_PS = ("CB_TIE_PS_MID", "CB_DG02", "CB_DG03", "CB_DG04", "CB_DG05",
               "CB_CRANE_SB", "CB_LOAD440_SB", "CB_THR_BOW2", "CB_THR_BOW3",
               "CB_THR_PROP_SB", "CB_INV_SB")

vessel = builtin_fixture("ac_vessel")

# --- peak shaving ---------------------------------------------------------
grid = vessel.with_breaker_states({b: False for b in OPEN_FOR_PS})
shaver = ControllerConfig(
    mode="peak_shave", inverter="INV_PS", watched=("DG#01",),
    p_threshold_kw=1500.0, q_threshold_kvar=1000.0,
    p_rating_kw=1500.0, q_rating_kvar=1500.0)
ramp = EventSchedule((
    Event(5.0, "load_step", "LOAD440_PS", scale=1.45, ramp=2.0),
    Event(9.0, "load_step", "LOAD440_PS", scale=1.0, ramp=2.0),
))
ts = simulate(grid, ramp, (shaver,), SimConfig(step=0.02, end=14.0))
print("peak shaving:")
print(f"  generator P stays at {ts['DG#01.p_kw'].max():.1f} kW "
      f"(threshold 1500 kW)")
print(f"  inverter supplies up to {ts['INV_PS.p_kw'].max():.1f} kW")

# --- DP failover ----------------------------------------------------------
grid2 = vessel.with_breaker_states(
    {b: False for b in OPEN_FOR_PS if b != "CB_DG02"})
grid2 = dataclasses.replace(grid2, converters=tuple(
    dataclasses.replace(c, p_set_kw=1000.0) if c.id == "THR_BOW1" else c
    for c in grid2.converters))
failover = ControllerConfig(mode="dp_failover", inverter="INV_PS",
                            watched=("DG#02",), p_rating_kw=1500.0,
                            q_rating_kvar=1500.0)
trip = EventSchedule((Event(2.0, "breaker_open", "CB_DG02"),))
ts2 = simulate(grid2, trip, (failover,), SimConfig(step=0.01, end=8.0),
               SteadyState(dispatch={"DG#01": 1200.0}))
pre = ts2["DG#02.p_kw"][ts2.t < 2.0][-1]
print("\nDP failover (DG#02 trips at t = 2 s):")
print(f"  inverter latches {ts2['INV_PS.p_kw'][-1]:.1f} kW "
      f"(DG#02 carried {pre:.1f} kW)")
print(f"  DG#01 settles back to {ts2['DG#01.p_kw'][-1]:.1f} kW "
      f"(pre-event {ts2['DG#01.p_kw'][0]:.1f} kW)")

if len(sys.argv) > 1:
    out = sys.argv[1]
    write_artifact(out, "peak_shaving.csv", timeseries_csv(ts))
    write_artifact(out, "dp_failover.csv", timeseries_csv(ts2))
    print(f"\nwrote channel CSVs to {out}/")
