"""Steady state: Newton-Raphson load flow and the DC power balance.

Run:  python demos/02_powerflow.py
"""

from vesselstudy import (
    builtin_fixture,
    prefault_operating_point,
    solve_ac_powerflow,
    solve_dc_balance,
)

ac = builtin_fixture("ac_vessel")
sol = solve_ac_powerflow(ac)
print(f"ac_vessel: converged in {sol.iterations} iterations, "
      f"max mismatch {sol.max_mismatch:.2e} pu, slack {sol.slack_elements[0]}")
for bus in sorted(sol.v_pu):
    print(f"  {bus:10s} {sol.v_pu[bus]:.5f} pu  {sol.angle_rad[bus]:+.5f} rad")

# The machine terminal state feeds the short-circuit engine.
op = prefault_operating_point(ac, sol, "DG#01")
print(f"\nDG#01 pre-fault: U0 = {op.u0:.1f} V, I0 = {op.i0:.1f} A, "
      f"phi0 = {op.phi0:.4f} rad")

# On the DC vessel the chargers restore the island power balance; the DC
# network itself (cable drops, droop) is deliberately not solved.
dc = builtin_fixture("dc_vessel")
bal = solve_dc_balance(dc)
print("\ndc_vessel power balance:")
for cid, kw in sorted(bal.transfers_kw.items()):
    print(f"  {cid:10s} transfers {kw:7.2f} kW")
for gid, kw in sorted(bal.source_output_kw.items()):
    print(f"  {gid:10s} outputs   {kw:7.2f} kW")
print(f"  losses {bal.losses_kw:.2f} kW, residual {bal.residual_kw:.2e} kW")
