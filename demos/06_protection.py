"""Breaker coordination for a generator-terminal fault.

Without lock signals every breaker that detects the fault opens at its
216 ms short-time delay and the whole switchboard goes dark.  With
zone-selective interlocking the breaker nearest the fault keeps its normal
delay while everything else is pushed onto the extended backup delay.

Run:  python demos/06_protection.py
"""

from vesselstudy import (
    apply_zsi,
    build_breaker_graph,
    builtin_fixture,
    fault_summary,
    selectivity_check,
    sequence_of_operations,
    solve_ac_powerflow,
)

grid = builtin_fixture("ac_vessel")
sol = solve_ac_powerflow(grid)
summ = fault_summary(grid, "AC_PS", sol)

graph = build_breaker_graph(grid, summ, fault_element="DG#01")
print("fault between DG#01 and its breaker; per-breaker fault current:")
for bid, flow in sorted(graph.flows.items()):
    tag = "  <- nearest" if flow.adjacent_to_fault else ""
    print(f"  {bid:16s} {flow.current_a/1e3:7.2f} kA toward {flow.toward}{tag}")

zsi = apply_zsi(graph)
print(f"\nlock signals: {sorted(zsi.nearest)} lock {len(zsi.locked)} breakers")
for emitter, locked in zsi.trace[:5]:
    print(f"  {emitter} -> {locked}")

for enabled in (False, True):
    events = sequence_of_operations(grid, summ, fault_element="DG#01",
                                    zsi_enabled=enabled)
    rep = selectivity_check(events, cct_budget=0.542)
    label = "with ZSI" if enabled else "no ZSI"
    print(f"\n{label}: first {events[0].breaker_id} at "
          f"{events[0].time_s*1e3:.0f} ms, last at "
          f"{events[-1].time_s*1e3:.0f} ms -> selective={rep.selective}, "
          f"within CCT budget={rep.cleared_within_cct} "
          f"(margin {rep.cct_margin_s*1e3:.0f} ms)")
