"""One query gives every engine an island's online elements, so the power
flow and the time-domain engine agree on who feeds and who draws."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from vesselstudy import (EventSchedule, SimConfig, builtin_fixture,  # noqa: E402
                         simulate, solve_ac_powerflow, solve_dc_balance)
from vesselstudy.grid import (BreakerSpec, Bus, ConverterSpec,  # noqa: E402
                             NumericalError)

from helpers import single_gen_grid  # noqa: E402


def grid_inverter_grid():
    """single_gen_grid(500, 100) with a DC bus whose grid inverter feeds B1
    at a 200 kW set-point; breakers on the load and on the inverter."""
    grid = single_gen_grid(500.0, 100.0)
    return dataclasses.replace(
        grid, buses=grid.buses + (Bus("DC1", "dc", 1000.0),),
        converters=(ConverterSpec("GI", "DC1", "grid_inverter", 1000.0, 600.0,
                                  ac_bus="B1", p_set_kw=200.0),),
        breakers=(BreakerSpec("CB_L1", "L1", "B1"),
                  BreakerSpec("CB_GI", "GI", "B1")))


GRIDS = {"ac_vessel": builtin_fixture("ac_vessel"),
         "dc_vessel": builtin_fixture("dc_vessel"),
         "grid_inverter": grid_inverter_grid()}


def test_converters_couple_by_the_kind_of_the_island():
    grid = GRIDS["dc_vessel"]
    ac = grid.online_elements(grid.island_of("LV_PS"))
    dc = grid.online_elements(grid.island_of("DC_PS"))
    assert [c.id for c in ac.converters] == ["GINV_PS"]
    assert [l.id for l in ac.loads] == ["LOAD400_PS"]
    assert ac.generators == ac.batteries == ()
    assert [c.id for c in dc.converters] == [
        "CH#01", "INV_PROP_PS", "INV_BOW1", "INV_BOW2", "GINV_PS"]
    assert [b.id for b in dc.batteries] == ["BAT_PS"]
    gen1 = grid.online_elements(grid.island_of("GEN1_AC"))
    assert [c.id for c in gen1.converters] == ["CH#01"]
    off = grid.with_breaker_states({"CB_GEN1": False})
    assert off.online_elements(off.island_of("GEN1_AC")).generators == ()


def test_grid_inverter_is_not_a_draw():
    """The inverter feeds B1; its set-point is no load on G1.  `validate`
    refuses such a set-point, and the engines ignore it all the same."""
    grid = GRIDS["grid_inverter"]
    sol = solve_ac_powerflow(grid)
    ts = simulate(grid, EventSchedule(), cfg=SimConfig(step=0.005, end=0.01))
    assert sol.injections_kw["G1"][0] == pytest.approx(500.0, abs=1e-6)
    assert ts["G1.p_kw"][0] == pytest.approx(500.0, abs=1e-6)
    assert "GI.p_kw" not in ts.channels


def test_dc_balance_follows_the_power_flow_slack():
    """G1 is B1's slack, so GI carries none of its load: the DC balance
    used to draw all 515.5 kW through GI and raise a NumericalError."""
    grid = GRIDS["grid_inverter"]
    assert solve_ac_powerflow(grid).slack_elements == ("G1",)
    bal = solve_dc_balance(grid)
    assert "GI" not in bal.transfers_kw
    assert bal.residual_kw == 0.0
    # without G1, GI is the slack and draws B1's load over the efficiency
    no_gen = dataclasses.replace(grid, generators=())
    assert solve_ac_powerflow(no_gen).slack_elements == ("GI",)
    with pytest.raises(NumericalError, match="load 515.5 kW exceeds"):
        solve_dc_balance(no_gen)


def test_slack_grid_inverter_serves_the_island_converter_draws():
    """The power flow has the slack GI supply B1's 500 kW load and a
    100 kW drive; the DC balance draws both through GI."""
    grid = GRIDS["grid_inverter"]
    drive = ConverterSpec("D1", "B1", "inverter", 200.0, 150.0, p_set_kw=100.0)
    no_gen = dataclasses.replace(grid, generators=(),
                                 converters=grid.converters + (drive,))
    sol = solve_ac_powerflow(no_gen)
    assert sol.injections_kw["GI"][0] == pytest.approx(600.0, rel=1e-6)
    with pytest.raises(NumericalError,
                       match=f"load {600 / 0.97:.1f} kW exceeds"):
        solve_dc_balance(no_gen)


@st.composite
def switched_grids(draw):
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    return grid.with_breaker_states(
        {b.id: draw(st.booleans()) for b in grid.breakers})


@settings(deadline=None, max_examples=100, derandomize=True)
@given(switched_grids())
def test_simulation_starts_at_the_power_flow(grid):
    """With no events, each online generator's P and Q at t = 0 are the
    power flow's, within 1e-6 kW, whatever the breaker states."""
    try:
        sol = solve_ac_powerflow(grid)
    except NumericalError as exc:
        assert "to act as slack" in str(exc)
        assume(False)
    ts = simulate(grid, EventSchedule(), cfg=SimConfig(step=0.005, end=0.01))
    online = [g.id for g in grid.generators if g.id in sol.injections_kw]
    assert online == [g.id for g in grid.generators
                      if grid.element_online(g.id)]
    for gen_id in online:
        p, q = sol.injections_kw[gen_id]
        assert abs(ts[f"{gen_id}.p_kw"][0] - p) <= 1e-6, gen_id
        assert abs(ts[f"{gen_id}.q_kvar"][0] - q) <= 1e-6, gen_id
