import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from vesselstudy import (
    SteadyState,
    prefault_operating_point,
    solve_ac_powerflow,
    solve_dc_balance,
)
from vesselstudy.grid import (
    Bus,
    ConverterSpec,
    GeneratorSpec,
    GridModel,
    InputError,
    LoadSpec,
    NumericalError,
    validate,
)

from helpers import (gauss_seidel_two_bus, ps_island, single_gen_grid,
                     split_frequency_grid, two_bus_grid)

# frozen before the build from an independent Gauss-Seidel iteration of the
# two-bus case (line z = 0.01 + j0.10 pu, load 1.0 + j0.5 pu)
TWO_BUS_V2 = 0.9254115654281159 - 0.095j


def test_single_bus_no_load_identity():
    sol = solve_ac_powerflow(single_gen_grid())
    assert sol.v_pu["B1"] == 1.0
    assert sol.angle_rad["B1"] == 0.0
    assert sol.iterations == 0
    assert sol.injections_kw["G1"] == (0.0, 0.0)


def test_two_bus_against_independent_oracle():
    sol = solve_ac_powerflow(two_bus_grid(1.0, 0.5), SteadyState(tol=1e-10))
    v2 = sol.v_pu["B2"] * np.exp(1j * sol.angle_rad["B2"])
    oracle = gauss_seidel_two_bus(1.0, 0.5)
    assert oracle == pytest.approx(TWO_BUS_V2, abs=1e-12)
    assert abs(v2 - oracle) < 1e-8
    assert sol.max_mismatch <= 1e-10


def test_infeasible_load_raises_non_convergence():
    with pytest.raises(NumericalError, match=r"diverged: voltage left"):
        solve_ac_powerflow(two_bus_grid(50.0, 0.0))


def test_slack_angle_is_zero(ac_vessel):
    sol = solve_ac_powerflow(ac_vessel)
    slack_bus = ac_vessel.generator(sol.slack_elements[0]).bus
    assert sol.angle_rad[slack_bus] == 0.0


def test_fixture_convergence_budget(ac_vessel, dc_vessel):
    for grid in (ac_vessel, dc_vessel):
        sol = solve_ac_powerflow(grid)
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-8


def test_power_conservation(ac_vessel):
    sol = solve_ac_powerflow(ac_vessel)
    # sum of all element injections is exactly the network losses
    loss = sum(p for p, _ in sol.injections_kw.values())
    assert loss >= 0.0
    gen = sum(p for eid, (p, _) in sol.injections_kw.items()
              if eid.startswith("DG"))
    load = -sum(p for eid, (p, _) in sol.injections_kw.items()
                if not eid.startswith("DG"))
    assert gen == pytest.approx(load + loss, abs=1e-8 * 1000)


def test_unloaded_feeder_keeps_source_voltage(ac_vessel):
    # open the 440 V load: its feeder then carries nothing
    grid = ac_vessel.with_breaker_states({"CB_LOAD440_PS": False})
    sol = solve_ac_powerflow(grid)
    assert sol.v_pu["LV_PS"] == pytest.approx(sol.v_pu["AC_PS"], abs=1e-9)


def test_dead_islands_report_zero_voltage(ac_vessel):
    sol = solve_ac_powerflow(ps_island(ac_vessel))
    assert sol.v_pu["AC_SB"] == 0.0
    assert sol.v_pu["AC_PS"] == 1.0


def test_dispatch_override(ac_vessel):
    sol = solve_ac_powerflow(ac_vessel, SteadyState(dispatch={"DG#01": 1200.0}))
    assert sol.injections_kw["DG#01"][0] == pytest.approx(1200.0)


def test_a_steady_state_keeps_its_own_maps(ac_vessel):
    """Mutating the dicts a SteadyState was built from changes neither the
    spec nor its power flow; a pickled or deep-copied spec is equal to it."""
    dispatch, scale = {"DG#01": 1200.0}, {"LOAD440_PS": 0.5}
    steady = SteadyState(dispatch=dispatch, load_scale=scale)
    before = solve_ac_powerflow(ac_vessel, steady)
    dispatch["DG#01"], scale["LOAD440_PS"] = 300.0, 2.0
    assert steady == SteadyState(dispatch={"DG#01": 1200.0},
                                 load_scale={"LOAD440_PS": 0.5})
    assert solve_ac_powerflow(ac_vessel, steady) == before
    assert pickle.loads(pickle.dumps(steady)) == steady
    assert copy.deepcopy(steady) == steady


@pytest.mark.parametrize("kwargs, message", [
    ({"dispatch": {"NOPE": 100.0}}, "unknown generator 'NOPE'"),
    ({"dispatch": {"LOAD440_PS": 100.0}}, "unknown generator 'LOAD440_PS'"),
    ({"load_scale": {"NOPE2": 3.0}}, "unknown load 'NOPE2'"),
    ({"slack": "NOPE3"}, "unknown generator 'NOPE3'"),
    ({"tol": -1e-8}, r"need tol in \[0, inf\), got tol = -1e-08"),
    ({"tol": math.nan}, r"need tol in \[0, inf\), got tol = nan"),
    # a None map used to mean "none given"; an empty map is the default
    ({"dispatch": None}, r"need dispatch in \[0, inf\), got dispatch = None"),
    ({"load_scale": None},
     r"need load_scale in \[0, inf\), got load_scale = None"),
    # a float max_iter used to raise TypeError from range()
    ({"max_iter": 2.5}, "need an integral max_iter, got max_iter = 2.5"),
])
def test_refuses_bad_study_values(ac_vessel, kwargs, message):
    """Each id the solve is given must name an element of its kind, and
    the tolerance must be >= 0: the library refuses what the CLI does."""
    with pytest.raises(InputError, match=message):
        solve_ac_powerflow(ac_vessel, SteadyState(**kwargs))


def test_an_integral_float_max_iter_runs_as_its_int(ac_vessel):
    assert (solve_ac_powerflow(ac_vessel, SteadyState(max_iter=4.0))
            == solve_ac_powerflow(ac_vessel, SteadyState(max_iter=4)))
    with pytest.raises(NumericalError, match="not converged after 1 iter"):
        solve_ac_powerflow(ac_vessel, SteadyState(max_iter=1.0))


def test_refuses_an_offline_slack(ac_vessel):
    grid = ac_vessel.with_breaker_states({"CB_DG01": False})
    with pytest.raises(InputError, match="slack generator 'DG#01' is offline"):
        solve_ac_powerflow(grid, SteadyState(slack="DG#01"))


def test_refuses_an_island_that_mixes_frequencies(ac_vessel):
    """Closing the tie used to run the joined island at AC_MID's 60 Hz."""
    grid = split_frequency_grid(ac_vessel)
    assert validate(grid).ok()
    solve_ac_powerflow(grid)
    joined = grid.with_breaker_states({"CB_TIE_MID_SB": True})
    message = "island at AC_MID mixes frequencies [50.0, 60.0]"
    assert [(v.element_id, v.rule, v.message) for v in validate(joined)] == [
        ("AC_MID", "island frequency", message)]
    with pytest.raises(InputError, match=re.escape(message)):
        solve_ac_powerflow(joined)


class TestDcBalance:
    def test_single_charger_two_stages(self, dc_vessel):
        sol = solve_dc_balance(dc_vessel)
        # port island: one charger serves the 400 kVA pf 0.85 board = 340 kW
        # through two conversion stages
        assert sol.transfers_kw["CH#01"] == pytest.approx(340.0 / 0.97 ** 2)
        assert sol.residual_kw == pytest.approx(0.0, abs=1e-9)

    def test_equal_chargers_share_equally(self, dc_vessel):
        # starboard island: two identical chargers behind identical machines;
        # the 400 V board load passes two conversion stages
        sol = solve_dc_balance(dc_vessel)
        assert sol.transfers_kw["CH#02"] == sol.transfers_kw["CH#03"]
        served = sol.loads_kw["GINV_SB:ac"]
        assert sol.transfers_kw["CH#02"] == pytest.approx(served / 0.97 ** 2 / 2)

    @pytest.mark.parametrize("drive, each", [
        (None, 309.27835051546393),
        ("inverter", (500.0 + 100.0 / 0.97) / 0.97 / 2),
        ("dcdc", (500.0 + 100.0 / 0.97) / 0.97 / 2)])
    def test_hand_arithmetic_split(self, drive, each):
        # two equal chargers, 600 kW of load, 0.97 per stage: 600/0.97/2
        # each; a 100 kW drive on the DC bus in place of 100 kW of the load
        # draws 100/0.97 through its own stage
        grid = _dc_pair_grid(load_kw=600.0 if drive is None else 500.0,
                             drive=drive)
        sol = solve_dc_balance(grid)
        assert sol.transfers_kw["CH_A"] == pytest.approx(each)
        assert sol.transfers_kw["CH_B"] == pytest.approx(each)
        if drive is not None:
            assert sol.transfers_kw["DRIVE"] == pytest.approx(100.0 / 0.97)
            assert sol.loads_kw["DRIVE:load"] == 100.0

    def test_overload_raises_capacity_error(self):
        grid = _dc_pair_grid(load_kw=2000.0, single=True)
        with pytest.raises(NumericalError, match="exceeds online source"):
            solve_dc_balance(grid)

    def test_residual_closes(self, dc_vessel):
        sol = solve_dc_balance(dc_vessel)
        assert sol.residual_kw == pytest.approx(0.0, abs=1e-9)


def _dc_pair_grid(load_kw: float, single: bool = False,
                  drive: str | None = None) -> GridModel:
    buses = (
        Bus("DCB", "dc", 650.0),
        Bus("GA", "ac", 400.0, 50.0),
        Bus("GB", "ac", 400.0, 50.0),
    )
    def gen(gid, bus):
        return GeneratorSpec(gid, bus, 582.0, 465.6, 400.0, 840.0, 50.0,
                             0.80, 1500.0, 3.4)
    gens = (gen("GEN_A", "GA"),) if single else (gen("GEN_A", "GA"),
                                                 gen("GEN_B", "GB"))
    convs = [ConverterSpec("CH_A", "DCB", "charger", 850.0, 552.5, ac_bus="GA")]
    if not single:
        convs.append(ConverterSpec("CH_B", "DCB", "charger", 850.0, 552.5,
                                   ac_bus="GB"))
    if drive is not None:   # a 100 kW inverter or dcdc drive
        convs.append(ConverterSpec("DRIVE", "DCB", drive, 150.0, 100.0,
                                   p_set_kw=100.0))
    loads = (LoadSpec("DCLOAD", "DCB", load_kw, 1.0, 0.0),)
    return GridModel("pair", buses=buses, generators=gens,
                     converters=tuple(convs), loads=loads)


class TestOperatingPoint:
    def test_no_load(self):
        grid = single_gen_grid()
        op = prefault_operating_point(grid, solve_ac_powerflow(grid), "G1")
        assert op.i0 == 0.0
        assert op.u0 == 690.0

    def test_rated_point_of_main_generator(self):
        # 1916 kW + 1437 kvar at 690 V is the DG#01 nameplate point
        grid = single_gen_grid(1916.0, 1437.0)
        op = prefault_operating_point(grid, solve_ac_powerflow(grid), "G1")
        assert op.i0 == pytest.approx(2004.0, rel=2e-3)
        assert op.phi0 == pytest.approx(math.acos(0.80), rel=1e-3)

    def test_ninety_percent_dispatch(self):
        grid = single_gen_grid(0.9 * 1916.0, 0.9 * 1437.0)
        op = prefault_operating_point(grid, solve_ac_powerflow(grid), "G1")
        assert op.i0 == pytest.approx(0.9 * 2004.0, rel=5e-3)

    def test_offline_machine_rejected(self, ac_vessel):
        grid = ac_vessel.with_breaker_states({"CB_DG01": False})
        sol = solve_ac_powerflow(grid)
        with pytest.raises(InputError, match="'DG#01' is offline") as exc:
            prefault_operating_point(grid, sol, "DG#01")
        assert not str(exc.value).startswith("unknown")

    def test_absent_machine_rejected(self):
        grid = single_gen_grid()
        with pytest.raises(InputError, match="^unknown generator 'DG#99'$"):
            prefault_operating_point(grid, solve_ac_powerflow(grid), "DG#99")


@pytest.mark.parametrize("voltage, x_ohm", [(1e300, None), (1e-300, None),
                                            (1e150, 1e-300)])
def test_a_base_voltage_beyond_float_range_is_a_numerical_error(
        ac_vessel, voltage, x_ohm):
    """The main busbar's supernode is named after AC_MID, whose voltage is
    the per-unit base of the cables leaving it: squared, 1e300 overflowed
    and 1e-300 divided by zero, and a lossless cable's 1e-300 ohm became
    0 pu, all with a traceback."""
    buses = tuple(dataclasses.replace(b, nominal_voltage=voltage)
                  if b.id == "AC_MID" else b for b in ac_vessel.buses)
    branches = tuple(dataclasses.replace(b, resistance_ohm=0.0,
                                         reactance_ohm=x_ohm)
                     if b.id == "FDR_LV_PS" and x_ohm else b
                     for b in ac_vessel.branches)
    grid = dataclasses.replace(ac_vessel, buses=buses, branches=branches)
    with pytest.raises(NumericalError, match=re.escape(
            f"FDR_LV_PS: base voltage {voltage!r} V puts its per-unit "
            "impedance out of float range")):
        solve_ac_powerflow(grid)
