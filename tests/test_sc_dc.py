import math

import numpy as np
import pytest

from vesselstudy import (
    battery_sc_trace,
    capacitor_sc_trace,
    converter_sc_contribution,
    dc_fault_summary,
)
from vesselstudy.grid import (
    BatterySource,
    Bus,
    CapacitorBranch,
    ConverterSpec,
    GridModel,
    InputError,
)
from vesselstudy.sc_dc import default_time_grid

TGRID = default_time_grid()

# reference converter DC-link branch: 2400 uF, 54.7 mohm, 5.5 uH; the
# published time to peak is 0.134 ms and ip/EC = 10.69 A/V
FIG6_BRANCH = dict(capacitance=2400e-6, series_resistance=54.7e-3,
                   series_inductance=5.5e-6)


class TestCapacitor:
    def test_time_to_peak_matches_published_value(self):
        cap = CapacitorBranch(initial_voltage=650.0, **FIG6_BRANCH)
        tr = capacitor_sc_trace(cap, TGRID)
        assert tr.regime == "underdamped"
        assert tr.time_to_peak == pytest.approx(0.134e-3, rel=0.02)

    def test_time_to_peak_is_voltage_independent(self):
        tps = [capacitor_sc_trace(CapacitorBranch(
            initial_voltage=ec, **FIG6_BRANCH), TGRID).time_to_peak
            for ec in (100.0, 650.0, 1300.0)]
        assert tps[0] == tps[1] == tps[2]

    def test_peak_at_backsolved_voltage(self):
        # EC back-solved before the build: ip/EC = 10.69 A/V on this branch
        cap = CapacitorBranch(initial_voltage=650.0, **FIG6_BRANCH)
        tr = capacitor_sc_trace(cap, TGRID)
        assert tr.peak_current == pytest.approx(6950.0, rel=0.01)
        assert tr.peak_current / 650.0 == pytest.approx(10.69, rel=1e-3)

    def test_zero_initial_voltage_means_zero_current(self):
        cap = CapacitorBranch(initial_voltage=0.0, **FIG6_BRANCH)
        tr = capacitor_sc_trace(cap, TGRID)
        assert np.all(tr.i == 0.0)
        assert tr.peak_current == 0.0

    def test_peak_scales_linearly_with_voltage(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            branch = dict(
                capacitance=rng.uniform(1e-4, 1e-2),
                series_resistance=rng.uniform(1e-3, 0.5),
                series_inductance=rng.uniform(1e-6, 1e-4))
            k = rng.uniform(1.5, 4.0)
            a = capacitor_sc_trace(
                CapacitorBranch(initial_voltage=100.0, **branch), TGRID)
            b = capacitor_sc_trace(
                CapacitorBranch(initial_voltage=100.0 * k, **branch), TGRID)
            assert b.peak_current == pytest.approx(k * a.peak_current, rel=1e-12)
            assert b.time_to_peak == a.time_to_peak

    def test_overdamped_and_critical_regimes(self):
        # R large: overdamped; R = 2*sqrt(L/C): critically damped
        c, l = 2400e-6, 5.5e-6
        over = capacitor_sc_trace(CapacitorBranch(c, 1.0, l, 650.0), TGRID)
        assert over.regime == "overdamped"
        r_crit = 2.0 * math.sqrt(l / c)
        crit = capacitor_sc_trace(CapacitorBranch(c, r_crit, l, 650.0), TGRID)
        assert crit.regime == "critical"

    def test_regime_boundary_continuity(self):
        c, l, ec = 2400e-6, 5.5e-6, 650.0
        r_crit = 2.0 * math.sqrt(l / c)
        tgrid = np.linspace(0.0, 2e-3, 2001)
        lo = capacitor_sc_trace(
            CapacitorBranch(c, r_crit * (1 - 1e-6), l, ec), tgrid)
        hi = capacitor_sc_trace(
            CapacitorBranch(c, r_crit * (1 + 1e-6), l, ec), tgrid)
        assert lo.regime == "underdamped" and hi.regime == "overdamped"
        scale = np.max(np.abs(lo.i))
        assert np.max(np.abs(lo.i - hi.i)) / scale < 1e-3

    def test_energy_dissipated_equals_stored(self):
        # all of C EC^2 / 2 ends up in the series resistance
        cap = CapacitorBranch(initial_voltage=650.0, **FIG6_BRANCH)
        delta = cap.series_resistance / (2 * cap.series_inductance)
        tgrid = np.arange(0.0, 20.0 / delta, 0.2e-6)
        tr = capacitor_sc_trace(cap, tgrid)
        dissipated = np.trapezoid(tr.i ** 2 * cap.series_resistance, tgrid)
        stored = 0.5 * cap.capacitance * cap.initial_voltage ** 2
        assert dissipated == pytest.approx(stored, rel=0.005)

    def test_current_nonnegative_through_first_peak(self):
        cap = CapacitorBranch(initial_voltage=650.0, **FIG6_BRANCH)
        tr = capacitor_sc_trace(cap, TGRID)
        sel = tr.t <= 2.0 * tr.time_to_peak
        assert np.all(tr.i[sel] >= 0.0)


class TestBattery:
    def setup_method(self):
        self.bat = BatterySource("BAT", "DCB", 14900.0, 0.16e-3)

    def test_asymptote(self):
        tgrid = np.linspace(0.0, 0.05, 5001)
        tr = battery_sc_trace(self.bat, tgrid)
        assert tr.i[-1] == pytest.approx(14900.0, rel=1e-9)
        assert tr.sustained == 14900.0

    def test_starts_from_zero(self):
        tr = battery_sc_trace(self.bat, TGRID)
        assert tr.i[0] == 0.0

    def test_value_at_one_time_constant(self):
        tgrid = np.array([0.0, 0.16e-3])
        tr = battery_sc_trace(self.bat, tgrid)
        assert tr.i[-1] == pytest.approx(14900.0 * (1 - math.exp(-1)), rel=1e-12)
        assert tr.i[-1] == pytest.approx(9418.6, rel=1e-4)

    def test_without_datasheet_data_is_refused(self):
        bat = BatterySource("BAT", "DCB", None, 0.16e-3)
        with pytest.raises(InputError,
                           match="BAT: missing datasheet short-circuit data"):
            battery_sc_trace(bat, TGRID)

    def test_strictly_increasing_and_bounded(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            bat = BatterySource("B", "D", rng.uniform(1e3, 3e4),
                                rng.uniform(5e-5, 5e-3))
            tr = battery_sc_trace(bat, TGRID)
            assert np.all(np.diff(tr.i) > 0.0)
            assert np.all(tr.i < bat.sc_peak_current)


class TestConverterContribution:
    def test_charger_level(self):
        conv = ConverterSpec("CH", "DCB", "charger", 850.0, 552.5)
        tr = converter_sc_contribution(conv, TGRID)
        assert tr.sustained == 1275.0
        assert np.all(tr.i == 1275.0)

    def test_charger_identity_factor(self):
        conv = ConverterSpec("CH", "DCB", "charger", 850.0, 552.5,
                             sc_contribution_factor=1.0)
        assert converter_sc_contribution(conv, TGRID).sustained == 850.0

    def test_inverter_contributes_nothing(self):
        conv = ConverterSpec("INV", "DCB", "inverter", 1150.0, 550.0)
        tr = converter_sc_contribution(conv, TGRID)
        assert np.all(tr.i == 0.0)
        assert tr.sustained == 0.0


class TestDcFaultSummary:
    def test_port_side_sustained_total(self, dc_vessel):
        summ = dc_fault_summary(dc_vessel, "DC_PS")
        assert summ.sustained == 16175.0

    def test_split_bus_keeps_sides_apart(self, dc_vessel):
        summ = dc_fault_summary(dc_vessel, "DC_PS")
        assert "BAT_SB" not in summ.traces
        closed = dc_vessel.with_breaker_states({"CB_DCTIE": True})
        both = dc_fault_summary(closed, "DC_PS")
        assert "BAT_SB" in both.traces
        assert both.sustained == pytest.approx(2 * 14900.0 + 3 * 1275.0)

    def test_battery_only_equals_battery_trace(self):
        grid = GridModel(
            "bat", buses=(Bus("DCB", "dc", 650.0),),
            batteries=(BatterySource("BAT", "DCB", 14900.0, 0.16e-3),))
        summ = dc_fault_summary(grid, "DCB")
        alone = battery_sc_trace(grid.batteries[0], TGRID)
        assert np.array_equal(summ.total.i, alone.i)

    def test_aggregate_peak_bounds(self, dc_vessel):
        # add the DC-link branch to the port charger and re-aggregate
        from dataclasses import replace
        cap = CapacitorBranch(initial_voltage=650.0, **FIG6_BRANCH)
        convs = tuple(replace(c, dc_link=cap) if c.id == "CH#01" else c
                      for c in dc_vessel.converters)
        grid = replace(dc_vessel, converters=convs)
        summ = dc_fault_summary(grid, "DC_PS")
        singles = [tr.peak_current for tr in summ.traces.values()]
        assert max(singles) <= summ.peak <= sum(singles) + 1e-9
        assert "CH#01:dclink" in summ.traces

    def test_pointwise_linearity(self, dc_vessel):
        summ = dc_fault_summary(dc_vessel, "DC_PS")
        stack = np.sum([tr.i for tr in summ.traces.values()], axis=0)
        assert np.allclose(summ.total.i, stack)

    def test_ac_bus_rejected(self, dc_vessel):
        with pytest.raises(InputError, match="GEN1_AC is an AC bus; use the "
                           "AC fault engine"):
            dc_fault_summary(dc_vessel, "GEN1_AC")

    def test_isolated_bus_rejected(self):
        grid = GridModel("empty", buses=(Bus("DCB", "dc", 650.0),))
        with pytest.raises(InputError,
                           match="no contributors reachable from DCB"):
            dc_fault_summary(grid, "DCB")
