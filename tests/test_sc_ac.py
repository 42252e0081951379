import dataclasses
import math

import numpy as np
import pytest

from vesselstudy import (
    convert_time_constants,
    fault_summary,
    machine_sc_trace,
    motor_group_sc_trace,
    short_circuit_time_constants,
    solve_ac_powerflow,
    vfd_contribution,
)
from vesselstudy.grid import (
    ConverterSpec,
    GeneratorDynamicParams,
    GeneratorSpec,
    InputError,
    LoadSpec,
)
from vesselstudy.powerflow import OperatingPoint
from vesselstudy.report import ac_summary_rows
from vesselstudy.sc_ac import default_time_grid

from helpers import ps_island, split_frequency_grid

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
TGRID = default_time_grid()


class TestTimeConstantConversion:
    def test_transient_ratio(self):
        td0_t, _ = convert_time_constants(2.0, 0.3, 0.2, 0.75, 0.02)
        assert td0_t == pytest.approx(5.0)

    def test_subtransient_ratio(self):
        _, td0_st = convert_time_constants(2.0, 0.3, 0.2, 0.75, 0.02)
        assert td0_st == pytest.approx(0.03)

    def test_identity_limit(self):
        # xd_t -> xd: the ratio goes to one and the constant is unchanged
        td0_t, _ = convert_time_constants(0.3 + 1e-12, 0.3, 0.2, 0.75, 0.02)
        assert td0_t == pytest.approx(0.75, rel=1e-9)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            convert_time_constants(0.3, 0.3, 0.2, 0.75, 0.02)
        with pytest.raises(ValueError):
            convert_time_constants(2.0, 0.3, 0.2, -1.0, 0.02)

    @pytest.mark.parametrize("td0", [(0.0, 0.03), (5.0, -0.03)])
    def test_short_circuit_rejects_a_non_positive_constant(self, td0):
        with pytest.raises(InputError, match="time constants must be > 0"):
            short_circuit_time_constants(2.0, 0.3, 0.2, *td0)

    def test_round_trip_is_exact(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            xd_st = rng.uniform(0.05, 0.3)
            xd_t = xd_st * rng.uniform(1.1, 3.0)
            xd = xd_t * rng.uniform(1.5, 8.0)
            td_t, td_st = rng.uniform(0.1, 2.0), rng.uniform(0.005, 0.05)
            td0 = convert_time_constants(xd, xd_t, xd_st, td_t, td_st)
            back = short_circuit_time_constants(xd, xd_t, xd_st, *td0)
            assert back[0] == pytest.approx(td_t, rel=1e-14)
            assert back[1] == pytest.approx(td_st, rel=1e-14)


def _ohmic_machine(xd_ohm, xd_t_ohm, xd_st_ohm, td_t, td_st, tdc, ikd):
    """Machine whose base impedance is 1 ohm, so pu equals ohms."""
    kva = 690.0 ** 2 / 1e3
    td0_t = td_t * xd_ohm / xd_t_ohm
    td0_st = td_st * xd_t_ohm / xd_st_ohm
    return GeneratorSpec(
        "G", "B", kva, 0.8 * kva, 690.0, kva * 1e3 / (SQRT3 * 690.0),
        60.0, 0.8, 720.0, 1.0,
        dynamics=GeneratorDynamicParams(
            xd=xd_ohm, xd_t=xd_t_ohm, xd_st=xd_st_ohm,
            td0_t=td0_t, td0_st=td0_st, tdc=tdc, ikd=ikd))


class TestMachineTrace:
    # no-load 690 V machine with X''d = 0.03, X'd = 0.05 ohm, Ikd = 3 kA,
    # T''d = 0.02 s, T'd = 0.5 s, Tdc = 0.04 s at 60 Hz
    def setup_method(self):
        self.gen = _ohmic_machine(0.132757, 0.05, 0.03, 0.5, 0.02, 0.04, 3000.0)
        self.op = OperatingPoint(u0=690.0, i0=0.0, phi0=0.0)

    def _oracle_half_cycle(self):
        # direct high-precision evaluation of the decrement formulas
        e = 690.0 / SQRT3
        i_st, i_t, ikd = e / 0.03, e / 0.05, 3000.0
        t = 1.0 / 120.0
        iac = ((i_st - i_t) * math.exp(-t / 0.02)
               + (i_t - ikd) * math.exp(-t / 0.5) + ikd)
        idc = SQRT2 * i_st * math.exp(-t / 0.04)
        return iac, idc

    def test_half_cycle_values(self):
        tr = machine_sc_trace(self.gen, self.op, TGRID, 60.0)
        iac_oracle, idc_oracle = self._oracle_half_cycle()
        assert iac_oracle == pytest.approx(11387.0, rel=1e-4)
        assert idc_oracle == pytest.approx(15248.0, rel=1e-4)
        assert tr.iac_half == pytest.approx(iac_oracle, rel=1e-3)
        assert tr.idc_half == pytest.approx(idc_oracle, rel=1e-3)

    def test_no_load_emf_identity(self):
        tr = machine_sc_trace(self.gen, self.op, TGRID, 60.0)
        # I''kd = E''q0 / X''d and I'kd = E'q0 / X'd, with both EMFs at U0
        assert tr.i_kd_st == pytest.approx(690.0 / SQRT3 / 0.03, rel=1e-12)
        assert tr.i_kd_t == pytest.approx(690.0 / SQRT3 / 0.05, rel=1e-12)

    def test_asymptote_is_steady_state_current(self):
        tgrid = np.array([0.0, 10.0, 50.0])
        tr = machine_sc_trace(self.gen, self.op, tgrid, 60.0)
        assert tr.iac[-1] == pytest.approx(3000.0, rel=1e-9)

    def test_envelope_composition(self):
        tr = machine_sc_trace(self.gen, self.op, TGRID, 60.0)
        assert np.allclose(tr.envelope, SQRT2 * tr.iac + tr.idc)

    def test_component_ordering_stored(self):
        tr = machine_sc_trace(self.gen, self.op, TGRID, 60.0)
        assert tr.i_kd_st >= tr.i_kd_t >= tr.i_kd

    def test_missing_dynamics(self):
        from dataclasses import replace
        gen = replace(self.gen, dynamics=None)
        with pytest.raises(InputError, match=": no dynamics block"):
            machine_sc_trace(gen, self.op, TGRID, 60.0)

    def test_ikd_estimated_when_absent(self):
        from dataclasses import replace
        d = self.gen.dynamics
        gen = replace(self.gen, dynamics=replace(d, ikd=None))
        tr = machine_sc_trace(gen, self.op, TGRID, 60.0)
        assert tr.ikd_source == "estimated"
        # the machine-formula asymptote: E'q0 / Xd
        assert tr.i_kd == pytest.approx((690.0 / SQRT3) / 0.132757, rel=1e-9)

    def test_tdc_estimated_when_absent(self):
        from dataclasses import replace
        d = self.gen.dynamics
        gen = replace(self.gen, dynamics=replace(d, tdc=None))
        tr = machine_sc_trace(gen, self.op, TGRID, 60.0)
        assert tr.tdc_source == "estimated"
        # T_dc = X''d / (2 pi f Ra), Ra = 1 mohm
        tdc = 0.03 / (2 * math.pi * 60.0 * 1e-3)
        i_st = (690.0 / SQRT3) / 0.03
        assert tr.idc_half == pytest.approx(
            SQRT2 * i_st * math.exp(-(1 / 120.0) / tdc), rel=1e-3)

    def test_monotone_decay_property(self):
        rng = np.random.RandomState(11)
        tgrid = default_time_grid()
        for _ in range(25):
            xd_st = rng.uniform(0.02, 0.08)
            xd_t = xd_st * rng.uniform(1.2, 2.5)
            xd = xd_t * rng.uniform(2.0, 6.0)
            gen = _ohmic_machine(xd, xd_t, xd_st,
                                 rng.uniform(0.2, 1.0), rng.uniform(0.01, 0.04),
                                 rng.uniform(0.02, 0.2), None)
            i0 = rng.uniform(0.0, 2000.0)
            op = OperatingPoint(690.0, i0, rng.uniform(0.0, 1.2))
            tr = machine_sc_trace(gen, op, tgrid, 60.0)
            assert np.all(np.diff(tr.iac) <= 1e-9)
            assert np.all(np.diff(tr.idc) < 0.0)
            assert np.all(tr.iac >= 0) and np.all(tr.idc >= 0)


class TestMotorGroup:
    def setup_method(self):
        self.crane = LoadSpec("CRANE", "B", 746.7, 0.75, 0.80,
                              xr_ratio=10.0)

    def test_motor_rated_current(self):
        tr = motor_group_sc_trace(self.crane, 690.0, TGRID, 60.0)
        i_rated = 0.80 * 746.7e3 / (SQRT3 * 690.0)
        assert i_rated == pytest.approx(499.9, rel=1e-3)
        assert tr.i_kd_st == pytest.approx(6.25 * i_rated)

    def test_locked_rotor_initial_value(self):
        tr = motor_group_sc_trace(self.crane, 690.0, TGRID, 60.0)
        assert tr.iac[0] == pytest.approx(3124.0, rel=1e-3)

    def test_zero_motor_fraction_rejected(self):
        static = LoadSpec("L", "B", 100.0, 0.9, 0.0)
        with pytest.raises(InputError, match="L: motor fraction is zero"):
            motor_group_sc_trace(static, 690.0, TGRID, 60.0)

    def test_missing_xr_rejected(self):
        load = LoadSpec("L", "B", 100.0, 0.9, 0.8)
        with pytest.raises(InputError, match="L: xr_ratio required"):
            motor_group_sc_trace(load, 690.0, TGRID, 60.0)

    def test_dc_time_constant_from_xr(self):
        tr = motor_group_sc_trace(self.crane, 690.0, TGRID, 60.0)
        tdc = 10.0 / (2 * math.pi * 60.0)
        expect = SQRT2 * tr.i_kd_st * math.exp(-(1 / 120.0) / tdc)
        assert tr.idc_half == pytest.approx(expect, rel=1e-12)


class TestVfd:
    def test_drive_contribution(self):
        conv = ConverterSpec("D", "B", "inverter", 1150.0, 550.0)
        tr = vfd_contribution(conv, TGRID, 60.0)
        assert np.all(tr.iac == 1725.0)
        assert np.all(tr.idc == 0.0)

    def test_identity_factor(self):
        conv = ConverterSpec("D", "B", "inverter", 1150.0, 550.0,
                             sc_contribution_factor=1.0)
        assert vfd_contribution(conv, TGRID, 60.0).iac_half == 1150.0

    def test_grid_inverter(self):
        conv = ConverterSpec("GI", "B", "grid_inverter", 2060.0, 600.0)
        assert vfd_contribution(conv, TGRID, 60.0).iac_half == pytest.approx(3090.0)

    def test_charger_is_not_ac_coupled(self):
        conv = ConverterSpec("CH", "B", "charger", 850.0, 552.5)
        with pytest.raises(InputError, match="CH: charger is not an AC-coupled"):
            vfd_contribution(conv, TGRID, 60.0)


class TestFaultSummary:
    def test_composition_identity_machine_precision(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        summ = fault_summary(ac_vessel, "AC_PS", sol)
        assert summ.ip == SQRT2 * summ.iac_half_cycle + summ.idc_half_cycle

    def test_totals_are_contributor_sums(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        summ = fault_summary(ac_vessel, "AC_PS", sol)
        assert summ.iac_half_cycle == pytest.approx(
            sum(tr.iac_half for tr in summ.traces.values()), rel=1e-14)
        assert summ.idc_half_cycle == pytest.approx(
            sum(tr.idc_half for tr in summ.traces.values()), rel=1e-14)

    def test_island_respects_open_ties(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        whole = fault_summary(ac_vessel, "AC_PS", sol)
        grid = ps_island(ac_vessel)
        sol_ps = solve_ac_powerflow(grid)
        split = fault_summary(grid, "AC_PS", sol_ps)
        assert set(split.traces) < set(whole.traces)
        assert "DG#03" not in split.traces
        assert split.iac_half_cycle < whole.iac_half_cycle

    def test_half_cycle_at_sixty_hertz(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        summ = fault_summary(ac_vessel, "AC_PS", sol)
        crane = ac_vessel.load("CRANE_PS")   # on the 690 V fault bus
        at = {f: motor_group_sc_trace(crane, 690.0, TGRID, f).iac_half
              for f in (50.0, 60.0)}
        assert summ.traces["CRANE_PS"].iac_half == at[60.0] != at[50.0]

    def test_a_bus_without_frequency_takes_its_islands(self, ac_vessel):
        """The fault bus used to run at 60 Hz, whatever its island's
        frequency."""
        grid = split_frequency_grid(ac_vessel)
        grid = dataclasses.replace(grid, buses=tuple(
            dataclasses.replace(b, frequency=None) if b.id == "LV_SB" else b
            for b in grid.buses))
        summ = fault_summary(grid, "LV_SB", solve_ac_powerflow(grid))
        load = grid.load("LOAD440_SB")
        v = grid.bus("LV_SB").nominal_voltage
        at = {f: motor_group_sc_trace(load, v, TGRID, f).iac_half
              for f in (50.0, 60.0)}
        assert summ.traces["LOAD440_SB"].iac_half == at[50.0] != at[60.0]

    def test_voltage_referral_of_lv_motor_group(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        summ = fault_summary(ac_vessel, "AC_PS", sol)
        own = motor_group_sc_trace(ac_vessel.load("LOAD440_PS"), 440.0,
                                   TGRID, 60.0)
        assert summ.traces["LOAD440_PS"].iac_half == pytest.approx(
            own.iac_half * 440.0 / 690.0)

    def test_isolated_bus_has_no_contributors(self, ac_vessel):
        states = {b.id: False for b in ac_vessel.breakers}
        grid = ac_vessel.with_breaker_states(states)
        sol = solve_ac_powerflow(ps_island(ac_vessel))
        with pytest.raises(InputError,
                           match="no contributors reachable from AC_MID"):
            fault_summary(grid, "AC_MID", sol)

    def test_dc_bus_rejected(self, dc_vessel):
        sol = solve_ac_powerflow(dc_vessel)
        with pytest.raises(InputError, match="DC_PS is a DC bus; use the DC "
                           "fault engine"):
            fault_summary(dc_vessel, "DC_PS", sol)


class TestLazyTraces:
    """A trace samples its arrays on first read, once, and only then."""

    def test_summary_rows_sample_nothing(self, ac_vessel, samples):
        summ = fault_summary(ac_vessel, "AC_PS", solve_ac_powerflow(ac_vessel))
        ac_summary_rows(summ)
        assert samples == []
        assert [c for c, tr in summ.traces.items() if "_arrays" in vars(tr)] == []

    def test_a_read_samples_once_and_keeps_the_arrays(self, ac_vessel, samples):
        summ = fault_summary(ac_vessel, "AC_PS", solve_ac_powerflow(ac_vessel))
        tr = summ.traces["DG#01"]
        first = tr.iac
        assert tr.iac is first
        assert tr.idc is tr.idc and tr.envelope is tr.envelope
        assert samples == [tr]
        with pytest.raises(AttributeError):
            tr.iac = first.copy()
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_every_trace_shares_one_read_only_time_grid(self, ac_vessel):
        summ = fault_summary(ac_vessel, "AC_PS", solve_ac_powerflow(ac_vessel))
        assert all(tr.t is default_time_grid() for tr in summ.traces.values())
        assert not default_time_grid().flags.writeable
        with pytest.raises(ValueError):
            default_time_grid()[0] = 1.0

    def test_arrays_are_the_unreferred_curve_times_the_referral(self, ac_vessel):
        """The envelope is composed before the referral: the bits of
        sampling a contributor on its own bus, then referring it."""
        summ = fault_summary(ac_vessel, "AC_PS", solve_ac_powerflow(ac_vessel))
        assert {tr.referral for tr in summ.traces.values()} > {1.0}
        for cid, tr in summ.traces.items():
            iac, idc = tr.curve(tr.t)
            expected = {"iac": iac * tr.referral, "idc": idc * tr.referral,
                        "envelope": (SQRT2 * iac + idc) * tr.referral}
            for name, values in expected.items():
                assert getattr(tr, name).tobytes() == values.tobytes(), \
                    (cid, name)


@pytest.mark.parametrize("iac,idc,ip", [
    (13.759, 16.311, 35.769),
    (17.971, 21.076, 46.490),
    (12.733, 15.458, 33.521),
    (7.035, 7.689, 17.638),
])
def test_published_triples_compose(iac, idc, ip):
    # the worst published row deviates 0.17 % from the identity (rounding)
    assert SQRT2 * iac + idc == pytest.approx(ip, rel=2e-3)
