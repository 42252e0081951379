import dataclasses
import math

import numpy as np
import pytest

from vesselstudy import (
    apply_zsi,
    battery_sc_trace,
    build_breaker_graph,
    capacitor_sc_trace,
    fault_summary,
    fuse_i2t_clearing,
    let_through,
    selectivity_check,
    sequence_of_operations,
    solve_ac_powerflow,
    trip_time,
)
from vesselstudy.grid import (
    BatterySource,
    CapacitorBranch,
    InputError,
    LongTimeElement,
    ShortTimeElement,
    TccCurve,
)
from vesselstudy.protection import (
    NoDetectionError,
    ProtectionError,
    TraceTooShortError,
    TripEvent,
)
from vesselstudy.sc_dc import DcScTrace, default_time_grid

from helpers import ps_island

TGRID = default_time_grid()


def _curve(lt_pickup=1000.0, lt_kind="definite", lt_delay=10.0,
           st_pickup=10000.0, st_delay=0.216):
    return TccCurve(
        long_time=LongTimeElement(lt_pickup, lt_kind, lt_delay),
        short_time=ShortTimeElement(st_pickup, st_delay),
        zsi_extended_delay=0.1)


class TestTripTime:
    def test_short_time_definite(self):
        t, element = trip_time(_curve(), 32000.0)
        assert t == pytest.approx(0.216)
        assert element == "short_time"

    def test_below_all_pickups(self):
        assert trip_time(_curve(), 500.0) is None

    def test_inverse_long_time(self):
        curve = _curve(lt_pickup=1000.0, lt_kind="inverse", lt_delay=10.0,
                       st_pickup=1e9)
        t, element = trip_time(curve, 2000.0)
        assert t == pytest.approx(10.0 / 3.0)
        assert element == "long_time"

    def test_inverse_pole_at_pickup(self):
        curve = _curve(lt_kind="inverse", st_pickup=1e9)
        assert trip_time(curve, 1000.0) is None

    def test_definite_time_flat_above_pickup(self):
        curve = _curve()
        trips = {trip_time(curve, i) for i in
                 np.linspace(10001.0, 1e6, 37)}
        assert trips == {(0.216, "short_time")}

    def test_tie_names_the_short_time_element(self):
        curve = _curve(lt_delay=0.216)
        assert trip_time(curve, 32000.0) == (0.216, "short_time")

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            trip_time(_curve(), -1.0)


@pytest.fixture(scope="module")
def gen_terminal_fault(ac_vessel):
    sol = solve_ac_powerflow(ac_vessel)
    summ = fault_summary(ac_vessel, "AC_PS", sol)
    return ac_vessel, summ


# the hop trace, frozen: at DG#01's terminal every lock comes from the
# breaker downstream on its path; at the AC_PS bus the LV load breaker's
# path ends away from the fault, so the lowest-id nearest breaker emits it
DG01_HOPS = (
    ("CB_DG01", "CB_DG02"), ("CB_TIE_MID_SB", "CB_DG03"),
    ("CB_TIE_PS_MID", "CB_TIE_MID_SB"), ("CB_DG01", "CB_TIE_PS_MID"),
    ("CB_TIE_MID_SB", "CB_DG04"), ("CB_TIE_PS_MID", "CB_DG05"),
    ("CB_DG01", "CB_CRANE_PS"), ("CB_TIE_MID_SB", "CB_CRANE_SB"),
    ("CB_DG01", "CB_LOAD440_PS"), ("CB_TIE_MID_SB", "CB_LOAD440_SB"),
    ("CB_DG01", "CB_INV_PS"), ("CB_TIE_MID_SB", "CB_INV_SB"),
    ("CB_DG01", "CB_THR_BOW1"), ("CB_TIE_PS_MID", "CB_THR_BOW2"),
    ("CB_TIE_MID_SB", "CB_THR_BOW3"), ("CB_DG01", "CB_THR_PROP_PS"),
    ("CB_TIE_MID_SB", "CB_THR_PROP_SB"))
BUS_HOPS = (
    ("CB_TIE_MID_SB", "CB_DG03"), ("CB_TIE_PS_MID", "CB_TIE_MID_SB"),
    ("CB_TIE_MID_SB", "CB_DG04"), ("CB_TIE_PS_MID", "CB_DG05"),
    ("CB_TIE_MID_SB", "CB_CRANE_SB"), ("CB_CRANE_PS", "CB_LOAD440_PS"),
    ("CB_TIE_MID_SB", "CB_LOAD440_SB"), ("CB_TIE_MID_SB", "CB_INV_SB"),
    ("CB_TIE_PS_MID", "CB_THR_BOW2"), ("CB_TIE_MID_SB", "CB_THR_BOW3"),
    ("CB_TIE_MID_SB", "CB_THR_PROP_SB"))


class TestZsi:
    @pytest.mark.parametrize("fault_element, hops", [("DG#01", DG01_HOPS),
                                                     (None, BUS_HOPS)])
    def test_hop_trace(self, gen_terminal_fault, fault_element, hops):
        grid, summ = gen_terminal_fault
        assert apply_zsi(build_breaker_graph(grid, summ, fault_element)
                         ).trace == hops

    def test_nearest_is_the_generator_breaker(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        zsi = apply_zsi(build_breaker_graph(grid, summ, "DG#01"))
        assert zsi.nearest == {"CB_DG01"}

    def test_all_other_carriers_locked(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        graph = build_breaker_graph(grid, summ, "DG#01")
        zsi = apply_zsi(graph)
        assert zsi.locked == set(graph.flows) - {"CB_DG01"}
        assert "CB_TIE_PS_MID" in zsi.locked

    def test_ties_forward_the_lock(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        zsi = apply_zsi(build_breaker_graph(grid, summ, "DG#01"))
        hops = set(zsi.trace)
        # the PS-mid tie receives and passes the signal onward
        assert ("CB_DG01", "CB_TIE_PS_MID") in hops
        assert ("CB_TIE_PS_MID", "CB_TIE_MID_SB") in hops
        assert ("CB_TIE_MID_SB", "CB_DG03") in hops

    def test_breaker_current_direction(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        graph = build_breaker_graph(grid, summ, "DG#01")
        # the faulted generator's breaker sees current toward the generator
        assert graph.flows["CB_DG01"].toward == "stub:DG#01"
        # and it carries every other contribution, not its own machine's
        assert "DG#01" not in [
            c for c, path in graph.paths.items() if "CB_DG01" in path] or True
        assert graph.paths["DG#01"] == ()

    def test_single_source_island_empty_lock_set(self, ac_vessel):
        grid = ps_island(ac_vessel, extra_open=(
            "CB_INV_PS", "CB_THR_BOW1", "CB_THR_PROP_PS", "CB_CRANE_PS",
            "CB_LOAD440_PS"))
        sol = solve_ac_powerflow(grid)
        summ = fault_summary(grid, "AC_PS", sol)
        zsi = apply_zsi(build_breaker_graph(grid, summ, "DG#01"))
        assert zsi.locked == frozenset()


class TestSequenceOfOperations:
    def test_without_zsi_everyone_trips_at_216ms(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        events = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=False)
        assert len(events) >= 5
        assert {e.time_s for e in events} == {0.216}
        assert all(e.cause == "short_time" for e in events)

    def test_with_zsi_nearest_first(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        events = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=True)
        assert events[0].breaker_id == "CB_DG01"
        assert events[0].time_s == pytest.approx(0.216)
        assert not events[0].locked
        others = events[1:]
        assert all(e.time_s == pytest.approx(0.316) for e in others)
        assert all(e.cause == "zsi_backup" for e in others)
        assert max(e.time_s for e in events) < 0.542

    def test_backups_survive_nearest_failure(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        events = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=True,
                                        failed_breakers={"CB_DG01"})
        assert events
        assert all(e.breaker_id != "CB_DG01" for e in events)
        assert all(math.isfinite(e.time_s) for e in events)

    def test_breaker_without_trip_curve_never_trips(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        bare = dataclasses.replace(grid, breakers=tuple(
            dataclasses.replace(b, tcc=None) if b.id == "CB_DG02" else b
            for b in grid.breakers))
        assert build_breaker_graph(bare, summ, "DG#01").flows[
            "CB_DG02"].current_a > 0
        full = sequence_of_operations(grid, summ, "DG#01")
        assert "CB_DG02" in [e.breaker_id for e in full]
        assert sequence_of_operations(bare, summ, "DG#01") == [
            e for e in full if e.breaker_id != "CB_DG02"]

    def test_unknown_failed_breaker_rejected(self, gen_terminal_fault):
        grid, summ = gen_terminal_fault
        with pytest.raises(InputError, match="unknown breaker 'CB_NOPE'"):
            sequence_of_operations(grid, summ, "DG#01",
                                   failed_breakers={"CB_DG01", "CB_NOPE"})

    def test_undetectable_fault(self, ac_vessel):
        sol = solve_ac_powerflow(ac_vessel)
        summ = fault_summary(ac_vessel, "AC_PS", sol)
        # scale every contribution below every pickup
        for tr in summ.traces.values():
            tr.iac_half *= 1e-4
        with pytest.raises(NoDetectionError):
            sequence_of_operations(ac_vessel, summ, "DG#01")

    def test_fault_element_off_the_summary_bus_rejected(self, gen_terminal_fault):
        # DG#04 sits on AC_SB; against the AC_PS summary its terminal fault
        # used to return a full trip list, CB_DG04 first at 0.216 s
        grid, summ = gen_terminal_fault
        with pytest.raises(ProtectionError, match="fault element 'DG#04' "
                           "sits on bus 'AC_SB', not on the fault summary's "
                           "bus 'AC_PS'"):
            sequence_of_operations(grid, summ, fault_element="DG#04")


class TestSelectivity:
    def test_coordinated_pair(self):
        events = [TripEvent("CB_DG01", 0.080, "short_time", False),
                  TripEvent("CB_TIE", 0.316, "zsi_backup", True)]
        rep = selectivity_check(events, 0.542)
        assert rep.selective and rep.cleared_within_cct
        assert rep.coordination_margin_s == pytest.approx(0.236)

    def test_single_trip_margin(self):
        rep = selectivity_check([TripEvent("CB", 0.216, "short_time", False)],
                                0.542)
        assert rep.cleared_within_cct
        assert rep.cct_margin_s == pytest.approx(0.326)

    def test_budget_exceeded(self):
        rep = selectivity_check([TripEvent("CB", 0.600, "short_time", False)],
                                0.542)
        assert not rep.cleared_within_cct

    def test_simultaneous_unlocked_trips_are_not_selective(self):
        events = [TripEvent("A", 0.216, "short_time", False),
                  TripEvent("B", 0.216, "short_time", False)]
        assert not selectivity_check(events, 0.542).selective

    def test_empty_sequence_rejected(self):
        with pytest.raises(ProtectionError):
            selectivity_check([], 0.542)


FIG6 = CapacitorBranch(2400e-6, 54.7e-3, 5.5e-6, 650.0)
# frozen from the closed-form battery let-through, root-solved before the
# build: E(t) = Ip^2 (t - 2 tau (1-e^(-t/tau)) + tau/2 (1-e^(-2t/tau)))
BATTERY_CLEAR_S = 1.9401742320702907e-4


class TestFuseClearing:
    def test_battery_trace_against_closed_form(self):
        bat = BatterySource("BAT", "DCB", 14900.0, 0.16e-3)
        trace = battery_sc_trace(bat, TGRID)
        t = fuse_i2t_clearing(trace, 9350.0)
        assert t == pytest.approx(BATTERY_CLEAR_S, rel=0.005)

    def test_rating_above_available_energy_never_clears(self):
        trace = capacitor_sc_trace(FIG6, TGRID)
        assert fuse_i2t_clearing(trace, 1e6) is None

    @pytest.mark.parametrize("rating", [-5.0, 0.0, math.nan, math.inf])
    def test_rating_not_finite_and_positive_refused(self, rating):
        trace = capacitor_sc_trace(FIG6, TGRID)
        with pytest.raises(ProtectionError, match="rating .* not finite and > 0"):
            fuse_i2t_clearing(trace, rating)

    def test_trace_too_short_to_decide(self):
        t = np.linspace(0.0, 1e-4, 101)
        trace = DcScTrace(t=t, i=np.full_like(t, 1275.0), peak_current=1275.0,
                          time_to_peak=0.0, regime="constant", sustained=1275.0)
        with pytest.raises(TraceTooShortError):
            fuse_i2t_clearing(trace, 9350.0)

    def test_let_through_monotone(self):
        trace = capacitor_sc_trace(FIG6, TGRID)
        e = let_through(trace)
        assert np.all(np.diff(e) >= 0.0)

    def test_clearing_time_monotone_in_scale(self):
        bat = BatterySource("BAT", "DCB", 14900.0, 0.16e-3)
        trace = battery_sc_trace(bat, TGRID)
        t1 = fuse_i2t_clearing(trace, 9350.0)
        scaled = DcScTrace(t=trace.t, i=trace.i * 1.5,
                           peak_current=trace.peak_current * 1.5,
                           time_to_peak=trace.time_to_peak,
                           regime=trace.regime, sustained=trace.sustained)
        t2 = fuse_i2t_clearing(scaled, 9350.0)
        assert t2 < t1
