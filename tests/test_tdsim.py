import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from vesselstudy import (
    ControllerConfig,
    Event,
    EventSchedule,
    SimConfig,
    builtin_fixture,
    find_cct,
    peak_shave_setpoint,
    simulate,
    tdsim,
)
from vesselstudy.tdsim import (AVR_GAIN, AVR_T, GOV_DROOP, GOV_T,
                               CctFaultSpec, ControllerState)

from vesselstudy.grid import (Bus, CableBranch, ConverterSpec, InputError,
                              LoadSpec, NumericalError)
from vesselstudy.powerflow import S_BASE_KVA, SteadyState

from helpers import (SMIB_CCT, dp_island, ps_island, reference_cct,
                     reference_solve, single_gen_grid, smib_grid)

# the SMIB runs without governors and voltage regulators
BARE_SMIB = SimConfig(step=0.005, governor=False, avr=False)


def _peak_cfg(**kw):
    args = dict(mode="peak_shave", inverter="INV_PS", watched=("DG#01",),
                p_threshold_kw=1500.0, q_threshold_kvar=1000.0,
                p_rating_kw=1500.0, q_rating_kvar=1500.0)
    args.update(kw)
    return ControllerConfig(**args)


def _dp_cfg():
    return ControllerConfig(mode="dp_failover", inverter="INV_PS",
                            watched=("DG#02",), p_rating_kw=1500.0,
                            q_rating_kvar=1500.0)


class TestPeakShaveSetpoint:
    def test_surplus_above_threshold(self):
        assert peak_shave_setpoint(_peak_cfg(), 1800.0, 0.0) == (300.0, 0.0)

    def test_below_threshold_idles(self):
        assert peak_shave_setpoint(_peak_cfg(), 1400.0, 0.0) == (0.0, 0.0)

    def test_saturates_at_rating(self):
        assert peak_shave_setpoint(_peak_cfg(), 3100.0, 0.0)[0] == 1500.0

    def test_reactive_channel(self):
        p, q = peak_shave_setpoint(_peak_cfg(), 1000.0, 1250.0)
        assert (p, q) == (0.0, 250.0)


class TestDpFailoverSetpoint:
    def _warm_state(self, cfg, p=2000.0, q=100.0):
        state = ControllerState(cfg)
        for k in range(30):
            state.record(0.05 * k, {"DG#02": p}, {"DG#02": q})
        return state

    def test_latch_clamped_to_rating(self):
        state = self._warm_state(_dp_cfg(), p=2000.0)
        state.generator_lost("DG#02", 1.0)
        assert state.setpoint == (1500.0, 100.0)

    def test_latch_passthrough_below_rating(self):
        state = self._warm_state(_dp_cfg(), p=800.0)
        state.generator_lost("DG#02", 1.0)
        assert state.setpoint == (800.0, 100.0)

    def test_idle_without_event(self):
        assert ControllerState(_dp_cfg()).setpoint == (0.0, 0.0)

    def test_latch_holds_after_event(self):
        state = self._warm_state(_dp_cfg(), p=900.0)
        state.generator_lost("DG#02", 1.0)
        state.record(1.5, {"DG#02": 0.0}, {"DG#02": 0.0})
        assert state.setpoint == (900.0, 100.0)

    def test_unwatched_loss_ignored(self):
        state = self._warm_state(_dp_cfg(), p=900.0)
        state.generator_lost("DG#01", 1.0)
        assert state.setpoint == (0.0, 0.0)

    def test_cold_buffer_rejected(self):
        state = ControllerState(_dp_cfg())
        state.record(0.95, {"DG#02": 1.0}, {"DG#02": 0.0})
        with pytest.raises(InputError, match="dp_failover controller on "
                           "INV_PS: DG#02 lost at t=1.000 s, before "
                           "dp_delay_s = 0.1"):
            state.generator_lost("DG#02", 1.0)


class TestControllerConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'peak_shaving'"):
            _peak_cfg(mode="peak_shaving")

    def test_defaults(self):
        cfg = ControllerConfig(mode="dp_failover", inverter="INV_PS",
                               watched=("DG#02",), p_rating_kw=1.0,
                               q_rating_kvar=1.0)
        assert (cfg.p_threshold_kw, cfg.q_threshold_kvar,
                cfg.dp_delay) == (0.0, 0.0, 0.1)

    @pytest.mark.parametrize("mode", ["peak_shave", "dp_failover"])
    def test_a_controller_watches_a_generator(self, mode):
        # with no watched generator a controller never acts: a peak-shave
        # INV_PS under a 1.3 step of LOAD440_PS stayed at 0 kW and 0 kvar
        args = dict(mode=mode, inverter="INV_PS", p_rating_kw=500.0,
                    q_rating_kvar=500.0)
        with pytest.raises(TypeError, match="watched"):
            ControllerConfig(**args)
        with pytest.raises(InputError, match="^controller on INV_PS: "
                           "watched names no generator$"):
            ControllerConfig(watched=(), **args)
        # a bare str used to be taken as its characters: 'D', '#', ...
        with pytest.raises(InputError, match="^controller on INV_PS: "
                           "watched is a tuple of generator ids, "
                           "got 'DG#01'$"):
            ControllerConfig(watched="DG#01", **args)

    @pytest.mark.parametrize("mode, field, key, value, reader", [
        ("dp_failover", "p_threshold_kw", "p_threshold_kw", 1500.0,
         "peak_shave"),
        ("dp_failover", "q_threshold_kvar", "q_threshold_kvar", 1000.0,
         "peak_shave"),
        ("peak_shave", "dp_delay", "dp_delay_s", 0.2, "dp_failover"),
    ])
    def test_a_key_of_the_other_mode_is_refused(self, mode, field, key, value,
                                                reader):
        # such a key used to be accepted and ignored; the message names
        # the study-file key
        with pytest.raises(InputError, match=f"^{mode}: {key} applies only "
                           f"to {reader}$"):
            ControllerConfig(mode=mode, inverter="INV_PS", watched=("DG#01",),
                             p_rating_kw=1500.0, q_rating_kvar=1500.0,
                             **{field: value})

    @pytest.mark.parametrize("mode, key, name, value", [
        # a nan threshold made the peak-shave setpoint the full rating,
        # since min(1500.0, nan) is 1500.0
        ("peak_shave", "p_threshold_kw", "p_threshold_kw", math.nan),
        ("peak_shave", "q_threshold_kvar", "q_threshold_kvar", math.inf),
        ("peak_shave", "p_rating_kw", "p_rating_kw", math.inf),
        ("dp_failover", "q_rating_kvar", "q_rating_kvar", math.nan),
        ("dp_failover", "dp_delay", "dp_delay_s", math.inf),
    ])
    def test_non_finite_values_are_refused(self, mode, key, name, value):
        args = dict(mode=mode, inverter="INV_PS", watched=("DG#01",),
                    p_rating_kw=1500.0, q_rating_kvar=1500.0)
        args[key] = value
        with pytest.raises(InputError, match=f"^need {name} in .*, "
                                             f"got {name} = {value}$"):
            ControllerConfig(**args)

    @pytest.mark.parametrize("first_mode", ["peak_shave", "dp_failover"])
    def test_one_controller_per_inverter(self, ac_vessel, first_mode):
        pair = (_peak_cfg(), _dp_cfg())
        if first_mode == "dp_failover":
            pair = pair[::-1]
        with pytest.raises(ValueError, match="two controllers on inverter "
                                             "'INV_PS'"):
            simulate(ps_island(ac_vessel), EventSchedule(), pair,
                     SimConfig(step=0.02, end=0.1))


class TestScheduleValidation:
    def test_times_must_be_sorted(self, ac_vessel):
        sched = EventSchedule((Event(2.0, "fault_clear"),
                               Event(1.0, "fault_clear")))
        with pytest.raises(InputError, match="fault_clear at 1.0 after 2.0"):
            sched.validated(ac_vessel, 10.0)

    def test_unknown_load(self, ac_vessel):
        sched = EventSchedule((Event(1.0, "load_step", "NOPE", scale=1.1),))
        with pytest.raises(Exception):
            sched.validated(ac_vessel, 10.0)

    def test_unknown_action(self):
        # a bad action is bad input
        with pytest.raises(ValueError, match="unknown event action 'explode'"):
            Event(1.0, "explode", "AC_PS")

    @pytest.mark.parametrize("key, name, value", [
        ("scale", "scale", math.inf),
        # a nan ramp used to end the run in a network solve error
        ("ramp", "ramp_s", math.nan),
        ("time", "time_s", math.nan),
    ])
    def test_non_finite_values_are_refused(self, key, name, value):
        args = dict(time=0.1, action="load_step", target="LOAD440_PS",
                    scale=1.1)
        args[key] = value
        with pytest.raises(InputError, match=f"^need {name} in .*, "
                                             f"got {name} = {value}$"):
            Event(**args)


def test_end_off_the_step_grid_is_refused(ac_vessel):
    """An `end` that is not a whole number of steps used to stop at the
    last whole step before it, and skip an event after that step."""
    sched = EventSchedule((Event(0.095, "load_step", "LOAD440_PS",
                                 scale=1.2),))
    with pytest.raises(InputError, match="end_s = 0.1 is not a whole number "
                                         "of steps of step_s = 0.03"):
        simulate(ps_island(ac_vessel), sched, (), SimConfig(step=0.03,
                                                            end=0.1))


def test_unknown_dispatch_id_rejected(ac_vessel):
    """The run's one power flow checks the ids it is given."""
    with pytest.raises(InputError, match="unknown generator 'NOPE'"):
        simulate(ac_vessel, EventSchedule(), (), SimConfig(step=0.02, end=0.1),
                 SteadyState(dispatch={"NOPE": 100.0}))


class TestEquilibrium:
    def test_no_events_stays_flat(self, ac_vessel):
        grid = ps_island(ac_vessel)
        ts = simulate(grid, EventSchedule(()), (),
                      SimConfig(step=0.02, end=10.0))
        for name in ("DG#01.p_kw", "DG#01.q_kvar", "AC_PS.v_pu",
                     "DG#01.freq_hz"):
            arr = ts[name]
            assert np.max(np.abs(arr - arr[0])) <= 1e-3 * abs(arr[0])

    def test_per_step_power_balance(self, ac_vessel):
        grid = ps_island(ac_vessel)
        sched = EventSchedule((
            Event(1.0, "load_step", "LOAD440_PS", scale=1.3, ramp=1.0),))
        ts = simulate(grid, sched, (), SimConfig(step=0.02, end=4.0))
        gen = ts["DG#01.p_kw"]
        load = ts["CRANE_PS.p_kw"] + ts["LOAD440_PS.p_kw"]
        resid = gen - load - ts["sys.p_loss_kw"]
        assert np.max(np.abs(resid)) < 1e-3   # kW; network solve tolerance


@pytest.fixture(scope="module")
def peak_shave_run(ac_vessel):
    grid = ps_island(ac_vessel)
    ctl = _peak_cfg()
    sched = EventSchedule((
        Event(1.0, "load_step", "LOAD440_PS", scale=1.45, ramp=2.0),
        Event(5.0, "load_step", "LOAD440_PS", scale=1.0, ramp=2.0),
    ))
    ts = simulate(grid, sched, (ctl,), SimConfig(step=0.02, end=9.0))
    ramp_step = (1.45 - 1.0) * 1080.0 / 2.0 * 0.02
    return ts, ramp_step


@pytest.fixture(scope="module")
def dp_run(ac_vessel):
    grid = dp_island(ac_vessel)
    convs = tuple(
        dataclasses.replace(c, p_set_kw=1000.0) if c.id == "THR_BOW1" else c
        for c in grid.converters)
    grid = dataclasses.replace(grid, converters=convs)
    ctl = _dp_cfg()
    sched = EventSchedule((Event(2.0, "breaker_open", "CB_DG02"),))
    return simulate(grid, sched, (ctl,), SimConfig(step=0.01, end=7.5),
                    SteadyState(dispatch={"DG#01": 1200.0}))


class TestPeakShaveScenario:
    @pytest.fixture
    def result(self, peak_shave_run):
        return peak_shave_run

    def test_generator_capped_at_threshold(self, result):
        ts, ramp_step = result
        assert ts["DG#01.p_kw"].max() <= 1500.0 + ramp_step

    def test_inverter_within_rating(self, result):
        ts, _ = result
        inv = ts["INV_PS.p_kw"]
        assert inv.min() >= 0.0
        assert inv.max() <= 1500.0
        assert inv.max() > 100.0   # it did assist

    def test_inverter_tracks_surplus_shape(self, result):
        ts, _ = result
        inv = ts["INV_PS.p_kw"]
        t = ts.t
        # rises during the up-ramp, falls back to zero after the down-ramp
        assert inv[(t > 2.9) & (t < 3.1)].mean() > inv[(t > 1.0) & (t < 1.2)].mean()
        assert np.all(inv[t > 8.0] == 0.0)

    def test_generator_returns_below_threshold(self, result):
        ts, _ = result
        assert ts["DG#01.p_kw"][-1] < 1450.0


class TestDpScenario:
    @pytest.fixture
    def result(self, dp_run):
        return dp_run

    def test_inverter_latches_delayed_pretrip_power(self, result):
        ts = result
        pre = ts["DG#02.p_kw"][ts.t < 2.0][-1]
        post = ts["INV_PS.p_kw"][ts.t > 2.0]
        assert post[0] == pytest.approx(pre, rel=1e-6)
        assert np.all(post == post[0])

    def test_surviving_generator_returns(self, result):
        ts = result
        pre = ts["DG#01.p_kw"][ts.t < 2.0][-1]
        tail = ts["DG#01.p_kw"][ts.t >= 7.0]
        assert np.all(np.abs(tail - pre) / pre < 0.02)

    def test_lost_machine_reports_zero(self, result):
        ts = result
        assert np.all(ts["DG#02.p_kw"][ts.t > 2.005] == 0.0)


def test_determinism_bit_identical(ac_vessel):
    grid = ps_island(ac_vessel)
    sched = EventSchedule((
        Event(0.5, "load_step", "LOAD440_PS", scale=1.2, ramp=0.5),))
    ctl = _peak_cfg()
    a = simulate(grid, sched, (ctl,), SimConfig(step=0.02, end=2.0))
    b = simulate(grid, sched, (ctl,), SimConfig(step=0.02, end=2.0))
    for name in a.channels:
        assert np.array_equal(a.channels[name], b.channels[name])


def test_fault_event_dips_voltage_and_recovers(ac_vessel):
    grid = ps_island(ac_vessel)
    sched = EventSchedule((
        Event(1.0, "fault_apply", "AC_PS"),
        Event(1.1, "fault_clear"),
    ))
    ts = simulate(grid, sched, (), SimConfig(step=0.01, end=3.0))
    v = ts["AC_PS.v_pu"]
    assert v[(ts.t >= 1.0) & (ts.t < 1.1)].max() < 0.01
    assert v[-1] == pytest.approx(1.0, abs=0.05)


def test_event_between_steps_is_applied_exactly(ac_vessel):
    grid = ps_island(ac_vessel)
    # event at 1.013 s, step 20 ms: the step is split, not quantized
    sched = EventSchedule((Event(1.013, "load_step", "LOAD440_PS",
                                 scale=1.2),))
    ts = simulate(grid, sched, (), SimConfig(step=0.02, end=1.6))
    load = ts["LOAD440_PS.p_kw"]
    k = int(np.searchsorted(ts.t, 1.013))
    assert load[k - 1] == pytest.approx(1080.0, rel=1e-6)
    assert load[k] == pytest.approx(1080.0 * 1.2, rel=1e-3)


def test_cct_bracket_must_straddle():
    grid = smib_grid()
    with pytest.raises(NumericalError, match=r"invalid bracket: "
                       r"stable\(0.0\)=True, stable\(0.01\)=True"):
        find_cct(grid, dataclasses.replace(SMIB_CCT, t_hi=0.01, tol=0.005,
                                           window=1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["step", "end"])
def test_sim_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"need {name}_s in "):
        dataclasses.replace(BARE_SMIB, **{name: value})


@pytest.mark.parametrize("build, message", [
    # a governor of "off" used to run with the governor on
    (lambda: SimConfig(governor="off"),
     "need governor true or false, got governor = 'off'"),
    (lambda: CctFaultSpec("G1", avr=0.0),
     "need avr true or false, got avr = 0.0"),
])
def test_a_switch_that_is_not_a_bool_is_refused(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    # each used to build, then fail later as an unknown id
    (lambda: CctFaultSpec(machine=3), "need machine as text, got machine = 3"),
    (lambda: SteadyState(slack=7), "need slack as text, got slack = 7"),
    (lambda: Event(0.0, "fault_apply", 5),
     "need target as text, got target = 5"),
])
def test_an_id_that_is_not_text_is_refused(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cct_fault_spec_rejects_non_finite_loading(value):
    with pytest.raises(ValueError, match="need loading in "):
        CctFaultSpec("G1", loading=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_lo", "t_hi", "tol", "window"])
def test_find_cct_rejects_non_finite(name, value):
    """Unchecked, a NaN tolerance would end the search at once with
    cct = 0, and an infinite window would overflow."""
    args = dict(tol=5e-3, window=1.0)
    args[name] = value
    with pytest.raises(ValueError, match=f"need {name}_s in "):
        find_cct(smib_grid(), dataclasses.replace(SMIB_CCT, **args))


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="known defect: behind a bolted fault the LV bus "
                          "sits below V_FLOOR and the load-as-injection "
                          "fixed point oscillates instead of converging")
def test_bus_fault_after_load_step_converges(ac_vessel):
    grid = ps_island(ac_vessel)
    sched = EventSchedule((
        Event(0.1, "load_step", "LOAD440_PS", scale=1.1563, ramp=0.2034),
        Event(0.4835, "fault_apply", "AC_PS"),
        Event(0.5255, "fault_clear"),
    ))
    try:
        simulate(grid, sched, (), SimConfig(step=0.005, end=1.0))
    except NumericalError as exc:
        # the defect's one failure: any other one fails the test
        assert "network fixed point not converged" in str(exc)
        raise


def _probe_events(t_clear, target="B_M", location=None, t_fault=0.25):
    return EventSchedule((
        Event(t_fault, "fault_apply", target, location=location),
        Event(t_fault + t_clear, "fault_clear")))


def _probe(grid, t_clear, window=2.0, target="B_M", location=None,
           t_fault=0.25, cfg=BARE_SMIB, **kw):
    """One `find_cct` probe, shifted to start at `t_fault`: bolted fault at
    `target` (the machine bus by default) from then, to the recording
    step nearest its clearing plus `window`."""
    step = cfg.step
    cfg = dataclasses.replace(
        cfg, end=round((t_fault + t_clear + window) / step) * step)
    return simulate(grid, _probe_events(t_clear, target, location, t_fault),
                    (), cfg, SteadyState(dispatch={"G1": 900.0}), **kw)


def _search_engine(grid, cfg=BARE_SMIB):
    """An engine as `find_cct` builds it for `_probe`'s power flow, with
    an empty trunk: pass it to `_probe` as `_engine`."""
    engine = tdsim._Engine(grid, (), cfg,
                           SteadyState(dispatch={"G1": 900.0}))
    engine.trunk = []
    return engine


def _assert_part_of(part, full, k, label=""):
    """`part` is bit for bit the rows of `full` from step `k` on."""
    n = len(part.t)
    np.testing.assert_array_equal(part.t, full.t[k:k + n])
    assert part.channels.keys() == full.channels.keys()
    for name, values in full.channels.items():
        np.testing.assert_array_equal(part[name], values[k:k + n],
                                      err_msg=f"{label}: {name}")


@pytest.mark.parametrize("governor", [True, False])
def test_governor_switch(governor):
    """Through a bolted fault the governor moves the mechanical power;
    without it the mechanical power holds its pre-fault value."""
    sched = EventSchedule((Event(0.25, "fault_apply", "B_M"),
                           Event(0.35, "fault_clear")))
    cfg = SimConfig(step=0.005, end=1.0, governor=governor)
    pm = simulate(smib_grid(), sched, (), cfg,
                  SteadyState(dispatch={"G1": 900.0}))["G1.pm_kw"]
    assert pm[0] == pytest.approx(900.0, rel=1e-6)
    if governor:
        assert np.ptp(pm) > 10.0
    else:
        assert np.all(pm == pm[0])


def test_governor_droop_is_on_the_system_base(ac_vessel):
    """Settled after a load step, every genset, whatever its rating, takes
    the same -dw * S_BASE_KVA / GOV_DROOP: the droop is on the 1000 kVA
    system base, not on each machine's rating."""
    sched = EventSchedule((Event(0.1, "load_step", "LOAD440_PS", scale=1.3),))
    ts = simulate(ac_vessel, sched, (), SimConfig(step=0.02, end=30.0))
    gens = [g.id for g in ac_vessel.generators]
    assert len({g.rated_kva for g in ac_vessel.generators}) > 1
    for gen in gens:
        pm, f = ts[f"{gen}.pm_kw"], ts[f"{gen}.freq_hz"]
        dw = f[-1] / f[0] - 1.0
        assert pm[-1] - pm[0] == pytest.approx(
            -dw * S_BASE_KVA / tdsim.GOV_DROOP, rel=1e-6)
        assert pm[-1] - pm[0] == pytest.approx(53.5, abs=0.05)
        assert f[-1] - f[0] == pytest.approx(-0.1605, abs=5e-4)


def test_stopped_probe_is_prefix_of_full_run():
    """A probe stopped at its unstable verdict is a prefix of the full
    run, whose spread reaches pi after the stop."""
    grid = smib_grid()
    full = _probe(grid, 0.3)
    stopped = _probe(grid, 0.3, _engine=_search_engine(grid))
    n = len(stopped.t)
    assert n < len(full.t)
    assert stopped.stable is False and full.stable is None
    _assert_part_of(stopped, full, 0)
    spread = np.abs(full["G1.delta_rad"] - full["IB.delta_rad"])
    assert spread[:n].max() < np.pi <= spread.max()


@pytest.mark.parametrize("target, location", [("B_M", None), ("LINE", 0.5)])
def test_branched_probe_matches_run_from_start(target, location):
    """A probe branched from the shared trajectory is bit-identical, from
    its branch step on, to the same probe run from t = 0."""
    grid = smib_grid()
    fault = dict(target=target, location=location)
    engine = _search_engine(grid)
    # the first probe, t_hi, records the fault-on steps: from step 50
    # (0.25 s) to step 129, the last before its clearing at 0.65 s
    _probe(grid, 0.4, _engine=engine, **fault)
    assert [s.k for s in engine.trunk] == list(range(50, 130))
    # inside a step; on a step (0.35 s lands just below step 70 and 0.42 s
    # just above step 84, and a clearing within 1e-12 s of a step is
    # applied at it); shorter than one step; t_hi itself
    for t_clear, k in ((0.1234, 74), (0.1, 69), (0.17, 83), (0.001, 50),
                       (0.4, 129)):
        branched = _probe(grid, t_clear, _engine=engine, **fault)
        assert branched.t[0] == engine.trunk[k - 50].t
        _assert_part_of(branched, _probe(grid, t_clear, **fault), k, t_clear)
    assert [s.k for s in engine.trunk] == list(range(50, 130))


def test_branched_probe_runs_its_whole_window_bit_identically():
    """With governor and AVR no certificate applies, so a stable branched
    probe runs its whole window: all of it is the plain run's from the
    branch step on.  A load behind a mid-line fault makes the network
    solve iterate from its warm start, which the branch restores."""
    grid = _smib_plus(loads=(LoadSpec("LM", "B_M", 100.0, 0.9, 0.0),))
    probe = dict(target="LINE", location=0.5, cfg=SimConfig(step=0.005))
    engine = _search_engine(grid, probe["cfg"])
    _probe(grid, 0.4, _engine=engine, **probe)
    branched = _probe(grid, 0.1234, _engine=engine, **probe)
    full = _probe(grid, 0.1234, **probe)
    assert branched.stable is True
    assert len(branched.t) == len(full.t) - 74
    _assert_part_of(branched, full, 74)


def test_trunk_of_a_fault_at_0_starts_at_step_0():
    """A fault at t = 0 is applied right after the first recording, so the
    trunk starts at step 0, and a probe that clears inside the first step
    branches from it, bit-identical to the probe run from t = 0."""
    grid = smib_grid()
    engine = _search_engine(grid)
    _probe(grid, 0.05, t_fault=0.0, _engine=engine)
    assert [s.k for s in engine.trunk] == list(range(10))
    branched = _probe(grid, 0.001, t_fault=0.0, _engine=engine)
    _assert_part_of(branched, _probe(grid, 0.001, t_fault=0.0), 0)


@pytest.mark.parametrize("location, bus", [(0.0, "B_M"), (1.0, "B_INF")])
def test_cable_fault_at_an_end_faults_its_bus(location, bus):
    """A fault at location 0 or 1 along a cable is bit for bit the bolted
    fault of the bus at that end: no splice node."""
    grid = smib_grid()
    at_end = _probe(grid, 0.1, target="LINE", location=location)
    at_bus = _probe(grid, 0.1, target=bus)
    assert at_end.channels.keys() == at_bus.channels.keys()
    for name, values in at_bus.channels.items():
        np.testing.assert_array_equal(at_end[name], values, err_msg=name)


def test_cct_early_stop_keeps_transcript():
    """Branched, early-stopped probes give the search of full probes."""
    grid = smib_grid()
    spec = dataclasses.replace(SMIB_CCT, tol=5e-3, window=2.0)
    res = find_cct(grid, spec)
    ref = reference_cct(grid, spec)
    assert any(not ok for _, ok in ref.transcript[2:])
    assert res == ref


def test_cct_verdicts_are_plain_bools():
    """Simulated probes give `bool` verdicts like the zero-clearing one, so
    a transcript prints as ((0.0, True), (0.4, False), ...)."""
    spec = dataclasses.replace(SMIB_CCT, tol=5e-3, window=2.0)
    res = find_cct(smib_grid(), spec)
    assert {ok for _, ok in res.transcript} == {True, False}
    assert all(type(ok) is bool for _, ok in res.transcript)


def test_cct_trunk_from_t_hi_serves_a_stable_lower_bracket():
    """With t_lo > 0 the t_hi probe still records the trunk, and the t_lo
    probe branches from it; the search matches full probes."""
    grid = smib_grid()
    spec = dataclasses.replace(SMIB_CCT, loading=0.8, location=0.3,
                               branch="LINE", t_lo=0.05, tol=5e-3, window=1.0)
    assert find_cct(grid, spec) == reference_cct(grid, spec)


def test_cct_unstable_probe_stops_before_divergence():
    # with a light rotor an unstable probe run to its end trips the speed
    # sanity bound; the stopped probe already has its verdict by then
    grid = smib_grid()
    g1 = grid.generator("G1")
    g1 = dataclasses.replace(
        g1, dynamics=dataclasses.replace(g1.dynamics, inertia_h=0.5))
    grid = dataclasses.replace(grid, generators=(g1, grid.generator("IB")))
    with pytest.raises(NumericalError, match="speed deviation"):
        _probe(grid, 0.2, window=3.0)
    res = find_cct(grid, dataclasses.replace(SMIB_CCT, t_hi=0.2, tol=5e-3,
                                             window=3.0))
    assert res.transcript[1] == (0.2, False)
    assert res.interval[1] - res.interval[0] <= 5e-3


def test_cct_loading_holds_on_the_default_slack_machine(monkeypatch,
                                                        ac_vessel):
    """DG#03, the AC vessel's largest machine, is its power flow's default
    slack.  Its probes used to take the island balance whatever the
    loading, bitwise the same at 0.5 and 1.0; the slack is now the largest
    other machine of its island."""
    probes = []

    def recording(*args, **kwargs):
        probes.append(simulate(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(tdsim, "simulate", recording)
    for loading in (0.5, 1.0):
        # t_lo = 0 needs no probe and the tolerance ends the search at t_hi
        find_cct(ac_vessel, CctFaultSpec("DG#03", loading=loading,
                                         location=0.0, step=0.02, t_hi=0.4,
                                         tol=0.5, window=1.0))
    rated = ac_vessel.generator("DG#03").rated_kw
    assert [p["DG#03.p_kw"][0] for p in probes] == [
        pytest.approx(0.5 * rated), pytest.approx(rated)]


def test_vessel_cct_keeps_its_transcript(ac_vessel):
    """The paper's own setting: the CCT of DG#03 on the AC vessel at 0.9
    loading, for a bolted fault at its bus, with governor and AVR on."""
    res = find_cct(ac_vessel, CctFaultSpec("DG#03", loading=0.9,
                                           location=0.0, step=0.005, t_hi=0.4,
                                           tol=1e-3, window=2.0))
    assert res.transcript == (
        (0.0, True), (0.4, False), (0.2, False), (0.1, False), (0.05, True),
        (0.07500000000000001, True), (0.08750000000000001, False),
        (0.08125000000000002, True), (0.084375, True), (0.0859375, False),
        (0.08515625, False))
    assert res.cct == 0.084375


@pytest.mark.parametrize("x_col, value", [(0, np.nan), (2, np.inf)])
def test_linear_island_with_non_finite_source_raises(x_col, value):
    """The closed form keeps the fixed point's finiteness check."""
    eng = tdsim._Engine(smib_grid(), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": 900.0}))
    assert all(isl.linear for isl in eng.islands)
    x = eng.x.copy()
    x[0, x_col] = value
    with pytest.raises(NumericalError, match="non-finite V"):
        eng._solve(x, 0.0)


@pytest.mark.parametrize("x_col, value", [(0, np.nan), (2, np.inf)])
def test_island_with_demands_and_non_finite_source_raises(x_col, value):
    """The fixed point rejects a non-finite EMF before numpy can warn."""
    eng = tdsim._Engine(single_gen_grid(load_kw=300.0, load_kvar=100.0),
                        (), BARE_SMIB, SteadyState())
    assert not any(isl.linear for isl in eng.islands)
    x = eng.x.copy()
    x[0, x_col] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="non-finite V"):
            eng._solve(x, 0.0)


def _smib_plus(**extra):
    grid = smib_grid()
    return dataclasses.replace(grid, **{k: getattr(grid, k) + v
                                        for k, v in extra.items()})


# a second island: single_gen_grid's machine and its load, renamed
_LOADED = single_gen_grid(load_kw=300.0, load_kvar=100.0)
_SECOND_ISLAND = dict(
    buses=(Bus("B2", "ac", 690.0, 60.0),),
    generators=(dataclasses.replace(_LOADED.generators[0], id="G2", bus="B2"),),
    loads=(dataclasses.replace(_LOADED.loads[0], bus="B2"),))
# an inverter on a DC bus is in no AC island
_DC_INVERTER = dict(buses=(Bus("DCB", "dc", 900.0),),
                    converters=(ConverterSpec("INV", "DCB", "inverter", 100.0,
                                              70.0),))
_SMIB_SHAVE = ControllerConfig(mode="peak_shave", inverter="INV",
                               watched=("G1",), p_threshold_kw=500.0,
                               q_threshold_kvar=500.0, p_rating_kw=70.0,
                               q_rating_kvar=70.0)
# a third node: a load on a cable from the machine bus
_THIRD_NODE = dict(
    buses=(Bus("B3", "ac", 690.0, 60.0),),
    branches=(CableBranch("L3", "B_M", "B3", 0.005, 0.05),),
    loads=(LoadSpec("LD3", "B3", 300.0, 0.9, 0.0),))


@pytest.mark.parametrize("node", [0, 1, 2])
def test_a_nan_at_any_node_ends_the_solve_that_meets_it(node):
    """The sweep error is the largest difference, nan if any is nan: from
    a converged warm start every other node moves by less than the
    tolerance, so only the nan can stop the sweeps, at their first."""
    eng = tdsim._Engine(_smib_plus(**_THIRD_NODE), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": 600.0}))
    (isl,) = eng.islands
    assert len(isl.v) == 3 and not isl.linear
    eng._solve(eng.x, 0.0)      # converges, and keeps M under its key
    isl.m = isl.m.copy()
    isl.m[node] = np.nan
    with pytest.raises(NumericalError,
                       match="^network solve produced non-finite V$"):
        eng._solve(eng.x, 0.0)


@pytest.mark.parametrize("fault", [
    Event(0.0, "fault_apply", "B_M"),           # on the linear island
    Event(0.0, "fault_apply", "B2"),            # on the one with demands
    Event(0.0, "fault_apply", "LINE", location=0.5),   # adds a splice node
], ids=["linear", "demands", "splice"])
def test_a_fault_at_an_unchanged_state_refreshes_the_sources(fault):
    """The solve keeps the EMFs and source voltages of the last state it
    saw; a fault changes the source matrix, so the next solve at the
    same state computes them afresh."""
    eng = tdsim._Engine(_smib_plus(**_SECOND_ISLAND), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": 600.0}))
    eng._solve(eng.x, 0.0)
    eng._apply_event(fault, 0.0)
    warm = [isl.v.copy() for isl in eng.islands]
    got = eng._solve(eng.x, 0.0)
    v_got = [isl.v for isl in eng.islands]
    for isl, v in zip(eng.islands, warm):
        isl.v = v
    ref = reference_solve(eng, eng.x, 0.0)
    for a, b in zip(got + tuple(v_got),
                    ref + tuple(isl.v for isl in eng.islands)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("grid, controllers, load_scale, t_fault, per_step", [
    # linear islands only, no controller: the first solve is the recording
    # one
    (smib_grid(), (), None, 0.005, 1),
    # a load at scale 0 is a demand all the same
    (_smib_plus(loads=(LoadSpec("LM", "B_M", 100.0, 0.9, 0.0),)), (),
     {"LM": 0.0}, 0.03, 2),
    # one island with demands among linear ones
    (_smib_plus(**_SECOND_ISLAND), (), None, 0.03, 2),
    # a controller, even one whose inverter no island holds
    (_smib_plus(**_DC_INVERTER), (_SMIB_SHAVE,), None, 0.03, 2),
    (ps_island(builtin_fixture("ac_vessel")), (), None, 0.03, 2),
    (ps_island(builtin_fixture("ac_vessel")), (_peak_cfg(),), None, 0.03, 2),
], ids=["smib", "zero-load", "two-islands", "controller", "ps", "ps-shave"])
def test_recording_solves_per_step(monkeypatch, grid, controllers, load_scale,
                                   t_fault, per_step):
    """A recording step solves once only when no controller runs and every
    island is linear; otherwise the controllers' solve and the recording
    solve stay two."""
    calls = {"solve": 0, "deriv": 0}
    solve, deriv = tdsim._Engine._solve, tdsim._Engine._derivatives

    def counted(name, fn):
        def wrapper(self, x, t):
            calls[name] += 1
            return fn(self, x, t)
        return wrapper

    monkeypatch.setattr(tdsim._Engine, "_solve", counted("solve", solve))
    monkeypatch.setattr(tdsim._Engine, "_derivatives", counted("deriv", deriv))
    sched = EventSchedule((Event(t_fault, "fault_apply", grid.buses[0].id),
                           Event(t_fault + 0.02, "fault_clear")))
    ts = simulate(grid, sched, controllers, SimConfig(step=0.01, end=0.1),
                  SteadyState(load_scale=load_scale or {}))
    # one trimming solve when the engine is built, one per derivative
    assert calls["solve"] - calls["deriv"] - 1 == per_step * len(ts.t)


def _every_step(grid, events, cfg, steady):
    """`simulate`'s machine and bus channels, from an `_Engine` that calls
    `_step` on every step (split at the event times, as `run` splits it),
    `_apply_event` at those times, and `_solve` to record each step."""
    eng = tdsim._Engine(grid, (), cfg, steady)
    t_rec = np.arange(round(cfg.end / cfg.step) + 1) * cfg.step
    pending = list(events)
    rec = {}

    def record(t):
        pe, qe, _ = eng._solve(eng.x, t)
        x, m = eng.x, eng.m
        for q, col in zip(tdsim.MACHINE_CHANNELS, (
                pe * S_BASE_KVA, qe * S_BASE_KVA, x[:, 3] * S_BASE_KVA,
                x[:, 0], m.omega_s / (2 * math.pi) * (1 + x[:, 1]))):
            for r, mid in enumerate(m.ids):
                rec.setdefault(f"{mid}.{q}", []).append(col[r])
        for isl in eng.islands:
            vm = np.abs(isl.v[:len(isl.net.nodes)])
            for bus, node in isl.net.node_of.items():
                rec.setdefault(f"{bus}.v_pu", []).append(vm[node])

    t = 0.0
    record(t)
    for t_target in t_rec[1:].tolist():
        while t < t_target - 1e-12:
            while pending and pending[0].time <= t + 1e-12:
                eng._apply_event(pending.pop(0), t)
            t_next = t_target
            if pending and pending[0].time < t_target - 1e-12:
                t_next = pending[0].time
            eng.x = eng._step(eng.x, t, t_next - t)
            t = t_next
        while pending and pending[0].time <= t + 1e-12:
            eng._apply_event(pending.pop(0), t)
        record(t)
    return {name: np.array(values) for name, values in rec.items()}


def _count_steps(monkeypatch):
    calls = []
    step = tdsim._Engine._step

    def counted(self, x, t, dt):
        calls.append(t)
        return step(self, x, t, dt)

    monkeypatch.setattr(tdsim._Engine, "_step", counted)
    return calls


@pytest.mark.parametrize("cfg", [BARE_SMIB, SimConfig(step=0.005)],
                         ids=["bare", "governor-avr"])
def test_run_matches_an_every_step_reference(cfg):
    """SMIB at rest up to a fault applied inside a step, its clearing, and
    a quiet tail: `run` gives the bits of integrating every step."""
    events = (Event(0.1234, "fault_apply", "B_M"),
              Event(0.2234, "fault_clear"))
    cfg = dataclasses.replace(cfg, end=0.5)
    ref = _every_step(smib_grid(), events, cfg,
                      SteadyState(dispatch={"G1": 900.0}))
    ts = simulate(smib_grid(), EventSchedule(events), (), cfg,
                  SteadyState(dispatch={"G1": 900.0}))
    assert len(ts.t) == 101
    assert set(ref) == {name for name in ts.channels
                        if not name.endswith("_loss_kw")}
    for name, values in ref.items():
        np.testing.assert_array_equal(ts[name], values, err_msg=name)


def test_find_cct_integrates_no_pre_fault_step_twice(monkeypatch):
    """The trunk starts at the fault, applied at t = 0 to the trimmed
    equilibrium; the t_hi probe records it and every later probe branches
    from it: the search integrates 94 steps."""
    calls = _count_steps(monkeypatch)
    find_cct(smib_grid(), dataclasses.replace(SMIB_CCT, tol=1e-3, window=2.0))
    assert len(calls) == 94


@pytest.mark.parametrize("step, end", [(1e-300, 0.1), (1e-300, 1e300)])
def test_a_step_count_no_array_can_index_is_refused(step, end, monkeypatch):
    """The count is checked before the engine, and so any array, is built;
    it used to end in numpy's ValueError from `np.arange`."""
    monkeypatch.setattr(tdsim, "_Engine", None)
    with pytest.raises(InputError, match=re.escape(
            f"step_s = {step} cuts end_s = {end} into more steps than an "
            "array can index")):
        simulate(single_gen_grid(), EventSchedule(), (),
                 SimConfig(step=step, end=end))


def test_an_overflowing_state_is_a_numerical_error(ac_vessel):
    """A load scaled to 1e300 overflows the network solve: with numpy's
    warnings silenced for the run, its finiteness check fails."""
    sched = EventSchedule((Event(0.0, "load_step", "LOAD440_PS",
                                 scale=1e300),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="network fixed point not "
                           "converged at t=0.0000 s"):
            simulate(ac_vessel, sched, (), SimConfig(step=0.01, end=0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError,
                           match="network solve produced non-finite V"):
            find_cct(ac_vessel, CctFaultSpec("DG#01", loading=1e300,
                                             step=0.02, t_hi=0.5, tol=0.01,
                                             window=0.5))


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes, nan where nan, and the same bits elsewhere."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    np.testing.assert_array_equal(got[keep].view(np.uint64),
                                  want[keep].view(np.uint64))


def _array_derivatives(eng, x, t):
    """`_Engine._derivatives` as numpy expressions on whole columns."""
    pe, _, vt = eng._solve(x, t)
    m, dw = eng.m, x[:, 1]
    dx = np.empty_like(x)
    dx[:, 0] = m.omega_s * dw
    dx[:, 1] = (x[:, 3] - pe - m.damping * dw) / m.two_h
    dx[:, 2] = ((m.e_ref + AVR_GAIN * (m.v_ref - vt) - x[:, 2]) / AVR_T
                if eng.cfg.avr else 0.0)
    dx[:, 3] = ((m.pm_ref - dw / GOV_DROOP - x[:, 3]) / GOV_T
                if eng.cfg.governor else 0.0)
    return dx


@pytest.mark.parametrize("cell, value", [
    (None, None), ((0, 1), np.nan), ((1, 3), np.inf)],
    ids=["finite", "nan-dw", "inf-pm"])
@pytest.mark.parametrize("governor, avr", [
    (True, True), (True, False), (False, True), (False, False)])
def test_float_derivatives_are_the_array_expression(governor, avr, cell,
                                                    value):
    """Python floats, operation for operation, give numpy's bits."""
    eng = tdsim._Engine(dp_island(builtin_fixture("ac_vessel")), (),
                        SimConfig(step=0.01, end=0.1, governor=governor,
                                  avr=avr), SteadyState())
    rng = np.random.default_rng(7)
    x = eng.x * (1 + 1e-3 * rng.standard_normal(eng.x.shape))
    x[:, 1] += 1e-3 * rng.standard_normal(len(x))
    if cell is not None:
        x[cell] = value
    warm = [isl.v.copy() for isl in eng.islands]
    with np.errstate(invalid="ignore"):
        got = eng._derivatives(x, 0.0)
        for isl, v in zip(eng.islands, warm):
            isl.v = v      # the second solve starts where the first did
        want = _array_derivatives(eng, x, 0.0)
    _same_bits(got, want)


def test_a_zero_inertia_is_a_numerical_error_not_a_zero_division():
    """A 2H of 0 set on a built engine: dividing by it gives numpy's inf
    or nan, as on arrays, and the run ends in a finiteness check."""
    eng = tdsim._Engine(smib_grid(), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": 900.0}))
    eng.m.two_h[0] = 0.0
    x = eng.x.copy()
    x[0, 3] += 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        _same_bits(eng._derivatives(x, 0.0), _array_derivatives(eng, x, 0.0))
    sched = EventSchedule((Event(0.0, "fault_apply", "B_M"),))
    with pytest.raises(NumericalError):
        simulate(smib_grid(), sched, (), BARE_SMIB, _engine=eng)


def test_an_engine_without_machines_keeps_four_state_columns():
    eng = tdsim._Engine(single_gen_grid(), (),
                        BARE_SMIB, SteadyState())
    eng.m = dataclasses.replace(eng.m, **{
        f.name: getattr(eng.m, f.name)[:0] for f in dataclasses.fields(eng.m)
        if isinstance(getattr(eng.m, f.name), np.ndarray)})
    eng.params, eng.islands = None, []
    x = eng.x[:0]
    assert eng._derivatives(x, 0.0).shape == (0, 4)


def test_the_sweep_through_a_mid_cable_fault_is_the_reference():
    """A splice node grows the island, and with it the sweep's buffer, at
    the fault and shrinks it at the clearing: every solve keeps the
    reference's bits."""
    eng = tdsim._Engine(_smib_plus(**_THIRD_NODE), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": 600.0}))
    (isl,) = eng.islands
    x = eng.x.copy()
    sizes = []
    for ev in (None, Event(0.0, "fault_apply", "LINE", location=0.5),
               Event(0.0, "fault_clear")):
        if ev is not None:
            eng._apply_event(ev, 0.0)
        for k in range(3):
            x[:, 0] += 0.01
            warm = isl.v.copy()
            got = eng._solve(x, 0.0) + (isl.v.copy(),)
            isl.v = warm
            ref = reference_solve(eng, x, 0.0) + (isl.v,)
            for a, b in zip(got, ref):
                _same_bits(a, b)
        sizes.append(len(isl.den))
    assert sizes == [3, 4, 3]
