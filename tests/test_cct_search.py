"""The CCT search against a reference bisection of full probes, and the
probes that may end early with a stable or an unstable verdict."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vesselstudy import SimConfig, find_cct, tdsim  # noqa: E402
from vesselstudy.grid import Bus, CableBranch  # noqa: E402

from helpers import (SMIB_CCT, cap_probes, reference_cct,  # noqa: E402
                     smib_grid)

BARE_SMIB = SimConfig(step=0.005, governor=False, avr=False)
# the searches whose probes `_probe_runs` records
PROBED = dataclasses.replace(SMIB_CCT, tol=0.02, window=1.0)
ZBASE = 690.0 ** 2 / 1e6


def two_machine_grid(h_ratio=None, r_pu=0.0, d_per_h=0.0, d_ib=None,
                     ib_id="IB"):
    """smib_grid with a line resistance of `r_pu` and damping D = `d_per_h` H
    on both machines (equal D/2H).  With `h_ratio` the stiff source becomes
    a finite machine whose inertia is that multiple of G1's; `d_ib`
    overrides the source's damping.  An `ib_id` that sorts before G1 puts
    the source first, so G1 swings towards -pi relative to it."""
    grid = smib_grid()
    g1, ib = grid.generators
    h1 = g1.dynamics.inertia_h
    h_ib = (ib.dynamics.inertia_h if h_ratio is None
            else h_ratio * h1 * g1.rated_kva / ib.rated_kva)
    g1 = dataclasses.replace(g1, dynamics=dataclasses.replace(
        g1.dynamics, damping=d_per_h * h1))
    ib = dataclasses.replace(ib, dynamics=dataclasses.replace(
        ib.dynamics, inertia_h=h_ib,
        damping=d_per_h * h_ib if d_ib is None else d_ib), id=ib_id)
    line = dataclasses.replace(grid.branches[0], resistance_ohm=r_pu * ZBASE)
    return dataclasses.replace(grid, generators=(g1, ib), branches=(line,))


@settings(deadline=None, max_examples=6)
@given(st.floats(0.7, 1.0),
       st.just(0.0) | st.floats(0.2, 0.8),
       st.none() | st.floats(0.5, 50.0),
       st.just(0.0) | st.floats(0.0, 0.1),
       st.just(0.0) | st.floats(-1.0, 1.0))
def test_search_matches_reference_bisection(loading, location, h_ratio, r_pu,
                                            d_per_h):
    """Probes branched from one shared trajectory, stopped at their
    verdict, and stopped stable once the energy certificate holds, give the
    same CctResult as probes run from t = 0 over the whole window: for a
    bus or a line fault, a stiff source or a finite second machine listed
    before or after G1, lossy lines and equal D/2H damping of either sign,
    down to clearing times within 1e-4 s of the CCT."""
    spec = dataclasses.replace(SMIB_CCT, loading=loading, location=location,
                               tol=1e-4, window=1.0)
    for ib_id in ("IB", "A_SOURCE"):
        grid = two_machine_grid(h_ratio, r_pu, d_per_h, ib_id=ib_id)
        res = find_cct(grid, spec)
        assert res.interval[1] - res.interval[0] <= 1e-4
        assert res == reference_cct(grid, spec)


def _probe_runs(monkeypatch, grid, spec):
    """Search G1's CCT by `spec`; return (clearing time, last recorded
    time, the engine's verdict, rotor-angle spread at the last step) of
    every probe."""
    runs = []
    run = tdsim._Engine.run

    def recorded(self, events):
        ts = run(self, events)
        deltas = [v[-1] for name, v in ts.channels.items()
                  if name.endswith(".delta_rad")]
        runs.append((events[-1].time, float(ts.t[-1]), ts.stable,
                     max(deltas) - min(deltas)))
        return ts

    monkeypatch.setattr(tdsim._Engine, "run", recorded)
    find_cct(grid, spec)
    assert any(stable for _, _, stable, _ in runs)
    assert any(not stable for _, _, stable, _ in runs)
    return runs


def _three_machines():
    grid = smib_grid()
    g2 = dataclasses.replace(grid.generators[0], id="G2", bus="B_2")
    line = CableBranch("LINE2", "B_2", "B_INF", 0.0, 0.5 * ZBASE)
    return dataclasses.replace(
        grid, buses=grid.buses + (Bus("B_2", "ac", 690.0, 60.0),),
        generators=grid.generators + (g2,), branches=grid.branches + (line,))


@pytest.mark.parametrize("grid, spec", [
    (_three_machines(), PROBED),
    (smib_grid(), dataclasses.replace(PROBED, governor=True)),
    (smib_grid(), dataclasses.replace(PROBED, avr=True)),
    (two_machine_grid(d_per_h=1.0, d_ib=0.0), PROBED),
    (two_machine_grid(h_ratio=2.0, d_per_h=-0.5), PROBED),
], ids=["three-machines", "governor", "avr", "unequal-damping",
        "negative-damping"])
def test_ineligible_stable_probes_run_the_whole_window(monkeypatch, grid, spec):
    """Without the two-machine energy certificate a stable probe still
    integrates every step of its window, and an unstable one runs until
    its spread reaches pi."""
    for t_end, last, stable, spread in _probe_runs(monkeypatch, grid, spec):
        if stable:
            assert last >= t_end + spec.window - spec.step, t_end
        else:
            assert spread >= math.pi, t_end


ELIGIBLE = pytest.mark.parametrize("grid, location", [
    (smib_grid(), 0.0),
    (smib_grid(), 0.5),
    (two_machine_grid(h_ratio=2.0, r_pu=0.05, d_per_h=0.5), 0.3),
])


@ELIGIBLE
def test_eligible_stable_probes_end_after_clearing(monkeypatch, grid,
                                                   location):
    """On a lone two-machine linear island a stable probe ends within a
    few steps after its clearing."""
    spec = dataclasses.replace(PROBED, location=location)
    for t_end, last, stable, _ in _probe_runs(monkeypatch, grid, spec):
        if stable:
            assert t_end - 1e-9 <= last <= t_end + 3 * spec.step, t_end


@ELIGIBLE
def test_eligible_unstable_probes_end_after_clearing(monkeypatch, grid,
                                                     location):
    """On a lone two-machine linear island an unstable probe, too, ends
    within a few steps after its clearing, if need be before its spread
    reaches pi."""
    spec = dataclasses.replace(PROBED, location=location)
    unstable = [(t_end, last, spread) for t_end, last, stable, spread
                in _probe_runs(monkeypatch, grid, spec) if not stable]
    for t_end, last, _ in unstable:
        assert t_end - 1e-9 <= last <= t_end + 3 * spec.step, t_end
    assert any(spread < math.pi for *_, spread in unstable)


@pytest.mark.parametrize("grid, step", [
    (smib_grid(), 0.05),
    (two_machine_grid(h_ratio=2.0, r_pu=0.05), 0.02),
], ids=["smib-50ms", "lossy-finite-20ms"])
def test_long_window_search_matches_reference(monkeypatch, grid, step):
    """Over a 20 s window at a coarse step, where an energy drift that
    grew with the window would show, probes that end early still give the
    CctResult of full-window probes."""
    spec = dataclasses.replace(PROBED, location=0.5, step=step, window=20.0)
    runs = _probe_runs(monkeypatch, grid, spec)
    assert any(stable and last < t_end + 20.0 - step
               for t_end, last, stable, _ in runs)
    assert find_cct(grid, spec) == reference_cct(grid, spec)


def test_certificate_bounds_the_speed_over_the_time_left():
    """The same state is certified for a 2 s remainder but not for a far
    longer one, over which the centre-of-inertia speed bound of a lossy
    island could pass the sanity bound."""
    grid = two_machine_grid(h_ratio=2.0, r_pu=0.05)
    eng = tdsim._Engine(grid, (), BARE_SMIB,
                        dispatch={"G1": 810.0})
    certify = eng._swing_certificate()
    assert certify(eng.x, 2.0) is True
    assert certify(eng.x, 1e9) is None


@pytest.mark.parametrize("grid, certified", [
    (two_machine_grid(h_ratio=2.0, d_per_h=0.5), True),
    (two_machine_grid(h_ratio=2.0, d_per_h=-0.5), None),
    (two_machine_grid(h_ratio=-2.0), None),
], ids=["positive-damping", "negative-damping", "negative-inertia"])
def test_certificate_needs_a_swing_that_cannot_gain_energy(grid, certified):
    """Negative damping feeds the swing and a negative inertia voids the
    speed bounds, so neither steady state gets a verdict."""
    eng = tdsim._Engine(grid, (), BARE_SMIB,
                        dispatch={"G1": 810.0})
    assert eng._swing_certificate()(eng.x, 2.0) is certified


def _g1_speed_state(eng, dw, coi=0.0, angle=None):
    """The engine's equilibrium with G1 at speed deviation `dw` relative
    to the second machine, whose own is `coi`, and with `angle` the
    rotor angle of G1 relative to it."""
    x = eng.x.copy()
    x[:, 1] = (dw + coi, coi)
    if angle is not None:
        x[0, 0] = x[1, 0] + angle
    return x


def _least_unstable_speed(certify, eng, t_left, angle=None):
    """Bisect G1's least speed deviation certified unstable."""
    lo, hi = 0.0, 0.1
    assert certify(_g1_speed_state(eng, lo, angle=angle), t_left) is not False
    assert certify(_g1_speed_state(eng, hi, angle=angle), t_left) is False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if certify(_g1_speed_state(eng, mid, angle=angle), t_left) is False:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("t_left", [2.0, 1e3])
@pytest.mark.parametrize("grid, angle", [
    (smib_grid(), None),
    (smib_grid(), -0.113),
    (two_machine_grid(h_ratio=2.0, r_pu=0.05, d_per_h=0.5), None),
], ids=["smib", "smib-behind", "lossy-finite-damped"])
def test_least_unstable_state_reaches_pi_in_time(grid, angle, t_left):
    """The slowest swing certified unstable, run in full (10 s), reaches
    pi within the time it was certified for: the certificate charges the
    swing the potential of the whole path, its peak at the saddle too
    (from -0.113 rad the saddle lies halfway along a piece of the path),
    and what damping takes."""
    eng = tdsim._Engine(grid, (), BARE_SMIB,
                        dispatch={"G1": 810.0})
    certify = eng._swing_certificate()
    eng.x = _g1_speed_state(
        eng, _least_unstable_speed(certify, eng, t_left, angle), angle=angle)
    ts = eng.run(())
    spread = np.abs(ts["G1.delta_rad"] - ts[f"{eng.mach_ids[1]}.delta_rad"])
    assert spread[ts.t <= t_left].max() >= math.pi


def test_fast_swing_at_a_coarse_step_gets_no_verdict():
    """At 50 ms a swing of 30 rad/s can pass pi and more between two
    recording steps, so it is not certified unstable; at 5 ms it is."""
    for step, verdict in ((0.05, None), (0.005, False)):
        cfg = dataclasses.replace(BARE_SMIB, step=step)
        eng = tdsim._Engine(smib_grid(), (), cfg,
                            dispatch={"G1": 810.0})
        x = _g1_speed_state(eng, 30.0 / (2 * math.pi * 60.0))
        assert eng._swing_certificate()(x, 2.0) is verdict


def test_near_critical_state_needs_time_and_speed_margins():
    """Just past the critical energy the swing creeps over the saddle, so
    a state is certified unstable only when its time bound fits in the
    time left, and only when the speed bounds keep every |dw| clear of
    the sanity bound up to the crossing."""
    eng = tdsim._Engine(smib_grid(), (), BARE_SMIB,
                        dispatch={"G1": 810.0})
    certify = eng._swing_certificate()
    hi = _least_unstable_speed(certify, eng, 1e3)
    assert certify(_g1_speed_state(eng, hi), 2.0) is None
    assert certify(_g1_speed_state(eng, 1.2 * hi), 2.0) is False
    # the stiff source's speed is the centre of inertia's
    assert certify(_g1_speed_state(eng, 1.2 * hi, coi=0.99), 2.0) is None


def test_a_tolerance_below_the_float_spacing_ends_one_ulp_wide(monkeypatch):
    """Once lo and hi are adjacent floats their midpoint is one of them, so
    a `tol` below that spacing used to bisect forever on the same probe."""
    probes = cap_probes(monkeypatch, 100)
    res = find_cct(smib_grid(), dataclasses.replace(
        SMIB_CCT, loading=0.8, step=0.02, tol=1e-300, window=1.0))
    lo, hi = res.interval
    assert hi == np.nextafter(lo, math.inf)
    times = [t for t, _ in res.transcript]
    # each probe clears at a new time, and t_lo = 0 is stable unprobed
    assert len(set(times)) == len(times) == len(probes) + 1
