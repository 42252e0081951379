"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; failures surface
as ordinary assertion errors.  Synthetic fixture data is never compared
against published absolute magnitudes; only quantities with published
reference values are asserted against numbers.
"""

import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vesselstudy import (
    ControllerConfig,
    Event,
    EventSchedule,
    SimConfig,
    battery_sc_trace,
    builtin_fixture,
    capacitor_sc_trace,
    converter_sc_contribution,
    dc_fault_summary,
    fault_summary,
    find_cct,
    fuse_i2t_clearing,
    selectivity_check,
    sequence_of_operations,
    serialize_grid,
    simulate,
    solve_ac_powerflow,
)
from vesselstudy.cli import main as cli_main
from vesselstudy.grid import CapacitorBranch, ConverterSpec
from vesselstudy.sc_dc import default_time_grid
from vesselstudy.tdsim import CctFaultSpec, ControllerState

from helpers import dp_island, equal_area_cct, ps_island, smib_grid

SQRT2 = math.sqrt(2.0)
TGRID = default_time_grid()   # the sc-dc engine's

FIG6_RLC = dict(capacitance=2400e-6, series_resistance=54.7e-3,
                series_inductance=5.5e-6)
# Initial voltage consistent with the published fuse crossing (the peak-based
# back-solve gives 650 V; both reconstructions agree within 1.5 %, see the
# decisions ledger for the discrepancy analysis).
EC_FIG6 = 659.6708829166075

CCT_BUDGET_S = 0.542


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_01_capacitor_discharge():
    t0 = time.perf_counter()
    tp_values = []
    for ec in (650.0, 1300.0):
        tr = capacitor_sc_trace(CapacitorBranch(initial_voltage=ec,
                                                **FIG6_RLC), TGRID)
        tp_values.append(tr.time_to_peak)
    assert tp_values[0] == tp_values[1]            # EC-independent
    assert tp_values[0] == pytest.approx(0.134e-3, rel=0.02)
    tr650 = capacitor_sc_trace(CapacitorBranch(initial_voltage=650.0,
                                               **FIG6_RLC), TGRID)
    assert tr650.peak_current == pytest.approx(6950.0, rel=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"tp={tp_values[0]*1e3:.4f} ms, peak={tr650.peak_current:.0f} A "
           f"in {elapsed:.2f} s")


def test_criterion_02_fuse_clearing():
    t0 = time.perf_counter()
    assert EC_FIG6 == pytest.approx(650.0, rel=0.02)
    trace = capacitor_sc_trace(CapacitorBranch(initial_voltage=EC_FIG6,
                                               **FIG6_RLC), TGRID)
    t_clear = fuse_i2t_clearing(trace, 9350.0)   # the 170M1790 fuse
    assert t_clear == pytest.approx(0.351e-3, rel=0.03)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, f"t_clear={t_clear*1e3:.4f} ms in {elapsed:.2f} s")


@pytest.mark.parametrize("iac,idc,ip", [
    (13.759, 16.311, 35.769),
    (17.971, 21.076, 46.490),
    (12.733, 15.458, 33.521),
    (7.035, 7.689, 17.638),
])
def test_criterion_03_composition_identity(iac, idc, ip):
    composed = SQRT2 * iac + idc
    assert composed == pytest.approx(ip, rel=0.002)
    _ok(3, f"sqrt2*{iac}+{idc} = {composed:.3f} kA vs {ip} kA")


def test_criterion_04_dc_aggregation():
    grid = builtin_fixture("dc_vessel")
    summ = dc_fault_summary(grid, "DC_PS")
    assert summ.sustained == 14900.0 + 1275.0 == 16175.0
    bat = grid.batteries[0]
    tr = battery_sc_trace(bat, np.array([0.0, bat.sc_time_constant]))
    closed_form = 14900.0 * (1.0 - math.exp(-1.0))
    assert tr.i[-1] == pytest.approx(closed_form, rel=1e-3)
    assert closed_form == pytest.approx(9419.0, abs=1.0)
    _ok(4, f"sustained={summ.sustained:.0f} A, battery(tau)={tr.i[-1]:.1f} A")


def test_criterion_05_charger_contribution_rule():
    charger = ConverterSpec("CH", "DCB", "charger", 850.0, 552.5,
                            sc_contribution_factor=1.5)
    tr = converter_sc_contribution(charger, TGRID)
    assert tr.sustained == 1275.0
    inverter = ConverterSpec("INV", "DCB", "inverter", 1150.0, 550.0)
    assert converter_sc_contribution(inverter, TGRID).sustained == 0.0
    _ok(5, "850 A charger at 1.5 -> 1275 A; inverter -> 0 A")


def test_criterion_06_protection_timing():
    grid = builtin_fixture("ac_vessel")
    sol = solve_ac_powerflow(grid)
    summ = fault_summary(grid, "AC_PS", sol)

    plain = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=False)
    assert {e.time_s for e in plain} == {0.216}
    assert 0.216 < CCT_BUDGET_S

    zsi = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=True)
    nearest = zsi[0]
    assert nearest.breaker_id == "CB_DG01" and not nearest.locked
    assert all(e.time_s > nearest.time_s for e in zsi[1:])
    rep = selectivity_check(zsi, CCT_BUDGET_S)
    assert rep.selective and rep.cleared_within_cct

    backup = sequence_of_operations(grid, summ, "DG#01", zsi_enabled=True,
                                    failed_breakers={"CB_DG01"})
    assert backup and all(math.isfinite(e.time_s) for e in backup)
    assert all(e.time_s <= CCT_BUDGET_S for e in backup)
    _ok(6, f"{len(plain)} breakers at 216 ms; ZSI nearest-first with "
           f"{rep.coordination_margin_s*1e3:.0f} ms margin; backups survive "
           "nearest failure")


@pytest.fixture(scope="module")
def peak_shave_run():
    grid = ps_island(builtin_fixture("ac_vessel"))
    ctl = ControllerConfig(mode="peak_shave", inverter="INV_PS",
                           watched=("DG#01",), p_threshold_kw=1500.0,
                           q_threshold_kvar=1000.0, p_rating_kw=1500.0,
                           q_rating_kvar=1500.0)
    sched = EventSchedule((
        Event(1.0, "load_step", "LOAD440_PS", scale=1.45, ramp=2.0),
        Event(5.0, "load_step", "LOAD440_PS", scale=1.0, ramp=2.0),
    ))
    ts = simulate(grid, sched, (ctl,), SimConfig(step=0.02, end=9.0))
    ramp_step = (1.45 - 1.0) * 1080.0 / 2.0 * 0.02
    return ts, ramp_step


@pytest.fixture(scope="module")
def dp_run():
    grid = dp_island(builtin_fixture("ac_vessel"))
    convs = tuple(
        dataclasses.replace(c, p_set_kw=1000.0) if c.id == "THR_BOW1" else c
        for c in grid.converters)
    grid = dataclasses.replace(grid, converters=convs)
    ctl = ControllerConfig(mode="dp_failover", inverter="INV_PS",
                           watched=("DG#02",), p_rating_kw=1500.0,
                           q_rating_kvar=1500.0)
    sched = EventSchedule((Event(2.0, "breaker_open", "CB_DG02"),))
    ts = simulate(grid, sched, (ctl,), SimConfig(step=0.01, end=7.5),
                  dispatch={"DG#01": 1200.0})
    return ts


def test_criterion_07_controller_properties(peak_shave_run, dp_run):
    ts, ramp_step = peak_shave_run
    gen_p = ts["DG#01.p_kw"]
    inv_p = ts["INV_PS.p_kw"]
    assert gen_p.max() <= 1500.0 + ramp_step
    assert inv_p.min() >= 0.0 and inv_p.max() <= 1500.0

    dp = dp_run
    pre2 = dp["DG#02.p_kw"][dp.t < 2.0][-1]
    post_inv = dp["INV_PS.p_kw"][dp.t > 2.0]
    assert post_inv[0] == pytest.approx(min(pre2, 1500.0), rel=1e-6)
    assert np.all(post_inv == post_inv[0])
    # the clamp itself, on a delayed sample exceeding the rating
    st = ControllerState(ControllerConfig(
        mode="dp_failover", inverter="INV", watched=("G",), p_rating_kw=1500.0,
        q_rating_kvar=1500.0))
    for k in range(30):
        st.record(0.05 * k, {"G": 2000.0}, {"G": 0.0})
    st.generator_lost("G", 1.0)
    assert st.setpoint[0] == 1500.0

    pre1 = dp["DG#01.p_kw"][dp.t < 2.0][-1]
    tail = dp["DG#01.p_kw"][dp.t >= 7.0]   # event + 5 s
    assert np.all(np.abs(tail - pre1) / pre1 < 0.02)
    _ok(7, f"peak-shave cap {gen_p.max():.1f} <= 1500+{ramp_step:.1f} kW, "
           f"inverter within rating; DP latch {post_inv[0]:.1f} kW, "
           f"survivor back to {tail[-1]:.1f} kW")


def test_criterion_08_cct_machinery():
    grid = smib_grid()
    results = {}
    for loading in (0.90, 0.95):
        res = find_cct(grid, CctFaultSpec(
            "G1", loading=loading, location=0.0, step=0.005, governor=False,
            avr=False, t_lo=0.0, t_hi=0.4, tol=1e-3, window=2.0))
        assert res.interval[1] - res.interval[0] <= 1e-3
        # stability is monotone in clearing time across the whole transcript
        stable_ts = [t for t, ok in res.transcript if ok]
        unstable_ts = [t for t, ok in res.transcript if not ok]
        assert max(stable_ts) < min(unstable_ts)
        oracle = equal_area_cct(loading)
        assert res.cct == pytest.approx(oracle, abs=2e-3)
        results[loading] = (res.cct, oracle)
    assert results[0.95][0] <= results[0.90][0]
    _ok(8, "CCT(90%%)=%.1f ms (EAC %.1f), CCT(95%%)=%.1f ms (EAC %.1f)" % (
        results[0.90][0] * 1e3, results[0.90][1] * 1e3,
        results[0.95][0] * 1e3, results[0.95][1] * 1e3))


def test_criterion_09_conservation_suite(peak_shave_run):
    # capacitor energy balance
    cap = CapacitorBranch(initial_voltage=650.0, **FIG6_RLC)
    delta = cap.series_resistance / (2 * cap.series_inductance)
    tgrid = np.arange(0.0, 20.0 / delta, 0.2e-6)
    tr = capacitor_sc_trace(cap, tgrid)
    dissipated = np.trapezoid(tr.i ** 2 * cap.series_resistance, tgrid)
    stored = 0.5 * cap.capacitance * cap.initial_voltage ** 2
    assert dissipated == pytest.approx(stored, rel=0.005)

    # power-flow mismatch on both fixtures
    for name in ("ac_vessel", "dc_vessel"):
        sol = solve_ac_powerflow(builtin_fixture(name), tol=1e-8)
        assert sol.max_mismatch <= 1e-8

    # time-domain per-step balance from the recorded channels
    ts, _ = peak_shave_run
    gen = ts["DG#01.p_kw"]
    inv = ts["INV_PS.p_kw"]
    load = ts["CRANE_PS.p_kw"] + ts["LOAD440_PS.p_kw"]
    resid = gen + inv - load - ts["sys.p_loss_kw"]
    assert np.max(np.abs(resid)) < 1e-3
    _ok(9, f"RLC energy {dissipated:.2f}/{stored:.2f} J, powerflow <= 1e-8 pu, "
           f"tdsim residual {np.max(np.abs(resid)):.2e} kW")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    smib_path = tmp_path / "smib.grid"
    smib_path.write_text(serialize_grid(smib_grid()))
    peak_study = tmp_path / "peak.study"
    from helpers import PS_ISLAND_OPEN
    peak_study.write_text(
        "[breakers]\n"
        + "\n".join(f"{b} = false" for b in PS_ISLAND_OPEN)
        + "\n\n[sim]\nstep_s = 0.02\nend_s = 2.0\n"
        "\n[event up]\ntime_s = 0.5\naction = load_step\n"
        "target = LOAD440_PS\nscale = 1.3\nramp_s = 0.5\n"
        "\n[controller ps]\nmode = peak_shave\ninverter = INV_PS\n"
        "watched = DG#01\np_threshold_kw = 1500\nq_threshold_kvar = 1000\n"
        "p_rating_kw = 1500\nq_rating_kvar = 1500\n")
    protect_study = tmp_path / "protect.study"
    protect_study.write_text("[protect]\nfault_element = DG#01\nzsi = true\n"
                             "cct_budget_s = 0.542\n")
    cct_study = tmp_path / "cct.study"
    cct_study.write_text("[cct]\nmachine = G1\nloading = 0.9\nlocation = 0\n"
                         "t_lo_s = 0\nt_hi_s = 0.4\ntol_s = 0.05\n"
                         "step_s = 0.005\nwindow_s = 1.5\n"
                         "governor = off\navr = off\n")
    studies = [
        ("powerflow_ac", ["powerflow", "--grid", "builtin:ac_vessel"]),
        ("powerflow_dc", ["powerflow", "--grid", "builtin:dc_vessel"]),
        ("sc_ac", ["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS"]),
        ("sc_dc", ["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS"]),
        ("protect", ["protect", "--grid", "builtin:ac_vessel",
                     "--study", str(protect_study)]),
        ("tdsim", ["tdsim", "--grid", "builtin:ac_vessel",
                   "--study", str(peak_study)]),
        ("cct", ["cct", "--grid", str(smib_path), "--study", str(cct_study)]),
    ]
    for name, argv in studies:
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert cli_main(argv + ["--out", str(out)]) == 0, name
            h = hashlib.sha256()
            for f in sorted(Path(out).rglob("*")):
                if f.is_file():
                    h.update(f.name.encode())
                    h.update(f.read_bytes())
            digests.append(h.hexdigest())
        assert digests[0] == digests[1], f"{name} artifacts differ between runs"
    # i2t on an artifact of the sc-dc study
    trace = tmp_path / "sc_dc_a" / "trace_BAT_PS.csv"
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"i2t_{run}"
        assert cli_main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350",
                         "--out", str(out)]) == 0
        outs.append((out / "i2t.csv").read_bytes())
    assert outs[0] == outs[1]
    _ok(10, f"{len(studies)+1} studies byte-identical across repeated runs "
            f"in {time.perf_counter()-t0:.1f} s")
