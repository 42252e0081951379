"""Scenarios and reference channels for the time-domain engine.

Each scenario runs `simulate` through one or more topology/fault epochs
(load ramps, bolted bus and mid-cable faults with clearing, a generator
trip with DP failover, peak shaving) under RK4, the engine's one
integrator.  Running this file stores every channel, decimated, in
``data/tdsim_reference.npz``; ``test_tdsim_reference.py`` then holds the
engine to those values.  The reference was generated from the engine that
assembled and solved the network afresh at every integration stage, so it
pins any network data kept across stages against going stale: the
``src`` of commit 7cb95b5^ ran these scenarios.  Run with today's ``src``,
this file writes today's values instead.

    PYTHONPATH=src:tests python tests/tdsim_reference.py [out.npz]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from vesselstudy import (
    ControllerConfig,
    Event,
    EventSchedule,
    SimConfig,
    builtin_fixture,
    simulate,
)

from helpers import ps_island

REFERENCE = Path(__file__).parent / "data" / "tdsim_reference.npz"
DECIMATE = 4


def _scenarios():
    full = builtin_fixture("ac_vessel")
    ps = ps_island(full)
    peak = ControllerConfig(mode="peak_shave", inverter="INV_PS",
                            watched=("DG#01",), p_threshold_kw=1500.0,
                            q_threshold_kvar=1000.0, p_rating_kw=1500.0,
                            q_rating_kvar=1500.0)
    dp = ControllerConfig(mode="dp_failover", inverter="INV_SB",
                          watched=("DG#04",), p_rating_kw=1500.0,
                          q_rating_kvar=1500.0)
    return {
        "load_ramp": (ps, (
            Event(0.3, "load_step", "LOAD440_PS", scale=1.25, ramp=0.4),
        ), (), SimConfig(step=0.01, end=1.2)),
        "bus_fault": (ps, (
            Event(0.3013, "fault_apply", "AC_PS"),
            Event(0.3587, "fault_clear"),
        ), (), SimConfig(step=0.01, end=1.0)),
        "cable_fault": (full, (
            Event(0.3, "fault_apply", "FDR_LV_PS", location=0.7),
            Event(0.37, "fault_clear"),
        ), (), SimConfig(step=0.005, end=0.9)),
        "trip_dp_failover": (full, (
            Event(0.2, "load_step", "LOAD440_SB", scale=1.1, ramp=0.1),
            Event(0.5023, "breaker_open", "CB_DG04"),
        ), (dp,), SimConfig(step=0.005, end=1.2)),
        "peak_shave": (ps, (
            Event(0.2, "load_step", "LOAD440_PS", scale=1.45, ramp=0.5),
        ), (peak,), SimConfig(step=0.02, end=1.6)),
        "epochs": (full, (
            Event(0.2, "fault_apply", "AC_SB"),
            Event(0.25, "fault_clear"),
            Event(0.4017, "breaker_open", "CB_DG04"),
            Event(0.6, "fault_apply", "FDR_LV_PS", location=0.8),
            Event(0.64, "fault_clear"),
        ), (dp,), SimConfig(step=0.005, end=1.0)),
    }


SCENARIOS = _scenarios()


def run(name: str):
    grid, events, controllers, cfg = SCENARIOS[name]
    return simulate(grid, EventSchedule(events), controllers, cfg)


def main(out: Path = REFERENCE) -> None:
    arrays = {}
    for name in SCENARIOS:
        ts = run(name)
        arrays[f"{name}::t"] = ts.t[::DECIMATE]
        for ch, values in ts.channels.items():
            arrays[f"{name}::{ch}"] = values[::DECIMATE]
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(out, **arrays)
    print(f"{out}: {len(arrays)} arrays, {out.stat().st_size} bytes")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else REFERENCE)
