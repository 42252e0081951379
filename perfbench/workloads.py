"""Seeded inputs for the four benchmark workloads.

Every grid file is generated from the commit under test through the public
API (``builtin_fixture``, ``dataclasses.replace``, ``with_breaker_states``,
``serialize_grid``); every study file uses only keys the CLI documents,
booleans are written ``true``/``false`` and nothing relies on knobs that are
slated for removal (``[sim] network_interval``).

Each workload is a *plan*: the list of studies one run makes, in rounds.
The number of rounds follows from the run length and `ROUND_S`, the time
one round takes on the reference host, and never from the clock, so a
seed always gives the same studies.  Categorical factors (study kind, grid
size, topology, fault site) are fixed by the position in the plan;
continuous factors (load scales, timings, loading, fault location) are
drawn by the seed from declared physical ranges, afresh for every study;
`transient` and `cct_search`, whose studies are few and long, draw one
value per stratum of each range, so two seeds cost about the same work
while exercising different operating points.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace

# breakers that leave only the port-side section of the AC vessel energised
PS_ISLAND_OPEN = (
    "CB_TIE_PS_MID", "CB_DG02", "CB_DG03", "CB_DG04", "CB_DG05",
    "CB_CRANE_SB", "CB_LOAD440_SB", "CB_THR_BOW2", "CB_THR_BOW3",
    "CB_THR_PROP_SB", "CB_INV_SB",
)
# the same with DG#02 left online (dynamic-positioning scenario)
DP_ISLAND_OPEN = tuple(b for b in PS_ISLAND_OPEN if b != "CB_DG02")

# extra busbar sections per screening size class; 0 is the fixture itself
SCREENING_SIZES = (0, 3, 9)
# tdsim scenario ranges (physical, not tuned to pass)
LOAD_STEP_RANGE = (0.85, 1.30)     # LOAD440_PS target scale
RAMP_RANGE_S = (0.10, 0.30)
FAULT_DURATION_RANGE_S = (0.04, 0.10)
TRIP_RANGE_S = (1.8, 2.6)
TRANSIENT_STEP_S = 0.005
TRANSIENT_END_S = 4.0
CCT_LOADING_RANGE = (0.70, 1.00)   # fraction of G1 rated kW
CCT_TOL_S = 1e-3
# one round of each plan on the reference host (a 2-vCPU Intel Xeon VM at
# 2.0 GHz, in the calibrated time of hostspeed.py)
ROUND_S = {"screening": 0.135, "fault_traces": 1.65, "transient": 18.0,
           "cct_search": 7.7}


@dataclass
class Study:
    """One CLI invocation plus what its artifacts must satisfy."""

    sid: str
    argv: list[str]                 # without --out
    check: str                      # name of the check in checks.py
    scenario: str                   # the drawn parameters, for reports
    expect: dict = field(default_factory=dict)
    reads: str | None = None        # study whose artifacts this one reads


@dataclass
class Workload:
    name: str
    grids: list[str]                # grid files loaded by the studies
    plan: list[Study]
    round_size: int                 # studies in one round of the plan
    warmup: int                     # leading plan entries run untimed once


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw inside each of n equal bins of [lo, hi], shuffled."""
    width = (hi - lo) / n
    vals = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(vals)
    return vals


class Latin:
    """Latin-hypercube draws for one round: each factor's range is cut into
    `n` equal strata with one uniform draw in each, handed out in shuffled
    order, so every round covers every factor's range evenly."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.pools: dict[str, list[float]] = {}

    def __call__(self, factor: str, lo: float, hi: float) -> float:
        if not self.pools.get(factor):
            self.pools[factor] = strata(self.rng, self.n, lo, hi)
        return self.pools[factor].pop()


def _num(x: float) -> str:
    return repr(float(x))


def _section(header: str, keys: dict) -> str:
    lines = [f"[{header}]"]
    for k, v in keys.items():
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = _num(v)
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def _study_text(sections: list[tuple[str, dict]]) -> str:
    return "\n".join(_section(h, k) for h, k in sections if k)


class Writer:
    """Writes input files; `out(sid)` names the artifact directory of a study."""

    def __init__(self, vs, directory: str, out_root: str):
        self.vs = vs
        self.dir = directory
        self.out_root = out_root
        self.grid_sizes: dict[str, dict] = {}     # for the run record
        os.makedirs(directory, exist_ok=True)

    def out(self, sid: str) -> str:
        return os.path.join(self.out_root, sid)

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return path

    def grid(self, name: str, grid) -> str:
        self.grid_sizes[name] = {
            "buses": len(grid.buses), "branches": len(grid.branches),
            "elements": sum(1 for _ in grid.elements()),
            "breakers": len(grid.breakers)}
        return self.file(f"{name}.grid", self.vs.serialize_grid(grid))


# ---- grids ---------------------------------------------------------------


def sectioned_ac_vessel(vs, extra: int, rng: random.Random):
    """The AC vessel with `extra` busbar sections between AC_MID and AC_SB.

    Each added section repeats the mid-section pattern (one genset, one
    thruster drive, section ties) plus a 440 V sub-bus on its own feeder
    cable with a generation load, so buses, elements and power-flow nodes
    all grow with the section count.  Feeder impedance and load size are
    drawn per section.
    """
    base = vs.builtin_fixture("ac_vessel")
    if extra == 0:
        return base
    g = {e.id: e for e in base.generators}
    c = {e.id: e for e in base.converters}
    ld = {e.id: e for e in base.loads}
    bk = {e.id: e for e in base.breakers}
    mid_bus = base.bus("AC_MID")
    lv_bus = base.bus("LV_PS")
    feeder = next(b for b in base.branches if b.id == "FDR_LV_PS")

    buses, gens, convs, loads, branches = [], [], [], [], []
    breakers = [b for b in base.breakers if b.id != "CB_TIE_MID_SB"]
    chain = ["AC_MID"]
    for k in range(1, extra + 1):
        sec, lv = f"AC_M{k}", f"LV_M{k}"
        buses += [replace(mid_bus, id=sec), replace(lv_bus, id=lv)]
        gens.append(replace(g["DG#05"], id=f"DG#M{k}", bus=sec))
        convs.append(replace(c["THR_BOW2"], id=f"THR_M{k}", bus=sec))
        loads.append(replace(ld["LOAD440_PS"], id=f"LOAD440_M{k}", bus=lv,
                             rated_kva=ld["LOAD440_PS"].rated_kva
                             * rng.uniform(0.4, 1.0)))
        z = rng.uniform(0.8, 1.25)
        branches.append(replace(feeder, id=f"FDR_LV_M{k}", from_bus=sec,
                                to_bus=lv,
                                resistance_ohm=feeder.resistance_ohm * z,
                                reactance_ohm=feeder.reactance_ohm * z))
        breakers += [
            replace(bk["CB_DG05"], id=f"CB_DGM{k}", from_element=f"DG#M{k}",
                    to_element=sec),
            replace(bk["CB_THR_BOW2"], id=f"CB_THR_M{k}",
                    from_element=f"THR_M{k}", to_element=sec),
            replace(bk["CB_LOAD440_PS"], id=f"CB_LOAD440_M{k}",
                    from_element=f"LOAD440_M{k}", to_element=lv),
            replace(bk["CB_TIE_MID_SB"], id=f"CB_TIE_{chain[-1]}_{sec}",
                    from_element=chain[-1], to_element=sec),
        ]
        chain.append(sec)
    breakers.append(replace(bk["CB_TIE_MID_SB"], id=f"CB_TIE_{chain[-1]}_SB",
                            from_element=chain[-1], to_element="AC_SB"))
    return replace(
        base, name=f"ac_vessel_s{extra}",
        buses=base.buses + tuple(buses),
        generators=base.generators + tuple(gens),
        converters=base.converters + tuple(convs),
        loads=base.loads + tuple(loads),
        branches=base.branches + tuple(branches),
        breakers=tuple(breakers))


def smib_grid(vs):
    """One machine behind x'd = 0.3 pu and a j0.4 pu line to a stiff source.

    The machine base equals the 1 MVA system base so per-unit quantities
    match the hand formulas of `equal_area_cct`; the stiff source is a
    machine with enormous inertia and negligible reactance.
    """
    buses = (vs.Bus("B_M", "ac", 690.0, 60.0),
             vs.Bus("B_INF", "ac", 690.0, 60.0))
    g1 = vs.GeneratorSpec(
        "G1", "B_M", 1000.0, 900.0, 690.0, 836.74, 60.0, 0.90, 900.0, 1.0,
        dynamics=vs.GeneratorDynamicParams(
            xd=1.8, xd_t=0.3, xd_st=0.2, td0_t=5.0, td0_st=0.05, tdc=0.1,
            inertia_h=3.5, damping=0.0, synthetic=True))
    ib = vs.GeneratorSpec(
        "IB", "B_INF", 1e6, 9e5, 690.0, 836740.0, 60.0, 0.90, 900.0, 1.0,
        dynamics=vs.GeneratorDynamicParams(
            xd=3e-5, xd_t=2e-5, xd_st=1e-5, td0_t=100.0, td0_st=1.0, tdc=0.1,
            inertia_h=1e7, damping=0.0, synthetic=True))
    zb = 690.0 ** 2 / 1e6
    line = vs.CableBranch("LINE", "B_M", "B_INF", 0.0, 0.4 * zb)
    return vs.GridModel("smib", buses=buses, branches=(line,),
                        generators=(g1, ib))


def equal_area_cct(loading: float, h: float = 3.5, xdp: float = 0.3,
                   xline: float = 0.4, f: float = 60.0) -> float:
    """Closed-form critical clearing time of a bolted fault at the SMIB
    machine bus (electrical power zero while the fault is on); Kundur,
    Power System Stability and Control, 1994, ch. 13."""
    pm = loading * 0.9          # rated_kw 900 on the 1 MVA base
    th = math.asin(pm * xline)
    vm = complex(math.cos(th), math.sin(th))
    i = (vm - 1.0) / (1j * xline)
    ep = vm + 1j * xdp * i
    d0 = math.atan2(ep.imag, ep.real)
    dmax = math.pi - d0
    dc = math.acos(math.sin(d0) * (dmax - d0) + math.cos(dmax))
    return math.sqrt(4.0 * h * (dc - d0) / (2.0 * math.pi * f * pm))


# ---- screening -------------------------------------------------------------


def _ac_patterns(grid) -> list[tuple[str, dict]]:
    """Breaker configurations that keep a generator in every live island.

    `tie_split` opens the first section tie (in id order) other than
    PS-MID: MID-SB on the fixture, a tie between added sections on the
    variants.
    """
    ties = sorted(b.id for b in grid.breakers
                  if b.id.startswith("CB_TIE_") and b.id != "CB_TIE_PS_MID")
    patterns = [
        ("closed", {}),
        ("tie_ps_open", {"CB_TIE_PS_MID": False}),
        ("tie_split", {ties[0]: False}),
        ("dg_thr_out", {"CB_DG04": False, "CB_THR_BOW1": False}),
    ]
    for _, states in patterns:
        grid.with_breaker_states(states)     # raises on an unknown breaker
    return patterns


def _load_scales(rng, grid, lo=0.5, hi=1.0) -> dict:
    return {l.id: round(rng.uniform(lo, hi), 4) for l in grid.loads}


def _online(grid, states: dict, element_id: str) -> bool:
    bk = grid.element_breaker(element_id)
    return bk is None or states.get(bk.id, bk.closed)


def _dispatch(rng, grid, states) -> dict:
    """P set-points for a drawn subset of the smaller online gensets."""
    out = {}
    for g in sorted(grid.generators, key=lambda g: g.id):
        if (g.rated_kva < 3000 and _online(grid, states, g.id)
                and rng.random() < 0.5):
            out[g.id] = round(g.rated_kw * rng.uniform(0.2, 0.5), 2)
    return out


def screening(vs, rng: random.Random, w: Writer, rounds: int) -> Workload:
    ac = {}
    for extra in SCREENING_SIZES:
        grid = sectioned_ac_vessel(vs, extra, rng)
        ac[extra] = (grid, w.grid(f"ac_s{extra}", grid), _ac_patterns(grid))
    dc_grid = vs.builtin_fixture("dc_vessel")
    dc_path = w.grid("dc_vessel", dc_grid)
    plan = []
    fmt = ["--format", "text"]
    for r in range(rounds):
        for extra in SCREENING_SIZES:
            grid, path, patterns = ac[extra]
            main_buses = [b.id for b in grid.buses
                          if b.kind == "ac" and b.nominal_voltage == 690.0]
            lv_buses = [b.id for b in grid.buses
                        if b.kind == "ac" and b.nominal_voltage == 440.0]
            gens = sorted(x.id for x in grid.generators)
            tag = f"r{r}.s{extra}"

            name, states = patterns[r % len(patterns)]
            sections = [("breakers", states),
                        ("load_scale", _load_scales(rng, grid)),
                        ("dispatch", _dispatch(rng, grid, states))]
            sp = w.file(f"{tag}.pf.study", _study_text(sections))
            plan.append(Study(f"{tag}.pf", ["powerflow", "--grid", path,
                                            "--study", sp] + fmt,
                              "powerflow", f"powerflow s{extra} {name}"))

            name, states = patterns[(r + 1) % len(patterns)]
            bus = rng.choice(main_buses if r % 2 else lv_buses)
            sections = [("breakers", states),
                        ("load_scale", _load_scales(rng, grid))]
            sp = w.file(f"{tag}.sc.study", _study_text(sections))
            plan.append(Study(f"{tag}.scac", ["sc-ac", "--grid", path,
                                              "--study", sp, "--bus", bus] + fmt,
                              "sc_ac", f"sc-ac s{extra} {name} at {bus}"))

            name, states = patterns[(r + 2) % len(patterns)]
            zsi = bool(r % 2)
            if r % 3 == 2:
                target = {"fault_bus": rng.choice(main_buses)}
            else:
                online = [x for x in gens if _online(grid, states, x)]
                target = {"fault_element": rng.choice(online)}
            budget = round(rng.uniform(0.4, 0.6), 4)
            sections = [("protect", {**target, "zsi": zsi,
                                     "cct_budget_s": budget}),
                        ("breakers", states),
                        ("load_scale", _load_scales(rng, grid))]
            sp = w.file(f"{tag}.pr.study", _study_text(sections))
            plan.append(Study(f"{tag}.prot", ["protect", "--grid", path,
                                              "--study", sp] + fmt,
                              "protect",
                              f"protect s{extra} {name} "
                              f"{next(iter(target.values()))} zsi={zsi}",
                              {"cct_budget_s": budget}))

        tie = bool(r % 2)
        tag = f"r{r}.dc"
        sections = [("breakers", {"CB_DCTIE": tie}),
                    ("load_scale", _load_scales(rng, dc_grid))]
        sp = w.file(f"{tag}.pf.study", _study_text(sections))
        plan.append(Study(f"{tag}.pf", ["powerflow", "--grid", dc_path,
                                        "--study", sp] + fmt,
                          "powerflow", f"powerflow dc tie={tie}"))
        bus = ("DC_PS", "DC_SB")[(r // 2) % 2]
        sp = w.file(f"{tag}.sc.study",
                    _study_text([("breakers", {"CB_DCTIE": tie})]))
        plan.append(Study(f"{tag}.scdc", ["sc-dc", "--grid", dc_path,
                                          "--study", sp, "--bus", bus] + fmt,
                          "sc_dc", f"sc-dc {bus} tie={tie}"))
    paths = [p for _, p, _ in ac.values()] + [dc_path]
    per_round = len(SCREENING_SIZES) * 3 + 2
    return Workload("screening", paths, plan, per_round, warmup=per_round)


# ---- fault_traces ------------------------------------------------------------


def fault_traces(vs, rng: random.Random, w: Writer, rounds: int
                 ) -> Workload:
    """sc-ac/sc-dc with CSV waveforms, then i2t reading a written DC trace."""
    ac_grid = vs.builtin_fixture("ac_vessel")
    ac_path = w.grid("ac_vessel", ac_grid)
    dc_grid = vs.builtin_fixture("dc_vessel")
    dc_path = w.grid("dc_vessel", dc_grid)
    patterns = _ac_patterns(ac_grid)
    ac_buses = ("AC_PS", "AC_MID", "AC_SB", "LV_PS", "LV_SB")
    fuse_rating = {f.element: f.i2t_total_clearing for f in dc_grid.fuses}
    plan = []
    for r in range(rounds):
        tag = f"r{r}"
        bus = ac_buses[r % len(ac_buses)]
        sp = w.file(f"{tag}.ac.study", _study_text(
            [("load_scale", _load_scales(rng, ac_grid))]))
        plan.append(Study(f"{tag}.scac", ["sc-ac", "--grid", ac_path,
                                          "--study", sp, "--bus", bus],
                          "sc_ac", f"sc-ac closed at {bus}"))

        name, states = patterns[1 + r % (len(patterns) - 1)]
        bus = ("AC_PS", "AC_SB")[(r // 3) % 2]
        sp = w.file(f"{tag}.ac2.study", _study_text(
            [("breakers", states), ("load_scale", _load_scales(rng, ac_grid))]))
        plan.append(Study(f"{tag}.scac2", ["sc-ac", "--grid", ac_path,
                                           "--study", sp, "--bus", bus],
                          "sc_ac", f"sc-ac {name} at {bus}"))

        tie = bool(r % 2)
        dc_bus = ("DC_PS", "DC_SB")[(r // 2) % 2]
        sp = w.file(f"{tag}.dc.study",
                    _study_text([("breakers", {"CB_DCTIE": tie})]))
        sc_sid = f"{tag}.scdc"
        plan.append(Study(sc_sid, ["sc-dc", "--grid", dc_path, "--study", sp,
                                   "--bus", dc_bus],
                          "sc_dc", f"sc-dc {dc_bus} tie={tie}"))

        bat = "BAT_PS" if dc_bus == "DC_PS" else "BAT_SB"
        trace = rng.choice([f"trace_{bat}.csv", "total.csv"])
        rating = round(fuse_rating[bat] * rng.uniform(0.5, 2.0), 3)
        trace = os.path.join(w.out(sc_sid), trace)
        plan.append(Study(f"{tag}.i2t",
                          ["i2t", "--trace", trace, "--fuse-i2t", _num(rating)],
                          "i2t", f"i2t {os.path.basename(trace)} "
                          f"rating={rating:.0f}",
                          {"rating": rating, "trace": trace}, reads=sc_sid))
    return Workload("fault_traces", [ac_path, dc_path], plan, 4, warmup=4)


# ---- transient ---------------------------------------------------------------

# (topology, fault site); every cell appears equally often in the plan
TRANSIENT_CELLS = (
    ("full", "AC_PS"), ("full", "AC_MID"), ("full", "FDR_LV_PS"),
    ("ps", "AC_PS"), ("ps", "LV_PS"),
    ("dp", "AC_PS"), ("dp", "FDR_LV_PS"),
)


def _transient_study(draw: Latin, topo, site, scale) -> tuple[list, str, dict]:
    """Load step, then a short bolted fault once the ramp has ended, then
    (full grid and DP island) a generator breaker trip, over
    TRANSIENT_END_S."""
    t_step = round(draw("t_step", 0.05, 0.15), 4)
    ramp = round(draw("ramp", *RAMP_RANGE_S), 4)
    t_fault = round(draw("t_fault", 0.5, 0.6), 4)
    t_clear = round(t_fault + draw("duration", *FAULT_DURATION_RANGE_S), 4)
    sections = []
    if topo == "ps":
        sections.append(("breakers", {b: False for b in PS_ISLAND_OPEN}))
    elif topo == "dp":
        sections.append(("breakers", {b: False for b in DP_ISLAND_OPEN}))
    sections.append(("sim", {"step_s": TRANSIENT_STEP_S,
                             "end_s": TRANSIENT_END_S}))
    sections.append(("event step", {"time_s": t_step, "action": "load_step",
                                    "target": "LOAD440_PS", "scale": scale,
                                    "ramp_s": ramp}))
    fault = {"time_s": t_fault, "action": "fault_apply", "target": site}
    where = site
    if site.startswith("FDR_"):
        loc = round(draw("location", 0.2, 0.8), 4)
        fault["location"] = loc
        where = f"{site}@{loc}"
    sections.append(("event fault", fault))
    sections.append(("event clear", {"time_s": t_clear,
                                     "action": "fault_clear"}))
    trip = None
    if topo == "full":
        trip, inverter, watched = "CB_DG04", "INV_SB", "DG#04"
    elif topo == "dp":
        trip, inverter, watched = "CB_DG02", "INV_PS", "DG#02"
    if trip:
        t_trip = round(draw("t_trip", *TRIP_RANGE_S), 4)
        sections.append(("event trip", {"time_s": t_trip,
                                        "action": "breaker_open",
                                        "target": trip}))
        sections.append(("controller ctl", {
            "mode": "dp_failover", "inverter": inverter, "watched": watched,
            "p_rating_kw": 1500.0, "q_rating_kvar": 1500.0,
            "dp_delay_s": round(draw("dp_delay", 0.05, 0.2), 4)}))
    else:
        sections.append(("controller ctl", {
            "mode": "peak_shave", "inverter": "INV_PS", "watched": "DG#01",
            "p_threshold_kw": round(draw("p_threshold", 1200.0, 1600.0), 2),
            "q_threshold_kvar": 1000.0,
            "p_rating_kw": 1500.0, "q_rating_kvar": 1500.0}))
    label = (f"{topo} step LOAD440_PS->{scale} ramp {ramp}s, "
             f"bolted fault {where} {(t_clear - t_fault) * 1e3:.0f} ms"
             f"{', trip ' + trip if trip else ''}")
    return sections, label, {"t_fault": t_fault, "t_clear": t_clear}


def transient(vs, rng: random.Random, w: Writer, rounds: int) -> Workload:
    """tdsim on the AC vessel: load ramp, short bolted fault, generator trip.

    Every (topology, fault site) cell appears once with a load step drawn
    from the lower half of LOAD_STEP_RANGE and once from the upper half,
    so every seed covers the whole range with the same mix; the other
    continuous factors are Latin-hypercube draws over the round.  Many of these
    studies hit a known engine defect (the network fixed point does not
    converge at the fault instant, exit 3); they are counted as failures,
    never filtered out.
    """
    grid = vs.builtin_fixture("ac_vessel")
    for opened in (PS_ISLAND_OPEN, DP_ISLAND_OPEN):
        grid.with_breaker_states({b: False for b in opened})
    path = w.grid("ac_vessel", grid)
    lo, hi = LOAD_STEP_RANGE
    half = (hi - lo) / 2
    plan = []
    for r in range(rounds):
        draw = Latin(rng, 2 * len(TRANSIENT_CELLS))
        for c, (topo, site) in enumerate(TRANSIENT_CELLS):
            for h in range(2):
                scale = round(lo + (h + rng.random()) * half, 4)
                sections, label, expect = _transient_study(draw, topo, site,
                                                           scale)
                sid = f"r{r}.c{c}.{h}"
                sp = w.file(f"{sid}.study", _study_text(sections))
                plan.append(Study(sid, ["tdsim", "--grid", path, "--study",
                                        sp], "tdsim", label, expect))
    return Workload("transient", [path], plan, 2 * len(TRANSIENT_CELLS),
                    warmup=1)


# ---- cct_search --------------------------------------------------------------


def cct_search(vs, rng: random.Random, w: Writer, rounds: int) -> Workload:
    """CCT bisection on the SMIB grid: a bus fault and a mid-line fault in
    every round, each kind with its loadings drawn from `rounds` strata."""
    grid = smib_grid(vs)
    path = w.grid("smib", grid)
    bus_loadings = strata(rng, rounds, *CCT_LOADING_RANGE)
    line_loadings = strata(rng, rounds, *CCT_LOADING_RANGE)
    line_locations = strata(rng, rounds, 0.2, 0.8)
    plan = []
    for k in range(2 * rounds):
        bus_fault = k % 2 == 0
        loading = round((bus_loadings if bus_fault else line_loadings)[k // 2],
                        4)
        location = 0.0 if bus_fault else round(line_locations[k // 2], 4)
        keys = {"machine": "G1", "loading": loading, "location": location,
                "t_lo_s": 0.0, "t_hi_s": 0.4, "tol_s": CCT_TOL_S,
                "step_s": 0.005, "window_s": 2.0,
                "governor": "off", "avr": "off"}
        sp = w.file(f"s{k}.study", _study_text([("cct", keys)]))
        expect = {"tol_s": CCT_TOL_S}
        if bus_fault:
            expect["equal_area_s"] = equal_area_cct(loading)
        where = "bus" if bus_fault else f"line@{location}"
        plan.append(Study(f"s{k}", ["cct", "--grid", path, "--study", sp],
                          "cct", f"cct loading {loading} fault {where}",
                          expect))
    return Workload("cct_search", [path], plan, 2, warmup=1)


BUILDERS = {
    "screening": screening,
    "fault_traces": fault_traces,
    "transient": transient,
    "cct_search": cct_search,
}
