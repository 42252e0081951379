"""Time-domain simulation of the AC islands.

Machines follow the classical swing model (constant-flux EMF behind the
transient reactance) with a first-order governor and a first-order voltage
regulator.  At every integration stage the network is solved
quasi-statically for the node voltages, with constant-power loads and
constant-PQ inverter injections, by a fixed-point iteration on the
inverted network matrix.  That matrix (branches, machine shunts and any
bolted fault) changes only at a topology change, a fault application or a
fault clearing, so it is assembled and inverted once per such epoch and
reused by every stage in between (the alternating-solution scheme); the
inverse of each fault state is kept until the next topology change, so
a clearing, or a fault applied again, inverts nothing.  Each
island also keeps its demand matrix, built from its load factors and
inverter set-points, for as long as both hold: a load step clears the
factors, which are then read afresh at every stage until the last ramp
has ended, and a changed factor or set-point rebuilds the matrix.  The
machine EMFs and the source voltages they drive are evaluated once per
machine state and epoch, so a solve at the state the last one saw reuses
them, with the same bits.  A sweep writes |v|^2 into a complex buffer of
its island, imaginary part 0, so its division is complex by complex
with no cast.  An integration step keeps the machine state in Python
floats through its four RK4 stages: the stage states, the derivatives,
the EMFs (by the formula of numpy's complex exp and product) and the
step's finiteness and speed checks take the same operations in the same
order as on arrays, so the same bits; numpy keeps the network's complex
algebra and one state array per step.  An
island without demands (no load, converter draw or controller inverter)
is linear: its voltages are v = Z i_src directly, with no iteration.
Scripted events (load ramps, breaker switching, faults) are applied at
their exact times by splitting integration steps, so results do not depend
on how event times align with the step grid.

Battery-inverter controllers run once per recording step, before its
recording solve: the peak-shave mode caps watched generators at a power
threshold by supplying the surplus, and the DP-failover mode latches the
delayed pre-trip output of a lost generator.  A run without controllers
whose islands are all linear solves each recording step once, since
nothing can change the network between the two solves.  A bisection
search over fault clearing time, `find_cct`, gives the critical clearing
time against a first-swing stability criterion.  Its probes share one
engine, one fault-on trajectory, the two inverted networks (fault on
and cleared) and one energy certificate, and stop once their verdict is
known: at a rotor-angle spread of pi or, on a lone two-machine island
that qualifies, where the energy function proves it (Kundur 1994, ch. 13;
Pai 1989; see `_Engine._swing_certificate`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .grid import GridModel, InputError, NumericalError, check_domains
from .powerflow import (S_BASE_KVA, AcNetwork, SteadyState, branch_z_pu,
                        build_ac_networks, converter_draw_kw, island_slack,
                        load_pq_kw, solve_ac_powerflow)

V_FLOOR = 0.3       # below this voltage, constant-power loads turn constant-Z
FAULT_G = 1e6       # pu fault conductance for a bolted fault
GOV_DROOP = 0.05    # pu speed / pu power, power on the S_BASE_KVA system
                    # base for every machine, not on its own rating
GOV_T = 0.5         # s, governor time constant
AVR_GAIN = 20.0     # pu EMF / pu voltage error
AVR_T = 0.5         # s, voltage-regulator time constant
SWING_SLIP = 1.0    # rad past pi that an unstable verdict's path runs
SWING_PIECES = 32   # pieces of its time-to-pi bound
MACHINE_CHANNELS = ("p_kw", "q_kvar", "pm_kw", "delta_rad", "freq_hz")
# a 0-d array, not a float: no scalar conversion at every sweep
_V_FLOOR_SQ = np.array(V_FLOOR ** 2)


# ---------------------------------------------------------------------------
# configuration and events


# each event action -> the study-file keys of the optional fields it reads;
# setting another (giving it a value other than its default) is an input
# error, see `_check_fields`
EVENT_FIELDS = {
    "load_step": ("target", "scale", "ramp_s"),
    "breaker_open": ("target",),
    "breaker_close": ("target",),
    "fault_apply": ("target", "location"),
    "fault_clear": (),
}

# each study-file key -> the interval of its value (`grid.check_domains`),
# checked by `_check_fields`
DOMAINS = {
    "time_s": "[0, inf)", "scale": "[0, inf)", "ramp_s": "[0, inf)",
    "location": "[0, 1]", "step_s": "(0, inf)", "end_s": "(0, inf)",
    "p_rating_kw": "(0, inf)", "q_rating_kvar": "(0, inf)",
    "p_threshold_kw": "[0, inf)", "q_threshold_kvar": "(-inf, inf)",
    "dp_delay_s": "(0, inf)", "loading": "(0, 1]", "t_lo_s": "[0, inf)",
    "t_hi_s": "(0, inf)", "tol_s": "(0, inf)", "window_s": "(0, inf)"}

# the study-file key of each field of SimConfig, Event, ControllerConfig and
# CctFaultSpec named otherwise; every other field is its own key
FIELD_KEYS = {"time": "time_s", "ramp": "ramp_s", "dp_delay": "dp_delay_s",
              "step": "step_s", "end": "end_s", "t_lo": "t_lo_s",
              "t_hi": "t_hi_s", "tol": "tol_s", "window": "window_s"}


def _check_fields(spec, kind: str = "",
                  readers: dict[str, tuple[str, ...]] | None = None) -> None:
    """Raise InputError, naming the study-file key, for a field of `spec`
    that some kind of `readers` reads, but not `kind`, and that differs
    from its default, for a field annotated `str` that holds no str, for
    a field whose default is a bool that holds no bool, then for a value
    outside its DOMAINS interval; None passes only in a field whose
    default is None."""
    values = {}
    for f in fields(spec):
        key, value = FIELD_KEYS.get(f.name, f.name), getattr(spec, f.name)
        owners = [k for k, keys in (readers or {}).items() if key in keys]
        if owners and kind not in owners and value != f.default:
            raise InputError(f"{kind}: {key} applies only to "
                             f"{', '.join(owners)}")
        if f.type in ("str", "str | None") and not isinstance(value, str) \
                and not (value is None and f.default is None):
            raise InputError(f"need {key} as text, got {key} = {value!r}")
        if isinstance(f.default, bool) and not isinstance(value, bool):
            raise InputError(f"need {key} true or false, got {key} = "
                             f"{value!r}")
        if key in DOMAINS and not (value is None and f.default is None):
            values[key] = value
    check_domains(DOMAINS, **values)


@dataclass(frozen=True)
class Event:
    time: float
    action: str                    # a key of EVENT_FIELDS
    target: str | None = None
    scale: float | None = None     # load_step target scale
    ramp: float = 0.0              # load_step ramp duration, s
    location: float | None = None  # fault position along a branch, 0..1

    def __post_init__(self):
        if self.action not in EVENT_FIELDS:
            raise InputError(f"unknown event action {self.action!r}")
        _check_fields(self, self.action, EVENT_FIELDS)
        if self.action == "load_step" and self.scale is None:
            raise InputError(f"load_step {self.target}: scale required")


@dataclass(frozen=True)
class EventSchedule:
    events: tuple[Event, ...] = ()

    def validated(self, grid: GridModel, end: float) -> "EventSchedule":
        """Refuse events out of time order or after `end`, where they could
        change no recorded row, and ids that `grid` does not hold."""
        last = -math.inf
        branch_ids = {br.id for br in grid.branches}
        for ev in self.events:
            if ev.time < last:
                raise InputError(f"event times must be non-decreasing: "
                                 f"{ev.action} at {ev.time} after {last}")
            if ev.time > end:
                raise InputError(f"{ev.action} at time_s = {ev.time}: need "
                                 f"time_s <= end_s = {end}")
            last = ev.time
            if ev.action == "load_step":
                grid.load(ev.target)
            elif ev.action in ("breaker_open", "breaker_close"):
                grid.breaker(ev.target)
            elif ev.action == "fault_apply" and ev.target not in branch_ids:
                grid.bus(ev.target)
                if ev.location is not None:
                    raise InputError(f"fault_apply {ev.target}: location "
                                     "applies only to a cable")
        return self


@dataclass(frozen=True)
class SimConfig:
    """Integration step and run length, s, `end` a whole number of steps
    (more than one, and countable), and whether every machine runs its
    droop governor and its voltage regulator.  The governor droop
    GOV_DROOP is on the S_BASE_KVA (1000 kVA) system base, so after a
    load step every machine takes the same -dw * S_BASE_KVA / GOV_DROOP
    kW, whatever its rating."""

    step: float = 0.005
    end: float = 10.0
    governor: bool = True          # every machine's droop governor
    avr: bool = True               # every machine's voltage regulator

    def __post_init__(self):
        _check_fields(self)
        if self.end <= self.step:
            raise InputError(f"need end_s > step_s = {self.step}, "
                             f"got end_s = {self.end}")
        steps = self.end / self.step
        if steps >= np.iinfo(np.intp).max:   # so round(steps) + 1 rows overflow
            raise InputError(f"step_s = {self.step} cuts end_s = {self.end} "
                             "into more steps than an array can index")
        if abs(steps - round(steps)) > 1e-9:
            raise InputError(f"end_s = {self.end} is not a whole number of "
                             f"steps of step_s = {self.step}")


@dataclass
class TimeSeries:
    t: np.ndarray
    channels: dict[str, np.ndarray]
    stable: bool | None = None   # a CCT probe's verdict, None for other runs

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]


# ---------------------------------------------------------------------------
# controllers


# each controller mode -> the study-file keys of the optional fields it
# reads; setting another is an input error, as for events
CONTROLLER_FIELDS = {
    "peak_shave": ("p_threshold_kw", "q_threshold_kvar"),
    "dp_failover": ("dp_delay_s",),
}


@dataclass(frozen=True, kw_only=True)
class ControllerConfig:
    """One battery-inverter controller, the only one on its inverter; it
    watches one generator at least, since with none it never acts."""

    mode: str                            # a key of CONTROLLER_FIELDS
    inverter: str                        # converter id injecting P/Q
    watched: tuple[str, ...]             # generator ids
    p_rating_kw: float
    q_rating_kvar: float
    p_threshold_kw: float = 0.0          # peak_shave, per watched generator
    q_threshold_kvar: float = 0.0
    dp_delay: float = 0.1                # dp_failover, s

    def __post_init__(self):
        if self.mode not in CONTROLLER_FIELDS:
            raise InputError(f"controller on {self.inverter}: unknown mode "
                             f"{self.mode!r}")
        _check_fields(self, self.mode, CONTROLLER_FIELDS)
        if isinstance(self.watched, str):
            raise InputError(f"controller on {self.inverter}: watched is a "
                             f"tuple of generator ids, got {self.watched!r}")
        if not self.watched:
            raise InputError(f"controller on {self.inverter}: watched names "
                             "no generator")


class ControllerState:
    """A controller's setpoint, its inverter's only one, and for DP
    failover the watched generators' output history."""

    def __init__(self, cfg: ControllerConfig):
        self.cfg = cfg
        self.buffer: deque[tuple[float, dict[str, float], dict[str, float]]] = deque()
        self.setpoint: tuple[float, float] = (0.0, 0.0)

    def record(self, t: float, p_by_gen: dict[str, float],
               q_by_gen: dict[str, float]) -> None:
        self.buffer.append((t, dict(p_by_gen), dict(q_by_gen)))
        horizon = t - 2.0 * self.cfg.dp_delay - 1.0
        while len(self.buffer) > 2 and self.buffer[1][0] < horizon:
            self.buffer.popleft()

    def generator_lost(self, gen: str, t: float) -> None:
        """On the loss of a watched generator at `t`, a DP-failover
        controller holds from then on the generator's (P, Q) `dp_delay`
        earlier, clamped to the ratings; a loss before a sample that
        early was recorded is an input error."""
        cfg = self.cfg
        if cfg.mode != "dp_failover" or gen not in cfg.watched:
            return
        earlier = [(p.get(gen, 0.0), q.get(gen, 0.0))
                   for ts, p, q in self.buffer if ts <= t - cfg.dp_delay]
        if not earlier:
            raise InputError(
                f"dp_failover controller on {cfg.inverter}: {gen} lost at "
                f"t={t:.3f} s, before dp_delay_s = {cfg.dp_delay:g} of its "
                "output was recorded")
        p, q = earlier[-1]
        self.setpoint = (clamp(p, 0.0, cfg.p_rating_kw),
                         clamp(q, 0.0, cfg.q_rating_kvar))


def clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def peak_shave_setpoint(cfg: ControllerConfig, measured_p_kw: float,
                        measured_q_kvar: float) -> tuple[float, float]:
    """Inverter setpoint supplying the surplus above the watched threshold.

    `measured_p_kw`/`measured_q_kvar` are the unassisted demand on the
    watched generators (their output plus whatever the inverter already
    supplies); the setpoint is the excess over the threshold, clamped to
    the inverter rating.
    """
    p_thr = cfg.p_threshold_kw * len(cfg.watched)
    q_thr = cfg.q_threshold_kvar * len(cfg.watched)
    return (clamp(measured_p_kw - p_thr, 0.0, cfg.p_rating_kw),
            clamp(measured_q_kvar - q_thr, 0.0, cfg.q_rating_kvar))


# ---------------------------------------------------------------------------
# engine internals


@dataclass
class _Machines:
    """The online machines as parameter arrays, one entry each, in id order."""

    ids: list[str]
    row: dict[str, int]
    jxdp: np.ndarray         # j x'd, pu on system base
    two_h: np.ndarray        # 2H, s (system base)
    damping: np.ndarray      # pu (system base)
    omega_s: np.ndarray      # rad/s
    f_s: np.ndarray          # omega_s / 2 pi, Hz
    pm_ref: np.ndarray
    e_ref: np.ndarray
    v_ref: np.ndarray


@dataclass
class _Island:
    """One energised AC island of the current topology.

    `_build` sets the topology part; `_factor` sets the fault-epoch part
    (`z`, `src`, `inc`, `linear`, `ctls`, the sweep buffer `den`) and
    clears the demand matrix `m`.  Every solve
    updates the warm start `v`; it reads the demand scale factors `lf`
    afresh after `_apply_event` clears them and while a ramp may move
    them, and builds `m` afresh when `key`, the factors and inverter
    set-points it was built from, changes.
    """

    net: AcNetwork
    mach: np.ndarray         # machine rows in this island
    mach_node: np.ndarray
    load_ids: list[str]      # the first len(load_ids) demands are loads,
    cons_ids: list[str]      # the rest constant converter draws
    cons_s: np.ndarray       # demand at scale 1, pu
    cons_node: np.ndarray
    inv_ids: list[str]       # controller inverters connected here
    inv_node: np.ndarray
    v: np.ndarray
    lf: np.ndarray = None
    lf_t: float = None       # the time `lf` was read at
    m: np.ndarray = None     # Z diag(conj(demand)), see `_solve`
    key: tuple = None        # (lf bytes, inverter set-points) of `m`
    w: np.ndarray = None     # src @ e at the engine's kept machine state
    z: np.ndarray = None     # inverse of Y with shunts and fault, splice node last
    src: np.ndarray = None   # z times the machine source admittances
    inc: np.ndarray = None   # node incidence of the demands, then the inverters
    linear: bool = None      # no demand columns: v = Z i_src, whatever the scales
    ctls: list = None        # the inverters' ControllerStates
    den: np.ndarray = None   # a sweep's max(|v|^2, V_FLOOR^2), complex, imag 0
    bus_rows: np.ndarray = None   # recording rows of the island's buses
    bus_node: np.ndarray = None
    cons_rows: np.ndarray = None  # recording rows of its demands


class _Snapshot(NamedTuple):
    """A CCT search's state after the recording solve of fault-on step k."""

    k: int
    t: float
    x: np.ndarray
    v: list                  # each island's warm-start voltages
    col: np.ndarray          # column k of the recording table


class _Engine:
    def __init__(self, grid: GridModel, controllers, cfg: SimConfig, steady):
        self.grid = grid                    # with the breaker states in force
        self.branches = {br.id: br for br in grid.branches}
        self.cfg = cfg
        self.base_scale = steady.load_scale
        self.ramps: dict[str, tuple[float, float, float, float]] = {}
        self.ramp_end = -math.inf           # no load factor moves from then on
        self.fault: Event | None = None     # the fault_apply in force
        self.trunk: list[_Snapshot] | None = None   # a CCT search's, see run
        self.controllers: dict[str, ControllerState] = {}   # by inverter
        for c in controllers:
            grid.converter(c.inverter)          # both raise on unknown ids
            for gen_id in c.watched:
                grid.generator(gen_id)
            if c.inverter in self.controllers:
                raise InputError(f"two controllers on inverter {c.inverter!r}")
            self.controllers[c.inverter] = ControllerState(c)
        self._build(grid, solve_ac_powerflow(grid, steady))
        # the recorded channels and their rows, fixed by the initial topology
        self.mach_ids = list(self.m.ids)
        self.inv_ids = sorted(self.controllers)
        names = [f"{i}.{q}" for i in self.mach_ids for q in MACHINE_CHANNELS]
        names += [f"{i}.{q}" for i in self.inv_ids for q in ("p_kw", "q_kvar")]
        names += [f"{b}.v_pu" for b in sorted(
            {b for isl in self.islands for b in isl.net.node_of})]
        names += [f"{c}.p_kw" for c in sorted(
            {c for isl in self.islands for c in isl.cons_ids})]
        names.append("sys.p_loss_kw")
        self.channels = {name: j for j, name in enumerate(names)}
        self._index_channels()

    # -- model (re)construction ------------------------------------------

    def _build(self, grid: GridModel, sol=None) -> None:
        """Islands and machine arrays for a new topology, then `_factor`;
        the first build starts the machines from the power flow `sol`."""
        initial = sol is not None
        nets = build_ac_networks(grid)
        islands: list[_Island] = []
        placed = []     # (generator, island index, node, omega_s)
        for net in nets:
            on = grid.online_elements(net.node_of)
            if not on.generators:
                continue
            cons = []   # (id, p0 pu, q0 pu, node)
            load_ids = []
            for l in sorted(on.loads, key=lambda x: x.id):
                p, q = load_pq_kw(l, 1.0)
                cons.append((l.id, p / S_BASE_KVA, q / S_BASE_KVA,
                             net.node_of[l.bus]))
                load_ids.append(l.id)
            inv_ids, inv_node = [], []
            for c in sorted(on.converters, key=lambda x: x.id):
                node = net.node_of[grid.converter_ac_bus(c)]
                p, q = converter_draw_kw(c)
                if c.id in self.controllers:
                    inv_ids.append(c.id)
                    inv_node.append(node)
                elif p or q:
                    cons.append((c.id, p / S_BASE_KVA, q / S_BASE_KVA, node))
            omega_s = 2.0 * math.pi * net.frequency
            placed += [(g, len(islands), net.node_of[g.bus], omega_s)
                       for g in on.generators]
            islands.append(_Island(
                net=net, mach=None, mach_node=None, load_ids=load_ids,  # set below
                cons_ids=[c[0] for c in cons],
                cons_s=np.array([complex(p, q) for _, p, q, _ in cons]),
                cons_node=np.array([c[3] for c in cons], dtype=int),
                inv_ids=inv_ids, inv_node=np.array(inv_node, dtype=int),
                v=np.ones(len(net.nodes), dtype=complex)))

        placed.sort(key=lambda r: r[0].id)
        for k, isl in enumerate(islands):
            rows = [r for r, p in enumerate(placed) if p[1] == k]
            isl.mach = np.array(rows, dtype=int)
            isl.mach_node = np.array([placed[r][2] for r in rows], dtype=int)

        ids, xdp, two_h, damping, omega = [], [], [], [], []
        states, refs = [], []
        for g, _, _, omega_s in placed:
            d = g.dynamics
            if d is None:
                raise InputError(f"{g.id}: no dynamics block")
            ids.append(g.id)
            xdp.append(d.xd_t * S_BASE_KVA / g.rated_kva)
            two_h.append(2.0 * d.inertia_h * g.rated_kva / S_BASE_KVA)
            damping.append(d.damping * g.rated_kva / S_BASE_KVA)
            omega.append(omega_s)
            if not initial:
                old = self.m.row.get(g.id)
                if old is None:
                    raise InputError(
                        f"{g.id}: bringing a generator online mid-run is not "
                        "supported (no resynchronisation model)")
                states.append(self.x[old])
                refs.append((self.m.pm_ref[old], self.m.e_ref[old],
                             self.m.v_ref[old]))
                continue
            vb = sol.v_pu[g.bus] * np.exp(1j * sol.angle_rad[g.bus])
            p, q = sol.injections_kw[g.id]
            s = complex(p, q) / S_BASE_KVA
            i = np.conj(s / vb) if abs(vb) > 0 else 0.0
            e = vb + 1j * xdp[-1] * i
            states.append((float(np.angle(e)), 0.0, float(abs(e)),
                           float(s.real)))
            refs.append((float(s.real), float(abs(e)), float(abs(vb))))

        pm_ref, e_ref, v_ref = np.array(refs, dtype=float).reshape(-1, 3).T.copy()
        omega = np.array(omega)
        self.m = _Machines(
            ids=ids, row={mid: r for r, mid in enumerate(ids)},
            jxdp=1j * np.array(xdp), two_h=np.array(two_h),
            damping=np.array(damping), omega_s=omega,
            f_s=omega / (2 * math.pi), pm_ref=pm_ref, e_ref=e_ref,
            v_ref=v_ref)
        self.x = np.array(states, dtype=float).reshape(-1, 4)
        self.islands = islands
        self.params = None      # `_derivatives` reads them after the trim
        self.networks = {}      # `_factor`'s, for this topology
        self._factor()
        if initial:
            # trim references so the initial state is an exact equilibrium
            pe, _, vt = self._solve(self.x.ravel().tolist(), 0.0)
            self.x[:, 3] = pe
            self.m.pm_ref = pe.copy()
            self.m.v_ref = vt
        else:
            self._index_channels()

    def _island_y(self, isl: _Island) -> np.ndarray:
        """Y with machine shunts and any active fault; a mid-cable fault
        adds its splice node last."""
        net = isl.net
        n = len(net.nodes)
        fault, fault_node, splice = self.fault, None, False
        br = fault and self.branches.get(fault.target)
        if br is not None:
            frac = fault.location or 0.0
            if br.from_bus in net.node_of and br.to_bus in net.node_of:
                i, k = net.node_of[br.from_bus], net.node_of[br.to_bus]
                if frac <= 1e-6:
                    fault_node = i
                elif frac >= 1 - 1e-6:
                    fault_node = k
                else:
                    splice = True
        elif fault is not None:
            fault_node = net.node_of.get(fault.target)
        y = np.zeros((n + splice,) * 2, dtype=complex)
        y[:n, :n] = net.ybus
        if splice:
            # the admittance build_ac_networks added for this branch
            z = branch_z_pu(br, net.vbase[i])
            yfull = 1.0 / z
            # remove the intact branch, insert the two segments
            y[i, i] -= yfull; y[k, k] -= yfull
            y[i, k] += yfull; y[k, i] += yfull
            x = n
            y1, y2 = 1.0 / (z * frac), 1.0 / (z * (1.0 - frac))
            y[i, i] += y1; y[x, x] += y1 + y2 + FAULT_G
            y[i, x] -= y1; y[x, i] -= y1
            y[k, k] += y2
            y[k, x] -= y2; y[x, k] -= y2
        elif fault_node is not None:
            y[fault_node, fault_node] += FAULT_G
        np.add.at(y, (isl.mach_node, isl.mach_node), 1.0 / self.m.jxdp[isl.mach])
        return y

    def _factor(self) -> None:
        """Set each island's network for the current topology and fault.

        Called at every rebuild, fault application and clearing; the
        solves of the epoch in between reuse the inverse.  The inverse and
        the source matrix of each fault state (none, or a target and
        location) are kept, with the swing certificates of that network,
        until the next `_build`, so a CCT search inverts its fault-on and
        its post-clearing network once each.
        """
        self.x_kept = None      # `src` changes: no kept sources hold
        fault = self.fault and (self.fault.target, self.fault.location)
        if fault not in self.networks:
            n_mach, nets = len(self.m.ids), []
            for isl in self.islands:
                try:
                    z = np.linalg.inv(self._island_y(isl))
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(str(exc)) from None
                c = np.zeros((len(z), n_mach), dtype=complex)
                c[isl.mach_node, isl.mach] = 1.0 / self.m.jxdp[isl.mach]
                nets.append((z, z @ c))
            self.networks[fault] = nets, {}
        nets, self.certificates = self.networks[fault]
        for isl, (z, src) in zip(self.islands, nets):
            isl.z, isl.src = z, src
            n, size = len(isl.net.nodes), len(z)
            n_cons = len(isl.cons_ids)
            isl.inc = np.zeros((size, n_cons + len(isl.inv_ids)))
            isl.inc[isl.cons_node, np.arange(n_cons)] = 1.0
            isl.inc[isl.inv_node, n_cons + np.arange(len(isl.inv_ids))] = 1.0
            isl.v = np.concatenate((isl.v[:n], np.ones(size - n)))
            isl.m = isl.key = None
            isl.linear = not isl.inc.shape[1]
            isl.ctls = [self.controllers[c] for c in isl.inv_ids]
            isl.den = np.zeros(size, dtype=complex)

    def _index_channels(self) -> None:
        """Recording rows of the current machines, buses and demands; ones
        not energised when the run started go to the spare, last, row."""
        row, spare = self.channels, len(self.channels)
        for isl in self.islands:
            isl.bus_rows = np.array([row.get(f"{b}.v_pu", spare)
                                     for b in isl.net.node_of], dtype=int)
            isl.bus_node = np.array(list(isl.net.node_of.values()), dtype=int)
            isl.cons_rows = np.array([row.get(f"{c}.p_kw", spare)
                                      for c in isl.cons_ids], dtype=int)
        self.mach_rows = np.array([[row[f"{i}.{q}"] for i in self.m.ids]
                                   for q in MACHINE_CHANNELS], dtype=int)

    # -- network solve -----------------------------------------------------

    def _load_factor(self, load_id: str, t: float) -> float:
        seg = self.ramps.get(load_id)
        base = self.base_scale.get(load_id, 1.0)
        if seg is None:
            return base
        t0, s_from, s_to, ramp = seg
        if ramp <= 0 or t >= t0 + ramp:
            return s_to
        if t <= t0:
            return s_from
        return s_from + (s_to - s_from) * (t - t0) / ramp

    def _solve(self, x: list, t: float):
        """Quasi-static solve of every island at machine states `x`, a
        flat list of Python floats: delta, dw, e and pm of each machine
        in turn, as `ravel().tolist()` of the state array gives them.

        Loads and converter draws are constant power above V_FLOOR and
        constant impedance below it, so their current at node voltage v is
        conj(s) v / max(|v|^2, V_FLOOR^2); with w = Z i_src and
        M = Z diag(conj(s)) the node voltages are the fixed point of
        v = w + M (v / max(|v|^2, V_FLOOR^2)), iterated from the island's
        last voltages.  A linear island has no M: its voltages are w,
        with no iteration and no warm start.  Returns the machines'
        electrical power, reactive power and terminal voltage.

        Z and the source matrix come from `_factor`, once per epoch; the
        EMFs e and the source voltages w once per machine state and epoch,
        kept with `x` until a state of other values or `_factor`.
        Each EMF is numpy's e * exp(1j * delta), taken in floats by the
        formula of numpy's complex exp and product: with c, s the cosine
        and sine of 0.0 + delta, it is (e c - 0.0 s) + (e s + 0.0 c) j,
        the same bits; it is finite exactly when delta and e are.  States
        of equal values give the same EMFs, unless an e is 0 and only its
        sign differs, so a state with a zero e is not kept.  The load
        factors are read afresh only after a load step and until the last
        ramp has ended; M is built afresh only when those factors or an
        inverter set-point differ from the ones it was built from.  Each
        sweep writes max(|v|^2, V_FLOOR^2) into the real part of the
        island's complex buffer `den`, which `_factor` sizes, so v / den
        divides complex by complex, the loop numpy's float divisor would
        be cast to, with the same bits and no cast.  On a lone island the
        machine rows are all the rows, in order, so the terminal voltages
        are gathered from v directly.
        """
        if x != self.x_kept:
            e, cos, sin, isfinite = [], math.cos, math.sin, math.isfinite
            for delta, mag in zip(x[::4], x[2::4]):
                if not (isfinite(delta) and isfinite(mag)):
                    raise NumericalError("network solve produced non-finite V")
                delta += 0.0        # as 1j * delta turns a -0.0 into +0.0
                c, s = cos(delta), sin(delta)
                e.append(complex(mag * c - 0.0 * s, mag * s + 0.0 * c))
            self.e = e = np.array(e, dtype=complex)
            for isl in self.islands:
                isl.w = isl.src @ e
            self.x_kept = x if all(x[2::4]) else None
        e, islands = self.e, self.islands
        lone = len(islands) == 1    # its machine rows are all, in order
        vb = None if lone else np.empty(len(e), dtype=complex)
        np_abs, multiply, maximum = np.abs, np.multiply, np.maximum
        for isl in islands:
            if isl.lf is None or isl.lf_t < self.ramp_end:
                lf = np.ones(len(isl.cons_ids))
                for j, lid in enumerate(isl.load_ids):
                    lf[j] = self._load_factor(lid, t)
                isl.lf, isl.lf_t = lf, t
            v = w = isl.w
            if not isl.linear:
                key = (isl.lf.tobytes(), tuple(c.setpoint for c in isl.ctls))
                if key != isl.key:
                    inj = -isl.cons_s * isl.lf
                    if isl.ctls:
                        inj = np.concatenate((inj, [complex(*sp) / S_BASE_KVA
                                                    for sp in key[1]]))
                    isl.m, isl.key = isl.z * np.conj(isl.inc @ inj), key
                dot, v, n = isl.m.dot, isl.v, len(isl.net.nodes)
                den, den_re = isl.den, isl.den.real
                if len(v) > n:
                    v[n:] = 1.0     # the splice node starts afresh
                for _ in range(400):
                    a = np_abs(v)
                    multiply(a, a, out=den_re)
                    maximum(den_re, _V_FLOOR_SQ, out=den_re)
                    v_new = w + dot(v / den)
                    d = np_abs(v_new - v)
                    err = d.item(d.argmax())    # argmax stops at the first nan
                    v = v_new
                    if err <= 1e-10:
                        break
                    if not math.isfinite(err):
                        raise NumericalError(
                            "network solve produced non-finite V")
                else:
                    raise NumericalError(
                        f"network fixed point not converged at t={t:.4f} s")
            isl.v = v
            if lone:
                vb = v[isl.mach_node]
            else:
                vb[isl.mach] = v[isl.mach_node]
        # terminal power; P equals the internal electrical power because
        # the transient reactance is lossless
        s = vb * np.conj((e - vb) / self.m.jxdp)
        return s.real, s.imag, np.abs(vb)

    # -- derivatives -------------------------------------------------------

    def _derivatives(self, x: list, t: float) -> list:
        """dx/dt at the flat float state `x` (see `_solve`), flat alike,
        in Python floats: the same operations in the same order as on
        arrays, so the same bits."""
        pe, _, vt = self._solve(x, t)
        if self.params is None:
            self.params = self._machine_params()
        avr, governor = self.cfg.avr, self.cfg.governor
        dx = []
        for dw, e, pm, p, v, (omega_s, damping, two_h, e_ref, v_ref,
                              pm_ref) in zip(x[1::4], x[2::4], x[3::4],
                                             pe.tolist(), vt.tolist(),
                                             self.params):
            dx += (omega_s * dw, (pm - p - damping * dw) / two_h,
                   (e_ref + AVR_GAIN * (v_ref - v) - e) / AVR_T if avr
                   else 0.0,
                   (pm_ref - dw / GOV_DROOP - pm) / GOV_T if governor
                   else 0.0)
        return dx

    def _machine_params(self) -> list[tuple]:
        """Each machine's omega_s, damping, 2H and references as Python
        floats; a zero 2H stays a numpy float, so that dividing by it
        gives numpy's inf or nan, as on arrays, not ZeroDivisionError."""
        m = self.m
        two_h = [h if h else np.float64(h) for h in m.two_h.tolist()]
        return list(zip(m.omega_s.tolist(), m.damping.tolist(), two_h,
                        m.e_ref.tolist(), m.v_ref.tolist(),
                        m.pm_ref.tolist()))

    def _step(self, x: np.ndarray, t: float, dt: float) -> np.ndarray:
        """One RK4 step from the state array `x`, taken in Python floats
        by the operations of x + dt / 6 (k1 + 2 k2 + 2 k3 + k4) on arrays,
        in their order, so with their bits; the new state is an array."""
        f, h, x = self._derivatives, dt / 2.0, x.ravel().tolist()
        k1 = f(x, t)
        k2 = f([a + h * b for a, b in zip(x, k1)], t + h)
        k3 = f([a + h * b for a, b in zip(x, k2)], t + h)
        k4 = f([a + dt * b for a, b in zip(x, k3)], t + dt)
        c = dt / 6.0
        out = [a + c * (p + 2 * q + 2 * r + s)
               for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, out)):
            raise NumericalError(f"integration diverged at t={t:.4f} s")
        if any(abs(dw) > 2.0 for dw in out[1::4]):
            raise NumericalError(
                f"integration diverged: speed deviation beyond sanity "
                f"bound at t={t:.4f} s")
        return np.array(out).reshape(-1, 4)

    # -- events ------------------------------------------------------------

    def _apply_event(self, ev: Event, t: float) -> None:
        if ev.action == "load_step":
            current = self._load_factor(ev.target, t)
            self.ramps[ev.target] = (t, current, float(ev.scale), ev.ramp)
            self.ramp_end = max(self.ramp_end, t + ev.ramp)
            for isl in self.islands:
                isl.lf = None
        elif ev.action in ("breaker_open", "breaker_close"):
            self.grid = grid = self.grid.with_breaker_states(
                {ev.target: ev.action == "breaker_close"})
            lost = [mid for mid in self.m.ids if not grid.element_online(mid)]
            self._build(grid)
            for gen_id in lost:
                for ctl in self.controllers.values():
                    ctl.generator_lost(gen_id, t)
        else:
            self.fault = ev if ev.action == "fault_apply" else None
            self._factor()

    # -- controllers ---------------------------------------------------------

    def _update_controllers(self, t: float, out) -> None:
        pe, qe, _ = out
        row = self.m.row
        for ctl in self.controllers.values():
            cfg = ctl.cfg
            p_by = {g: float(pe[row[g]]) * S_BASE_KVA
                    for g in cfg.watched if g in row}
            q_by = {g: float(qe[row[g]]) * S_BASE_KVA
                    for g in cfg.watched if g in row}
            if cfg.mode == "dp_failover":
                ctl.record(t, p_by, q_by)
            else:
                inv_p, inv_q = ctl.setpoint
                gross_p = sum(p_by.values()) + inv_p
                gross_q = sum(q_by.values()) + inv_q
                ctl.setpoint = peak_shave_setpoint(cfg, gross_p, gross_q)

    # -- early verdicts ----------------------------------------------------------

    def _kept_certificate(self):
        """`_swing_certificate` of the network in force, built once for
        each machine EMFs and mechanical powers, step and switches: the
        inputs it reads that a run may change."""
        cfg = self.cfg
        key = (self.x[:, 2:].tobytes(), cfg.step, cfg.governor, cfg.avr)
        if key not in self.certificates:
            self.certificates[key] = self._swing_certificate()
        return self.certificates[key]

    def _swing_certificate(self):
        """A verdict `(x, t_left) -> True | False | None` on the first
        swing of the rest of the run: True when the rotor-angle spread
        provably stays below pi, False when it provably reaches pi at a
        recording step within `t_left`, None when only integrating on
        can tell.  It reads the network in force, the machine EMFs and
        mechanical powers of the engine's state, and the step and
        switches of `cfg`; `_kept_certificate` builds it once for each,
        so a CCT search builds one for all its probes.

        Only a lone linear island of exactly two machines with positive
        inertia qualifies, run without controllers, governor or AVR, with
        zero or equal non-negative D/2H = lam; for anything else the
        verdict is always None.  The relative angle d = d1 - d2
        then obeys d'' = f(d) - lam d' with f(d) = a + b cos d + c sin d,
        from the reduced admittance Y = diag(1/jx'd) (I - S), S the
        machine nodes' voltage per EMF (lossy lines included).  Its
        energy W = v^2 / 2 + U(d), v = d' = ws (dw1 - dw2) and
        U = -(a d + b sin d - c cos d), never grows, so the swing cannot
        pass a point where U > W + eps.

        Stable: such a barrier lies on each side of d within [-pi, pi].
        Unstable: U stays below a floor on the path from d in the
        direction of v (so v != 0) through +-pi to +-(pi + SWING_SLIP).
        The path is cut into SWING_PIECES pieces up to +-pi, one beyond,
        and at the roots of f, so U is monotonic on each piece; there
        |v| <= sqrt(2 (W + eps - min U)), and the floor is
        W - eps less lam times the integral of that speed bound up to the
        piece's end, all that the damping can take from W on the way.  So
        v keeps its sign to the end of the path, v^2 / 2 >= floor - U,
        and that least speed bounds the time to reach +-pi, which must be
        at most `t_left` less one step.  With step v_max < SWING_SLIP, v_max
        the largest speed bound, the first recording step after the
        crossing still reads a spread >= pi.  The walk meets a floor at or
        below U at the first piece end where U >= W - eps, and d, +-pi and
        the roots of f between them are piece ends, so when U's largest
        value on [d, +-pi] toward v is at least W - eps, which the stable
        test has just taken, the verdict is None at once, with no walk:
        the same verdict.  Either verdict also needs
        closed-form bounds on the relative and the centre-of-inertia
        speed to keep every |dw| below half the sanity bound of `_step`
        (over `t_left`, or up to that recording step), so a full run
        would not stop on an error first.  Negative damping would feed
        both W and the centre-of-inertia speed, and a negative inertia
        would void the speed bounds, so neither qualifies.

        With k = |a| + |b| + |c|, eps = pi k max(1e-4, (k h^2)^2) for the
        step h, since RK4's energy error scales with h^4.  That margin
        rests on measurement, not on proof: on the SMIB grid, lossless or
        lossy, with the stiff source or a finite second machine, loading
        0.7 to 1.0, bus or mid-line faults, steps of 2 to 50 ms and
        windows of 2 to 60 s, the largest rise of W after clearing of any
        stable probe stayed below 1e-3 of eps and did not grow with the
        window, and from clearing to the pi crossing of any unstable
        probe W changed by at most 6.4e-4 of eps.
        """
        cfg, m = self.cfg, self.m
        if (not self._autonomous() or cfg.governor or cfg.avr
                or len(self.islands) != 1
                or len(self.mach_ids) != 2 or len(m.ids) != 2
                or (m.two_h <= 0).any()
                or (m.damping < 0).any()
                or m.damping[0] * m.two_h[1] != m.damping[1] * m.two_h[0]):
            return lambda x, t_left: None
        # the island's machine rows are 0 and 1, in that order
        isl = self.islands[0]
        y = (np.eye(2) - isl.src[isl.mach_node]) / m.jxdp[:, None]
        g, bb = y.real, y.imag
        e, pm, two_h = self.x[:, 2], self.x[:, 3], m.two_h
        ws = float(m.omega_s[0])
        a = ws * ((pm[0] - e[0] ** 2 * g[0, 0]) / two_h[0]
                  - (pm[1] - e[1] ** 2 * g[1, 1]) / two_h[1])
        b = -ws * e[0] * e[1] * (g[0, 1] / two_h[0] - g[1, 0] / two_h[1])
        c = -ws * e[0] * e[1] * (bb[0, 1] / two_h[0] + bb[1, 0] / two_h[1])
        a, b, c = float(a), float(b), float(c)

        def u(d):
            return -(a * d + b * math.sin(d) - c * math.cos(d))

        # the roots of f on the longest path, |d| < pi + SWING_SLIP
        roots = []
        amp = math.hypot(b, c)
        if amp > 0 and abs(a) <= amp:
            phi, half = math.atan2(c, b), math.acos(-a / amp)
            roots = [p for p in (phi + s * half + n * 2.0 * math.pi
                                 for s in (-1, 1) for n in (-1, 0, 1))
                     if abs(p) < math.pi + SWING_SLIP]

        def u_span(p: float, q: float) -> tuple[float, float]:
            """U's least and largest value on [p, q]: at an end or at a
            root of f between."""
            vals = [u(p), u(q)] + [u(r) for r in roots if p < r < q]
            return min(vals), max(vals)

        u_min = u_span(-math.pi, math.pi)[0]
        k = abs(a) + abs(b) + abs(c)
        eps = math.pi * k * max(1e-4, (k * cfg.step ** 2) ** 2)
        lam = float(m.damping[0] / m.two_h[0])
        # |sum Pm - sum Pe(d)|, the centre-of-inertia speed's drive
        p_coi = float(abs(pm.sum() - e[0] ** 2 * g[0, 0] - e[1] ** 2 * g[1, 1])
                      + e[0] * e[1] * math.hypot(g[0, 1] + g[1, 0],
                                                 bb[0, 1] - bb[1, 0]))
        h0, h1 = float(two_h[0]), float(two_h[1])
        m_sum = h0 + h1
        step = cfg.step

        def verdict(x: np.ndarray, t_left: float) -> bool | None:
            (d0, w0, *_), (d1, w1, *_) = x.tolist()
            d, v = d0 - d1, ws * (w0 - w1)
            energy = 0.5 * v ** 2 + u(d)
            top = energy + eps

            def speeds_within(rel: float, t: float) -> bool:
                """Relative speeds up to `rel` and the centre-of-inertia
                drive over `t` keep every |dw| within half the sanity
                bound."""
                coi = (abs(h0 * w0 + h1 * w1) + t * p_coi) / m_sum
                return coi + max(h0, h1) / m_sum * rel <= 1.0

            below, above = u_span(-math.pi, d)[1], u_span(d, math.pi)[1]
            if below > top and above > top:
                rel = math.sqrt(2.0 * (top - u_min)) / ws
                return True if speeds_within(rel, t_left) else None
            s = math.copysign(1.0, v)
            if (above if s > 0 else below) >= energy - eps:
                return None     # the walk's gap <= 0 at that piece end
            # the path's piece ends, in the direction of travel
            ends = sorted([d + (s * math.pi - d) * j / SWING_PIECES
                           for j in range(1, SWING_PIECES)]
                          + [r for r in roots if s * r > s * d]
                          + [s * math.pi, s * (math.pi + SWING_SLIP)],
                          reverse=s < 0)
            loss = t_cross = v_max = 0.0
            p, u_p = d, u(d)
            for q in ends:
                u_q = u(q)
                v_hi = math.sqrt(2.0 * (top - min(u_p, u_q)))
                v_max = max(v_max, v_hi)
                loss += lam * v_hi * abs(q - p)
                gap = energy - eps - loss - max(u_p, u_q)
                if gap <= 0.0:
                    return None
                if s * q <= math.pi:
                    t_cross += abs(q - p) / math.sqrt(2.0 * gap)
                    if t_cross > t_left - step:
                        return None
                p, u_p = q, u_q
            if step * v_max >= SWING_SLIP:
                return None
            return False if speeds_within(v_max / ws, t_cross + step) else None

        return verdict

    # -- main loop -------------------------------------------------------------

    def _autonomous(self) -> bool:
        """No controllers and only linear islands: a step and a recording
        solve read nothing but the state, not even the time."""
        return not self.controllers and all(i.linear for i in self.islands)

    def run(self, events: tuple[Event, ...]) -> TimeSeries:
        """Integrate to `cfg.end` through `events`, recording every step.

        An event due at a recording step is applied before that step's
        recording solve, except at t = 0: the first recording is the
        initial state, and events due at 0 are applied right after it.

        With a `trunk` the engine is a CCT search's and the run a probe, a
        fault and its clearing: it stops at the first recording step at or
        after the clearing where the rotor-angle spread reaches pi, or
        where `_swing_certificate` proves whether it will before the end;
        the series then ends there, and its `stable` is the verdict that
        stopped it, True if none did.  A probe on an empty trunk runs from
        t = 0 and records there each step before its clearing.  Every later
        probe must clear earlier: its series begins at the last of those
        steps before its clearing, with its fault re-applied.
        """
        cfg = self.cfg
        n_steps = int(round(cfg.end / cfg.step))
        t_rec = np.arange(n_steps + 1) * cfg.step
        rec = np.zeros((len(self.channels) + 1, n_steps + 1))
        row = self.channels
        inv_rows = [row[f"{c}.{q}"] for c in self.inv_ids
                    for q in ("p_kw", "q_kvar")]
        delta_rows = [row[f"{i}.delta_rad"] for i in self.mach_ids]

        def observe(k: int, t: float):
            """Controllers, then the recording solve of step k.  Without
            controllers a linear network's first solve is that solve.  A
            linear island has no demand to record, and its loss is its
            machines' power: the general sum's + 0 - 0.0 keep its bits."""
            state = self.x.ravel().tolist()
            out = self._solve(state, t)
            if not self._autonomous():
                self._update_controllers(t, out)
                out = self._solve(state, t)
            pe, qe, _ = out
            x, m = self.x, self.m
            rec[self.mach_rows, k] = (pe * S_BASE_KVA, qe * S_BASE_KVA,
                                      x[:, 3] * S_BASE_KVA, x[:, 0],
                                      m.f_s * (1 + x[:, 1]))
            if inv_rows:
                rec[inv_rows, k] = [v for c in self.inv_ids
                                    for v in self.controllers[c].setpoint]
            p_loss = 0.0
            for isl in self.islands:
                vm = np.abs(isl.v[:len(isl.net.nodes)])
                rec[isl.bus_rows, k] = vm[isl.bus_node]
                if isl.linear:
                    p_loss += pe[isl.mach].sum() * S_BASE_KVA
                    continue
                factor = np.minimum(1.0, (vm[isl.cons_node] / V_FLOOR) ** 2)
                p = isl.cons_s.real * isl.lf * factor
                rec[isl.cons_rows, k] = p * S_BASE_KVA
                p_inv = sum(self.controllers[c].setpoint[0] / S_BASE_KVA
                            for c in isl.inv_ids)
                p_loss += (pe[isl.mach].sum() + p_inv - p.sum()) * S_BASE_KVA
            rec[row["sys.p_loss_kw"], k] = p_loss

        def apply_due(t: float) -> None:
            while pending and pending[0].time <= t + 1e-12:
                self._apply_event(pending.popleft(), t)

        pending = deque(events)
        trunk, start = self.trunk, None
        if trunk:
            start = next(s for s in reversed(trunk)
                         if pending[-1].time > s.t + 1e-12)
            k0, t, self.x = start.k, start.t, start.x
            self._apply_event(pending.popleft(), t)
            for isl, v in zip(self.islands, start.v):
                isl.v = v.copy()
            rec[:, k0] = start.col
        else:
            k0, t = 0, 0.0
            observe(0, t)
            apply_due(t)
        last = n_steps
        certify = None      # built once no event pends
        stable = None if trunk is None else True
        for k in range(k0, n_steps + 1):
            if k > k0:
                t_target = float(t_rec[k])
                while t < t_target - 1e-12:
                    t_next = t_target
                    if pending and pending[0].time < t_target - 1e-12:
                        t_next = pending[0].time
                    # k1 iterates from the recording solve's voltages
                    self.x = self._step(self.x, t, t_next - t)
                    t = t_next
                    apply_due(t)
                observe(k, t)
            if trunk is None:
                continue
            if start is None and len(pending) == 1:
                trunk.append(_Snapshot(k, t, self.x,
                                       [i.v.copy() for i in self.islands],
                                       rec[:, k].copy()))
            if len(self.mach_ids) > 1 and t_rec[k] >= events[-1].time - 1e-9:
                delta = rec[delta_rows, k]
                if delta.max() - delta.min() >= math.pi:
                    stable, last = False, k
                    break
                if not pending:
                    certify = certify or self._kept_certificate()
                    proven = certify(self.x, t_rec[-1] - t)
                    if proven is not None:
                        stable, last = proven, k
                        break

        n = slice(k0, last + 1)
        return TimeSeries(t=t_rec[n], stable=stable, channels={
            name: rec[j, n] for name, j in row.items()})


def simulate(grid: GridModel, schedule: EventSchedule, controllers=(),
             cfg: SimConfig = SimConfig(), steady: SteadyState = SteadyState(),
             *, _engine: _Engine | None = None) -> TimeSeries:
    """Integrate the grid's AC islands through the scripted events.

    Returns a TimeSeries on the uniform recording grid with one channel per
    machine quantity (``<gen>.p_kw``, ``.q_kvar``, ``.pm_kw``,
    ``.delta_rad``, ``.freq_hz``), per controller inverter, per bus voltage,
    per load, and the system losses.  The machines start from the power
    flow of `steady`.  With `_engine` the run is a probe of a `find_cct`
    search (see `_Engine.run`), whose engine stands in for grid,
    controllers and power flow.  `SimConfig` keeps `cfg.end` a whole number
    of steps; the schedule must pass `EventSchedule.validated` against it.
    """
    events = schedule.validated(grid, cfg.end).events
    # a state that overflows ends in the finiteness checks' NumericalError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        engine = _engine or _Engine(grid, controllers, cfg, steady)
        engine.cfg = cfg
        return engine.run(events)


# ---------------------------------------------------------------------------
# critical clearing time


@dataclass(frozen=True)
class CctFaultSpec:
    """A CCT search, as a `[cct]` section gives it (see `find_cct`)."""

    machine: str
    loading: float = 0.9          # fraction of rated kW
    location: float = 0.01        # fraction along the cable from the machine
    branch: str | None = None     # a cable at the machine bus; required if >1
    step: float = 0.002           # each probe's recording step, s
    governor: bool = True
    avr: bool = True
    t_lo: float = 0.0             # a stable clearing time, s
    t_hi: float = 0.5             # an unstable one, s
    tol: float = 1e-3             # the bracket width that ends the search, s
    window: float = 3.0           # s that a probe watches after its clearing

    def __post_init__(self):
        _check_fields(self)
        if self.t_hi <= self.t_lo:
            raise InputError(f"need t_hi_s > t_lo_s = {self.t_lo}, "
                             f"got t_hi_s = {self.t_hi}")
        if self.window < self.step:
            raise InputError(f"need window_s >= step_s, got window_s = "
                             f"{self.window}")
        # the t_hi probe, the longest, ends near t_hi + window and runs two
        # steps at least: a finite end, in a step count an array can index
        steps = (self.t_hi + self.window + 2 * self.step) / self.step
        if not steps < np.iinfo(np.intp).max:
            raise InputError(f"step_s = {self.step} cuts t_hi_s = {self.t_hi} "
                             f"plus window_s = {self.window} into more steps "
                             "than an array can index")


@dataclass(frozen=True)
class CctResult:
    cct: float
    interval: tuple[float, float]
    transcript: tuple[tuple[float, bool], ...]


def find_cct(grid: GridModel, spec: CctFaultSpec) -> CctResult:
    """Bisect `spec`'s fault clearing time against first-swing stability.

    The machine must be online.  One `SteadyState` dispatches it at `loading`
    times its rated kW, with the largest other online generator of its island
    as slack (`island_slack`'s rule); the search solves it once, in the one
    engine of all its probes.  Each probe applies the fault at t = 0 to the
    trimmed power-flow equilibrium and clears it at `t_clear`; a clearing
    within 1e-12 s of the fault is no disturbance.  A probe is stable when
    the largest pairwise rotor-angle separation stays below 180 degrees
    within `window` after the fault clears.  The bracket must straddle the
    boundary: `t_lo` stable and `t_hi` unstable.  The `t_hi` probe runs
    first and records the fault-on steps; every later probe starts at the
    last of them before its clearing, bit-identical to a run from t = 0.
    Each probe runs at `step`, with `governor` and `avr`, to the recording
    step nearest its clearing plus `window`, and two steps at least.  An
    unstable probe ends at the step its spread reaches 180 degrees.  On a
    lone two-machine island that qualifies (`_Engine._swing_certificate`)
    a probe may end at its clearing, stable or unstable, once the energy
    function proves how its first swing ends; the verdict, which the engine
    returns, is that of a full-window probe.  The probes share what does
    not depend on their clearing time: the engine inverts the fault-on and
    the post-clearing network once each, and builds the certificate of the
    post-clearing network once, for the search's machine EMFs, mechanical
    powers and step.
    """
    gen = grid.generator(spec.machine)
    if not grid.element_online(spec.machine):
        raise InputError(f"cct machine {spec.machine!r} is offline")
    on = grid.online_elements(grid.island_of(gen.bus))
    others = tuple(g for g in on.generators if g.id != spec.machine)
    if not others:
        raise InputError(f"cct machine {spec.machine!r}: no other online "
                         "generator in its island to act as slack")
    steady = SteadyState(island_slack(on._replace(generators=others)).id,
                         dispatch={spec.machine: spec.loading * gen.rated_kw})

    cables = [b for b in grid.branches if gen.bus in (b.from_bus, b.to_bus)]
    if spec.branch is not None:
        if not any(b.id == spec.branch for b in grid.branches):
            raise InputError(f"unknown branch {spec.branch!r}")
        cables = [b for b in cables if b.id == spec.branch]
    if len(cables) != 1 and (spec.branch is not None or spec.location > 1e-9):
        named = "" if spec.branch is None else f" named {spec.branch!r}"
        raise InputError(f"{spec.machine}: need one cable at {gen.bus}"
                         f"{named} to fault, found {len(cables)}")
    if spec.location <= 1e-9:
        target, location = gen.bus, None
    else:
        br = cables[0]
        frac = spec.location if br.from_bus == gen.bus else 1.0 - spec.location
        target, location = br.id, frac

    def probe_cfg(t_clear: float) -> SimConfig:
        # to the recording step nearest the window's end, two at least
        steps = max(2, round((t_clear + spec.window) / spec.step))
        return SimConfig(spec.step, steps * spec.step, spec.governor, spec.avr)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        engine = _Engine(grid, (), probe_cfg(spec.t_hi), steady)
    engine.trunk = []

    apply = Event(0.0, "fault_apply", target, location=location)

    def stable(t_clear: float) -> bool:
        if t_clear <= 1e-12:
            return True   # a clearing at its fault: no disturbance
        events = EventSchedule((apply, Event(t_clear, "fault_clear")))
        return simulate(grid, events, (), probe_cfg(t_clear),
                        _engine=engine).stable

    lo, hi = spec.t_lo, spec.t_hi
    hi_ok = stable(hi)   # first: it records the shared fault-on steps
    lo_ok = stable(lo)
    transcript = [(lo, lo_ok), (hi, hi_ok)]
    if not lo_ok or hi_ok:
        raise NumericalError(
            f"invalid bracket: stable({lo})={lo_ok}, stable({hi})={hi_ok}")
    while hi - lo > spec.tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break   # lo and hi are adjacent floats: no tol can shrink them
        ok = stable(mid)
        transcript.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return CctResult(cct=lo, interval=(lo, hi), transcript=tuple(transcript))
