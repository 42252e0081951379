"""Steady-state solution of the vessel grid.

AC islands are solved with a dense Newton-Raphson load flow (per-unit on a
1 MVA system base, constant-power loads).  Buses joined by closed
zero-impedance tie breakers are merged into supernodes before the solve.
DC islands get an algebraic power-balance restoration: generator-side
chargers pick up the island load plus fixed converter losses, shared in
proportion to their capability.  A solution keeps what the solve
computes; `prefault_operating_point` takes a machine's bus and nominal
voltage from the grid to give the short-circuit decrement engine its
pre-fault terminal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (AC, DC, CableBranch, ConverterSpec, GridModel,
                   InputError, IslandElements, NumericalError,
                   check_domains, connected_groups, island_frequency)

S_BASE_KVA = 1000.0
DC_EFFICIENCY = 0.97   # per converter stage, in the DC balance

# each [powerflow] key, and each value of [dispatch] and [load_scale] -> the
# interval `SteadyState` checks it against (`grid.check_domains`)
DOMAINS = {"tol": "[0, inf)", "max_iter": "[0, inf)",
           "dispatch": "[0, inf)", "load_scale": "[0, inf)"}


@dataclass(frozen=True)
class SteadyState:
    """A study's operating point: its `[powerflow]` keys, `[dispatch]` (kW
    of non-slack generators, else island load shared by rating) and
    `[load_scale]`.  The default `slack` is each island's largest online
    machine, else its grid inverter.  The maps are copies of those given;
    each value lies in its `DOMAINS` interval (a generator does not motor,
    a load does not generate); an integral float `max_iter` runs as its int."""

    slack: str | None = None
    tol: float = 1e-8
    max_iter: int = 20
    dispatch: dict[str, float] = field(default_factory=dict)
    load_scale: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dispatch", "load_scale"):   # None is refused below
            if (values := getattr(self, name)) is not None:
                object.__setattr__(self, name, dict(values))
        if not isinstance(self.slack, (str, type(None))):
            raise InputError(f"need slack as text, got slack = {self.slack!r}")
        check_domains(DOMAINS, tol=self.tol, max_iter=self.max_iter,
                      dispatch=self.dispatch, load_scale=self.load_scale)
        if self.max_iter != int(self.max_iter):
            raise InputError(f"need an integral max_iter, got max_iter = "
                             f"{self.max_iter}")


@dataclass(frozen=True)
class OperatingPoint:
    """Pre-fault machine terminal state for the decrement formulas."""

    u0: float     # V line-to-line
    i0: float     # A
    phi0: float   # rad, in [0, pi/2]


@dataclass(frozen=True)
class PowerflowSolution:
    v_pu: dict[str, float]
    angle_rad: dict[str, float]
    injections_kw: dict[str, tuple[float, float]]   # element -> (P kW, Q kvar)
    bus_p_kw: dict[str, float]
    bus_q_kvar: dict[str, float]
    iterations: int
    max_mismatch: float
    slack_elements: tuple[str, ...]


@dataclass(frozen=True)
class DcBalanceSolution:
    transfers_kw: dict[str, float]       # converter -> power through it (input side)
    source_output_kw: dict[str, float]   # generator -> AC output
    loads_kw: dict[str, float]           # sink -> delivered power
    losses_kw: float
    residual_kw: float


def load_pq_kw(load, scale: float = 1.0) -> tuple[float, float]:
    p = load.rated_kva * load.power_factor * scale
    q = load.rated_kva * math.sin(math.acos(load.power_factor)) * scale
    return p, q


def converter_draw_kw(conv: ConverterSpec, draws=None) -> tuple[float, float]:
    """(P kW, Q kvar) a converter draws from the AC island it couples to.

    A grid inverter feeds its AC island and draws nothing from it; any
    other converter draws its set-point, or its entry in `draws`.
    """
    if conv.kind == "grid_inverter":
        return 0.0, 0.0
    return (draws or {}).get(conv.id, (conv.p_set_kw, 0.0))


def island_slack(on: IslandElements, slack: str | None = None):
    """The source that balances an AC island with online elements `on`:
    the generator `slack` if online there, else the largest online
    generator, else the grid inverter of the largest rated current, else
    None.  The power flow and the DC balance both ask it, so a grid
    inverter carries its island's load only when it is the slack."""
    if on.generators:
        return next((g for g in on.generators if g.id == slack), None) or max(
            on.generators, key=lambda g: (g.rated_kva, g.id))
    return max((c for c in on.converters if c.kind == "grid_inverter"),
               key=lambda c: (c.rated_current, c.id), default=None)


# ---------------------------------------------------------------------------
# AC network assembly


@dataclass
class AcNetwork:
    """One AC island reduced to supernodes with a per-unit Y matrix."""

    nodes: list[frozenset[str]]            # member buses per supernode
    node_of: dict[str, int]
    ybus: np.ndarray
    vbase: list[float]
    frequency: float


def branch_z_pu(br: CableBranch, vbase: float) -> complex:
    """Series impedance of a cable, per unit on the system base at `vbase`."""
    try:
        zb = vbase ** 2 / (S_BASE_KVA * 1e3)
        z = complex(br.resistance_ohm / zb, br.reactance_ohm / zb)
    except (OverflowError, ZeroDivisionError):
        z = 0j
    if not z:   # an admittance 1 / z
        raise NumericalError(f"{br.id}: base voltage {vbase!r} V puts its "
                             "per-unit impedance out of float range")
    return z


def build_ac_networks(grid: GridModel) -> list[AcNetwork]:
    # buses joined by closed zero-impedance tie breakers form one supernode
    ties = [(bk.from_element, bk.to_element) for bk in grid.breakers if bk.closed]
    nets = []
    for island in grid.islands(AC):
        nodes = connected_groups(island, ties)
        node_of = {b: i for i, g in enumerate(nodes) for b in g}
        vbase = [grid.bus(min(g)).nominal_voltage for g in nodes]
        freq = island_frequency(grid, island)

        n = len(nodes)
        y = np.zeros((n, n), dtype=complex)
        for br in grid.branches:
            if br.from_bus in node_of and br.to_bus in node_of:
                i, k = node_of[br.from_bus], node_of[br.to_bus]
                if i == k:
                    continue
                yline = 1.0 / branch_z_pu(br, vbase[i])
                y[i, i] += yline
                y[k, k] += yline
                y[i, k] -= yline
                y[k, i] -= yline
        nets.append(AcNetwork(nodes, node_of, y, vbase, freq))
    return nets


# ---------------------------------------------------------------------------
# Newton-Raphson core


def _jacobian(g, b, v, theta, p_calc, q_calc, select):
    """Polar NR Jacobian [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]].

    The four blocks are assembled over all n nodes, then `select` (an
    `np.ix_` pair into the 2n stacked unknowns) keeps the theta of the
    non-slack nodes and the V of the PQ nodes.  Every entry is evaluated
    with the same operations, in the same order, as the per-entry formulas
    (v_i v_k gs_ik off the diagonal, -q_i - b_ii v_i^2 on it, ...).
    """
    n = len(v)
    th_ik = theta[:, None] - theta[None, :]
    gc = g * np.cos(th_ik) + b * np.sin(th_ik)
    gs = g * np.sin(th_ik) - b * np.cos(th_ik)
    vi, vk = v[:, None], v[None, :]
    # v_i^2 through the scalar power operator, as in the diagonal formulas:
    # pow() can differ from v * v in the last bit
    v2 = np.array([x ** 2 for x in v.tolist()])
    gd, bd = np.diag(g), np.diag(b)
    jac = np.empty((2 * n, 2 * n))
    jac[:n, :n] = vi * vk * gs
    jac[:n, n:] = vi * gc
    jac[n:, :n] = -vi * vk * gc
    jac[n:, n:] = vi * gs
    d = np.arange(n)
    jac[d, d] = -q_calc - bd * v2
    jac[d, d + n] = p_calc / v + gd * v
    jac[d + n, d] = p_calc - gd * v2
    jac[d + n, d + n] = q_calc / v - bd * v
    return jac[select]


def _newton_raphson(ybus, s_spec, slack, pv, tol, max_iter):
    """Polar NR on one island from a flat start (every scheduled voltage is
    1 pu); returns (V complex, iterations, mismatch)."""
    n = ybus.shape[0]
    g, b = ybus.real, ybus.imag
    theta = np.zeros(n)
    v = np.ones(n)
    pq = np.array([i for i in range(n) if i != slack and i not in pv], dtype=int)
    nonslack = np.array([i for i in range(n) if i != slack], dtype=int)
    nns = len(nonslack)
    unknowns = np.concatenate([nonslack, n + pq])
    select = np.ix_(unknowns, unknowns)

    for it in range(max_iter + 1):
        vc = v * np.exp(1j * theta)
        s_calc = vc * np.conj(ybus @ vc)
        mismatch = np.concatenate([s_spec.real[nonslack] - s_calc.real[nonslack],
                                   s_spec.imag[pq] - s_calc.imag[pq]])
        mism = np.abs(mismatch).max() if len(mismatch) else 0.0
        if mism <= tol:
            return vc, it, mism
        if it == max_iter:
            raise NumericalError(
                f"power flow not converged after {max_iter} iterations "
                f"(mismatch {mism:.3e} pu)")

        jac = _jacobian(g, b, v, theta, s_calc.real, s_calc.imag, select)
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Jacobian: {exc}") from None
        if not np.all(np.isfinite(dx)):
            raise NumericalError("diverged: non-finite Newton step")
        theta[nonslack] += dx[:nns]
        v[pq] += dx[nns:]
        if np.any(v <= 0) or np.any(v > 10):
            raise NumericalError("diverged: voltage left (0, 10] pu")


# ---------------------------------------------------------------------------
# public solves


def solve_ac_powerflow(
    grid: GridModel, steady: SteadyState = SteadyState(),
    converter_draws: dict[str, tuple[float, float]] | None = None,
) -> PowerflowSolution:
    """Newton-Raphson load flow over every AC island of the grid, from
    `steady`, with `converter_draws` in place of converters' draws.  Its
    `dispatch` and `slack` ids must name online generators, no slack
    dispatched (the flow sets its P) and no dispatch above its generator's
    `rated_kw`, and its `load_scale` ids loads.  The maps are checked
    again here, since a spec's dicts may change after it is built."""
    check_domains(DOMAINS, dispatch=steady.dispatch,
                  load_scale=steady.load_scale)
    for gen_id, p_kw in steady.dispatch.items():
        rated = grid.generator(gen_id).rated_kw
        if not grid.element_online(gen_id):
            raise InputError(f"dispatch generator {gen_id!r} is offline")
        if p_kw > rated:
            raise InputError(f"need dispatch {gen_id} <= its rated_kw = "
                             f"{rated!r}, got dispatch {gen_id} = {p_kw!r}")
    if steady.slack is not None:
        grid.generator(steady.slack)
        if not grid.element_online(steady.slack):
            raise InputError(f"slack generator {steady.slack!r} is offline")
    for load_id in steady.load_scale:
        grid.load(load_id)

    v_pu: dict[str, float] = {}
    angle: dict[str, float] = {}
    injections: dict[str, tuple[float, float]] = {}
    slack_elements: list[str] = []
    total_iter = 0
    worst = 0.0

    for net in build_ac_networks(grid):
        on = grid.online_elements(net.node_of)
        gens = on.generators
        draws = [(c, pq) for c in on.converters
                 if (pq := converter_draw_kw(c, converter_draws)) != (0.0, 0.0)]

        source = island_slack(on, steady.slack)
        if source is not None:
            slack_element = source.id
            slack_node = net.node_of[grid.converter_ac_bus(source)
                                     if isinstance(source, ConverterSpec)
                                     else source.bus]
        elif not on.loads and not draws:
            # fully de-energized island: record zero voltage, nothing to solve
            for group in net.nodes:
                for bus_id in group:
                    v_pu[bus_id] = 0.0
                    angle[bus_id] = 0.0
            continue
        else:
            raise NumericalError(
                f"AC island {sorted(min(net.nodes, key=lambda s: sorted(s)[0]))} "
                "has no online generator or grid inverter to act as slack")
        if slack_element in steady.dispatch:
            raise InputError(f"dispatch generator {slack_element!r} is its "
                             "island's slack, whose P the flow sets")
        slack_elements.append(slack_element)

        # consumed powers per node (pu)
        n = len(net.nodes)
        s_spec = np.zeros(n, dtype=complex)
        consumed: list[tuple[str, int, float, float]] = []
        for l in on.loads:
            p, q = load_pq_kw(l, steady.load_scale.get(l.id, 1.0))
            consumed.append((l.id, net.node_of[l.bus], p, q))
        consumed += [(c.id, net.node_of[grid.converter_ac_bus(c)], *pq)
                     for c, pq in draws]
        for _, node, p, q in consumed:
            s_spec[node] -= complex(p, q) / S_BASE_KVA

        # default dispatch: share island load by machine rating
        island_load_p = sum(p for _, _, p, _ in consumed)
        others = [g for g in gens if g.id != slack_element]
        total_kva = sum(g.rated_kva for g in gens)
        gen_p: dict[str, float] = {}
        for g in others:
            gen_p[g.id] = steady.dispatch.get(
                g.id, island_load_p * g.rated_kva / total_kva if total_kva else 0.0)
            s_spec[net.node_of[g.bus]] += gen_p[g.id] / S_BASE_KVA

        pv_nodes = {net.node_of[g.bus] for g in others} - {slack_node}
        vc, iters, mism = _newton_raphson(
            net.ybus, s_spec, slack_node, pv_nodes, steady.tol,
            int(steady.max_iter))
        total_iter = max(total_iter, iters)
        worst = max(worst, mism)

        for i, group in enumerate(net.nodes):
            for bus_id in group:
                v_pu[bus_id] = float(abs(vc[i]))
                angle[bus_id] = float(np.angle(vc[i]))

        # element injections
        s_net = vc * np.conj(net.ybus @ vc) * S_BASE_KVA   # kW/kvar per node
        for eid, _, p, q in consumed:
            injections[eid] = (-p, -q)
        q_open: dict[int, float] = {}   # per-node reactive to assign to sources
        for i in range(n):
            q_open[i] = float(s_net[i].imag) + sum(
                q for _, node, _, q in consumed if node == i)
        for g in others:
            node = net.node_of[g.bus]
            if node == slack_node:
                injections[g.id] = (gen_p[g.id], 0.0)
            else:
                co = [x for x in others if net.node_of[x.bus] == node]
                share = g.rated_kva / sum(x.rated_kva for x in co)
                injections[g.id] = (gen_p[g.id], q_open[node] * share)
        slack_p = float(s_net[slack_node].real) + sum(
            p for _, node, p, _ in consumed if node == slack_node) - sum(
            gen_p[g.id] for g in others if net.node_of[g.bus] == slack_node)
        # other machines at the slack node take no Q (above)
        injections[slack_element] = (slack_p, q_open[slack_node])

    bus_p = {b.id: 0.0 for b in grid.buses}
    bus_q = {b.id: 0.0 for b in grid.buses}
    for e in grid.elements():
        if e.id in injections:
            p, q = injections[e.id]
            at = e.bus
            if isinstance(e, ConverterSpec):
                at = grid.converter_ac_bus(e) or e.bus
            bus_p[at] += p
            bus_q[at] += q

    return PowerflowSolution(
        v_pu=v_pu,
        angle_rad=angle,
        injections_kw=injections,
        bus_p_kw=bus_p,
        bus_q_kvar=bus_q,
        iterations=total_iter,
        max_mismatch=worst,
        slack_elements=tuple(slack_elements),
    )


def solve_dc_balance(grid: GridModel) -> DcBalanceSolution:
    """Restore the DC-side power balance of every DC island.

    Converter losses are the fixed per-stage `DC_EFFICIENCY`; chargers
    share the island demand in proportion to their capability, which is
    capped by the feeding generator's rating.  A grid inverter draws its AC
    island's online loads and converter draws only when it is that island's
    `island_slack`.  The DC network itself (cable drops, droop) is not
    modelled: this is an algebraic balance, not a voltage solve.
    """
    transfers: dict[str, float] = {}
    source_out: dict[str, float] = {}
    sinks: dict[str, float] = {}
    losses = 0.0

    for island in grid.islands(DC):
        on = grid.online_elements(island)
        demand = 0.0
        chargers = []
        for l in on.loads:
            p, _ = load_pq_kw(l)
            sinks[l.id] = p
            demand += p
        for c in on.converters:
            if c.kind == "grid_inverter":
                ac_on = grid.online_elements(
                    grid.island_of(grid.converter_ac_bus(c)))
                if island_slack(ac_on).id != c.id:
                    continue    # a generator or another inverter is the slack
                served = sum(load_pq_kw(l)[0] for l in ac_on.loads) + sum(
                    converter_draw_kw(o)[0] for o in ac_on.converters)
                draw = served / DC_EFFICIENCY
                transfers[c.id] = draw
                sinks.setdefault(f"{c.id}:ac", served)
                losses += draw - served
                demand += draw
            elif c.kind in ("inverter", "dcdc") and c.p_set_kw:
                draw = c.p_set_kw / DC_EFFICIENCY
                transfers[c.id] = draw
                sinks[f"{c.id}:load"] = c.p_set_kw
                losses += draw - c.p_set_kw
                demand += draw
            elif c.kind == "charger":
                gen = next((g for g in grid.generators if g.bus == c.ac_bus), None)
                if gen is not None and grid.element_online(gen.id):
                    cap = min(c.rated_kw, gen.rated_kw) * DC_EFFICIENCY
                    chargers.append((c, gen, cap))

        if demand == 0 and not chargers:
            continue
        total_cap = sum(cap for _, _, cap in chargers)
        if demand > total_cap:
            raise NumericalError(
                f"DC island {sorted(island)}: load {demand:.1f} kW exceeds "
                f"online source capability {total_cap:.1f} kW")
        for c, gen, cap in chargers:
            share = demand * cap / total_cap if total_cap else 0.0
            xfer = share / DC_EFFICIENCY
            transfers[c.id] = xfer
            source_out[gen.id] = source_out.get(gen.id, 0.0) + xfer
            losses += xfer - share

    residual = sum(source_out.values()) - sum(sinks.values()) - losses
    return DcBalanceSolution(
        transfers_kw=transfers,
        source_output_kw=source_out,
        loads_kw=sinks,
        losses_kw=losses,
        residual_kw=residual,
    )


def prefault_operating_point(grid: GridModel, sol: PowerflowSolution,
                             machine_id: str) -> OperatingPoint:
    """Terminal voltage, current and power-factor angle of generator
    `machine_id` of `grid` in `sol`: an unknown id, or one offline in the
    solution, is an `InputError`."""
    bus = grid.generator(machine_id).bus
    if machine_id not in sol.injections_kw:
        raise InputError(f"machine {machine_id!r} is offline in the solution")
    u0 = sol.v_pu[bus] * grid.bus(bus).nominal_voltage
    p, q = sol.injections_kw[machine_id]
    s_kva = math.hypot(p, q)
    if s_kva < 1e-9:
        return OperatingPoint(u0=u0, i0=0.0, phi0=0.0)
    i0 = s_kva * 1e3 / (math.sqrt(3) * u0)
    phi0 = math.acos(min(1.0, max(-1.0, p / s_kva)))
    return OperatingPoint(u0=u0, i0=i0, phi0=min(math.pi / 2, max(0.0, phi0)))
