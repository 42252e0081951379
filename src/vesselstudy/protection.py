"""Protective-device coordination.

A coordination study takes its fault from an AC fault summary: on the
summary's bus, or at the terminal of an element on that bus.  Breaker trip
times come from parameterized long-time/short-time curves with
no instantaneous element; selectivity relies on zone-selective interlocking
instead: the breakers nearest a fault emit lock signals that push every
other fault-carrying breaker onto its extended delay, while the backup
obligation (locked breakers still trip) is preserved.  A fuse clears when
the integrated let-through energy of the fault waveform reaches its total
clearing I^2t, the one fuse datum `fuse_i2t_clearing` takes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import GridModel, InputError, TccCurve
from .sc_ac import FaultSummary
from .sc_dc import DcScTrace


class ProtectionError(InputError):
    pass


class NoDetectionError(ProtectionError):
    pass


class TraceTooShortError(ProtectionError):
    """Let-through still rising at the end of the trace, below the rating."""


@dataclass(frozen=True)
class TripEvent:
    breaker_id: str
    time_s: float
    cause: str      # short_time | long_time | zsi_backup
    locked: bool


@dataclass
class BreakerFlow:
    breaker_id: str
    current_a: float          # at the breaker's own voltage level
    toward: str               # node on the fault side of the breaker
    adjacent_to_fault: bool


@dataclass
class BreakerGraph:
    flows: dict[str, BreakerFlow]
    paths: dict[str, tuple[str, ...]]   # contributor -> breakers walked to fault


@dataclass(frozen=True)
class ZsiResult:
    nearest: frozenset[str]
    locked: frozenset[str]
    trace: tuple[tuple[str, str], ...]   # (emitting breaker, locked breaker)


@dataclass(frozen=True)
class SelectivityReport:
    selective: bool
    cleared_within_cct: bool
    first_trip_s: float
    cct_margin_s: float
    coordination_margin_s: float | None


def trip_time(curve: TccCurve, current: float) -> tuple[float, str] | None:
    """Fastest element's trip time and name, or None below every pickup.

    Definite-time elements trip at their configured delay for any current
    above pickup; the inverse long-time characteristic is
    ``t = TD / ((I/pickup)^2 - 1)``, with no trip at the pickup pole.  The
    element is ``"short_time"`` or ``"long_time"``; on a tie it is the
    short-time element.
    """
    if current < 0:
        raise InputError("current must be >= 0")
    st, lt = curve.short_time, curve.long_time
    best = (st.delay, "short_time") if current > st.pickup else None
    if current > lt.pickup:
        t = lt.delay
        if lt.kind != "definite":
            m = current / lt.pickup
            t = lt.delay / (m * m - 1.0)
        if best is None or t < best[0]:
            best = (t, "long_time")
    return None if best is None else (float(best[0]), best[1])


# ---------------------------------------------------------------------------
# fault-current topology


def _stub(element_id: str) -> str:
    return f"stub:{element_id}"


def _connectivity(grid: GridModel):
    """Adjacency over buses and element stubs; edges carry a breaker id.

    Element ports covered by a breaker connect through it (open breaker:
    no edge); remaining ports connect directly.  Stubs never act as transit
    nodes, so fault current cannot shortcut through a converter.
    """
    adj: dict[str, list[tuple[str, str | None]]] = {}

    def link(a, b, breaker=None):
        adj.setdefault(a, []).append((b, breaker))
        adj.setdefault(b, []).append((a, breaker))

    bus_ids = grid.bus_ids()
    for br in grid.branches:
        link(br.from_bus, br.to_bus)
    breakered_ports: set[tuple[str, str]] = set()
    for bk in grid.breakers:
        a, b = bk.from_element, bk.to_element
        if a in bus_ids and b in bus_ids:
            if bk.closed:
                link(a, b, bk.id)
            continue
        element, bus = (b, a) if a in bus_ids else (a, b)
        breakered_ports.add((element, bus))
        if bk.closed:
            link(_stub(element), bus, bk.id)
    for e in grid.elements():
        ports = [e.bus]
        ac = getattr(e, "ac_bus", None)
        if ac is not None:
            ports.append(ac)
        for port in ports:
            if (e.id, port) not in breakered_ports:
                link(_stub(e.id), port)
    return adj


def _breaker_voltage(grid: GridModel, breaker_id: str) -> float:
    bk = grid.breaker(breaker_id)
    for end in (bk.to_element, bk.from_element):
        if end in grid.bus_ids():
            return grid.bus(end).nominal_voltage
    return grid.bus(grid.element(bk.from_element).bus).nominal_voltage


def build_breaker_graph(grid: GridModel, summary: FaultSummary,
                        fault_element: str | None = None) -> BreakerGraph:
    """Trace each contribution from its source to the fault.

    The fault is on the summary's bus or, with `fault_element`, on the stub
    between that element and its breaker; the element must sit on the
    summary's bus.  Contributor magnitudes are the half-cycle AC values
    from the fault summary (already referred to the fault bus); the current
    through each breaker is re-referred to that breaker's voltage level.
    """
    v_fault = grid.bus(summary.bus).nominal_voltage
    target = fault_node = summary.bus
    if fault_element is not None:
        on_bus = grid.element(fault_element).bus
        if on_bus != summary.bus:
            raise ProtectionError(
                f"fault element {fault_element!r} sits on bus {on_bus!r}, "
                f"not on the fault summary's bus {summary.bus!r}")
        target, fault_node = fault_element, _stub(fault_element)
    adj = _connectivity(grid)
    if fault_node not in adj:
        raise ProtectionError(f"fault location {target!r} unreachable")

    # BFS tree rooted at the fault: parent pointers give each path.
    # Stub nodes are terminal (no transit through elements).
    parent: dict[str, tuple[str, str | None]] = {fault_node: (fault_node, None)}
    dq = deque([fault_node])
    while dq:
        node = dq.popleft()
        if node.startswith("stub:") and node != fault_node:
            continue
        for nb, breaker in adj.get(node, ()):
            if nb not in parent:
                parent[nb] = (node, breaker)
                dq.append(nb)

    flows: dict[str, BreakerFlow] = {}
    paths: dict[str, tuple[str, ...]] = {}
    for contributor, trace in summary.traces.items():
        node = _stub(contributor)
        if contributor == fault_element:
            paths[contributor] = ()
            continue   # feeds the stub directly, crosses no breaker
        if node not in parent:
            continue
        walked = []
        while node != fault_node:
            nxt, breaker = parent[node]
            if breaker is not None:
                walked.append((breaker, nxt))
            node = nxt
        paths[contributor] = tuple(b for b, _ in walked)
        for breaker, toward in walked:
            amps = trace.iac_half * v_fault / _breaker_voltage(grid, breaker)
            if breaker not in flows:
                flows[breaker] = BreakerFlow(breaker, 0.0, toward, False)
            flows[breaker].current_a += amps
            flows[breaker].toward = toward

    for flow in flows.values():
        bk = grid.breaker(flow.breaker_id)
        flow.adjacent_to_fault = target in (bk.from_element, bk.to_element)

    return BreakerGraph(flows=flows, paths=paths)


def apply_zsi(graph: BreakerGraph) -> ZsiResult:
    """Lock every fault-carrying breaker that is not nearest the fault.

    The nearest breakers (seeing current toward the fault, adjacent to it)
    emit the lock; tie breakers on a path forward it outward, which the
    propagation trace records hop by hop.  The fault is the one the graph
    was built for.
    """
    nearest = frozenset(
        b for b, f in graph.flows.items() if f.adjacent_to_fault and f.current_a > 0)
    locked = frozenset(graph.flows) - nearest
    hops: list[tuple[str, str]] = []
    for path in graph.paths.values():
        # path is ordered source -> fault; locks propagate fault -> source
        for b, downstream in zip(path, path[1:] + (None,)):
            if b in nearest:
                continue
            emitter = (downstream if downstream is not None
                       else min(nearest, default=None))
            if emitter is not None and (emitter, b) not in hops:
                hops.append((emitter, b))
    return ZsiResult(nearest=nearest, locked=locked, trace=tuple(hops))


def sequence_of_operations(grid: GridModel, summary: FaultSummary,
                           fault_element: str | None = None,
                           zsi_enabled: bool = True,
                           failed_breakers: frozenset[str] | set[str] = frozenset(),
                           ) -> list[TripEvent]:
    """Ordered breaker trips for the summary's fault, at its bus or at
    `fault_element`'s terminal (see `build_breaker_graph`), with or without
    lock signals; every failed breaker must be one of the grid's."""
    for breaker_id in sorted(failed_breakers):
        grid.breaker(breaker_id)
    graph = build_breaker_graph(grid, summary, fault_element)
    locked = apply_zsi(graph).locked if zsi_enabled else frozenset()

    events = []
    for breaker_id, flow in sorted(graph.flows.items()):
        if breaker_id in failed_breakers:
            continue
        bk = grid.breaker(breaker_id)
        if bk.tcc is None:
            continue
        trip = trip_time(bk.tcc, flow.current_a)
        if trip is None:
            continue
        t, element = trip
        if breaker_id in locked:
            events.append(TripEvent(breaker_id, t + bk.tcc.zsi_extended_delay,
                                    "zsi_backup", True))
        else:
            events.append(TripEvent(breaker_id, t, element, False))
    if not events:
        raise NoDetectionError(
            f"no breaker detects the fault at "
            f"{fault_element or summary.bus!r}")
    return sorted(events, key=lambda e: (e.time_s, e.breaker_id))


def selectivity_check(events: list[TripEvent], cct_budget: float) -> SelectivityReport:
    """Judge whether exactly the intended breakers clear, and in time.

    Intended breakers are the unlocked ones.  With backups present the trip
    order must put every intended breaker strictly first; without any
    backup structure, more than one breaker tripping means the fault takes
    out more than the intended zone.
    """
    if not events:
        raise ProtectionError("empty trip sequence")
    intended = [e for e in events if not e.locked]
    backups = [e for e in events if e.locked]
    if not intended:
        selective = False
    elif backups:
        selective = max(e.time_s for e in intended) < min(e.time_s for e in backups)
    else:
        selective = len(intended) == 1
    first = float(min(e.time_s for e in events))
    coord = (float(min(e.time_s for e in backups) - max(e.time_s for e in intended))
             if backups and intended else None)
    return SelectivityReport(
        selective=bool(selective),
        cleared_within_cct=bool(first <= cct_budget),
        first_trip_s=first,
        cct_margin_s=float(cct_budget - first),
        coordination_margin_s=coord,
    )


# ---------------------------------------------------------------------------
# fuses


def let_through(trace: DcScTrace) -> np.ndarray:
    """Cumulative I^2t of a sampled waveform (trapezoidal)."""
    i2 = trace.i * trace.i
    dt = np.diff(trace.t)
    e = np.zeros_like(trace.t)
    e[1:] = np.cumsum(0.5 * (i2[1:] + i2[:-1]) * dt)
    return e


def fuse_i2t_clearing(trace: DcScTrace, rating: float) -> float | None:
    """Time at which the waveform's let-through reaches `rating`, the
    fuse's total clearing I^2t in A^2 s, which must be finite and > 0.

    Returns None when the waveform has decayed without ever accumulating
    the rating (the fuse never clears); raises TraceTooShortError when the
    grid ends while the let-through is still rising short of the rating.
    """
    if not (math.isfinite(rating) and rating > 0):
        raise ProtectionError(
            f"fuse I^2t rating {rating!r} A^2s is not finite and > 0")
    e = let_through(trace)
    if e[-1] >= rating:
        k = int(np.searchsorted(e, rating))
        if k == 0:
            return float(trace.t[0])
        t0, t1 = trace.t[k - 1], trace.t[k]
        e0, e1 = e[k - 1], e[k]
        return float(t0 + (rating - e0) / (e1 - e0) * (t1 - t0))
    peak = float(np.max(np.abs(trace.i))) if trace.i.size else 0.0
    if peak > 0 and abs(float(trace.i[-1])) > 1e-3 * peak:
        raise TraceTooShortError(
            f"let-through still rising at trace end "
            f"({e[-1]:.1f} of {rating:.1f} A^2s)")
    return None
