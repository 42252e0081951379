"""Single-line-diagram data model for vessel electrical grids.

A grid is an immutable collection of buses, cables, sources, converters,
loads and protective devices.  Everything downstream (power flow, fault
studies, time-domain simulation, protection) consumes this model and never
mutates it, so one loaded grid can safely back any number of concurrent
study runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from numbers import Real
from typing import NamedTuple

AC = "ac"
DC = "dc"

CONVERTER_KINDS = ("inverter", "charger", "dcdc", "grid_inverter")
LONG_TIME_KINDS = ("definite", "inverse")


class GridError(Exception):
    """Base class for grid model errors."""


class InputError(GridError, ValueError):
    """An input the toolkit refuses: a bad value, key, id or argument."""


class NumericalError(GridError):
    """A valid input on which an engine's numerical method failed."""


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str                      # "ac" or "dc"
    nominal_voltage: float         # V line-to-line (AC) / pole-to-pole (DC)
    frequency: float | None = None  # Hz, AC buses only


@dataclass(frozen=True)
class GeneratorDynamicParams:
    """Machine reactances and time constants feeding the decrement engine.

    Reactances are per-unit on the machine base, time constants in seconds.
    `td0_t`/`td0_st` are open-circuit constants; datasheets quoting
    short-circuit constants are converted at load time.  `synthetic` marks
    values invented for a fixture rather than taken from a datasheet.
    """

    xd: float
    xd_t: float
    xd_st: float
    td0_t: float
    td0_st: float
    tdc: float | None = None      # s; estimated from X''d and Ra when absent
    ikd: float | None = None      # A, steady-state fault current if published
    inertia_h: float = 1.0        # s
    damping: float = 0.0          # pu torque / pu speed
    synthetic: bool = False


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    bus: str
    rated_kva: float
    rated_kw: float
    voltage: float                # V
    rated_current: float          # A
    frequency: float              # Hz
    power_factor: float
    speed_rpm: float
    winding_resistance_mohm: float
    dynamics: GeneratorDynamicParams | None = None


@dataclass(frozen=True)
class BatterySource:
    id: str
    bus: str
    sc_peak_current: float        # A, datasheet short-circuit current
    sc_time_constant: float       # s, datasheet L/R


@dataclass(frozen=True)
class CapacitorBranch:
    """Series-RLC discharge branch (a converter DC link)."""

    capacitance: float            # F
    series_resistance: float      # ohm
    series_inductance: float      # H
    initial_voltage: float        # V


@dataclass(frozen=True)
class ConverterSpec:
    """Power-electronic converter.

    `bus` is the primary connection; two-port converters (chargers, grid
    inverters, battery inverters) name the far side in `ac_bus`.  It couples
    to an AC island at `ac_bus` when set, otherwise at `bus` if that bus is
    AC.  `p_set_kw` is the steady-state power it draws from that island
    (drive loading); a grid inverter feeds the island and draws nothing.
    """

    id: str
    bus: str
    kind: str                     # inverter | charger | dcdc | grid_inverter
    rated_current: float          # A
    rated_kw: float
    sc_contribution_factor: float = 1.5
    ac_bus: str | None = None
    p_set_kw: float = 0.0
    dc_link: CapacitorBranch | None = None


@dataclass(frozen=True)
class LoadSpec:
    id: str
    bus: str
    rated_kva: float
    power_factor: float
    motor_fraction: float         # the rest is static
    locked_rotor_multiplier: float = 6.25
    xr_ratio: float | None = None


@dataclass(frozen=True)
class CableBranch:
    id: str
    from_bus: str
    to_bus: str
    resistance_ohm: float
    reactance_ohm: float
    synthetic: bool = False


@dataclass(frozen=True)
class LongTimeElement:
    pickup: float                 # A
    kind: str = "definite"        # one of LONG_TIME_KINDS
    delay: float = 10.0           # s (definite delay, or time dial for inverse)


@dataclass(frozen=True)
class ShortTimeElement:
    pickup: float                 # A
    delay: float = 0.216          # s


@dataclass(frozen=True)
class TccCurve:
    """Long-time + short-time trip characteristic; no instantaneous element."""

    long_time: LongTimeElement
    short_time: ShortTimeElement
    zsi_extended_delay: float = 0.1   # s added when this breaker is locked


@dataclass(frozen=True)
class BreakerSpec:
    id: str
    from_element: str             # element id or bus id
    to_element: str
    tcc: TccCurve | None = None
    closed: bool = True


@dataclass(frozen=True)
class FuseSpec:
    id: str
    element: str
    i2t_total_clearing: float     # A^2 s


def connected_groups(ids, edges) -> list[frozenset[str]]:
    """Connected components of `ids` joined by `edges`, in order of their
    least id; an edge with an end outside `ids` joins nothing."""
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for i in parent:
        groups.setdefault(find(i), set()).add(i)
    return sorted(map(frozenset, groups.values()), key=min)


class IslandElements(NamedTuple):
    """The online elements coupled to one island, each in declaration order."""

    generators: tuple[GeneratorSpec, ...]
    batteries: tuple[BatterySource, ...]
    loads: tuple[LoadSpec, ...]
    converters: tuple[ConverterSpec, ...]


def _first_by_id(items) -> dict:
    index = {}
    for item in items:
        index.setdefault(item.id, item)
    return index


@dataclass(frozen=True)
class GridModel:
    name: str
    buses: tuple[Bus, ...] = ()
    branches: tuple[CableBranch, ...] = ()
    generators: tuple[GeneratorSpec, ...] = ()
    batteries: tuple[BatterySource, ...] = ()
    converters: tuple[ConverterSpec, ...] = ()
    loads: tuple[LoadSpec, ...] = ()
    breakers: tuple[BreakerSpec, ...] = ()
    fuses: tuple[FuseSpec, ...] = ()

    # ---- lookups -------------------------------------------------------
    # The indexes are built on first use and cached in the instance
    # __dict__; the model is frozen, so they never go stale.

    @cached_property
    def _index(self) -> dict[str, dict]:
        """Per lookup kind, id -> the first item declared with that id."""
        return {"bus": _first_by_id(self.buses),
                "element": _first_by_id(self.elements()),
                "generator": _first_by_id(self.generators),
                "breaker": _first_by_id(self.breakers),
                "load": _first_by_id(self.loads),
                "converter": _first_by_id(self.converters)}

    @cached_property
    def _element_breakers(self) -> dict[str, BreakerSpec]:
        # an endpoint maps to the first breaker whose other end is a bus
        bus_ids = self.bus_ids()
        index: dict[str, BreakerSpec] = {}
        for b in self.breakers:
            if b.to_element in bus_ids:
                index.setdefault(b.from_element, b)
            if b.from_element in bus_ids:
                index.setdefault(b.to_element, b)
        return index

    def _lookup(self, kind: str, item_id: str):
        try:
            return self._index[kind][item_id]
        except KeyError:
            raise InputError(f"unknown {kind} {item_id!r}") from None

    def bus(self, bus_id: str) -> Bus:
        return self._lookup("bus", bus_id)

    def bus_ids(self) -> set[str]:
        return {b.id for b in self.buses}

    def elements(self):
        """All non-bus, non-protective elements."""
        yield from self.generators
        yield from self.batteries
        yield from self.converters
        yield from self.loads

    def element(self, element_id: str):
        return self._lookup("element", element_id)

    def generator(self, gen_id: str) -> GeneratorSpec:
        return self._lookup("generator", gen_id)

    def breaker(self, breaker_id: str) -> BreakerSpec:
        return self._lookup("breaker", breaker_id)

    def load(self, load_id: str) -> LoadSpec:
        return self._lookup("load", load_id)

    def converter(self, conv_id: str) -> ConverterSpec:
        return self._lookup("converter", conv_id)

    def element_breaker(self, element_id: str) -> BreakerSpec | None:
        """The breaker connecting an element to its bus, if any."""
        return self._element_breakers.get(element_id)

    def element_online(self, element_id: str) -> bool:
        b = self.element_breaker(element_id)
        return b.closed if b is not None else True

    def converter_ac_bus(self, conv: ConverterSpec) -> str | None:
        if conv.ac_bus is not None:
            return conv.ac_bus
        if self.bus(conv.bus).kind == AC:
            return conv.bus
        return None

    def online_elements(self, buses) -> IslandElements:
        """The online elements coupled to `buses`, one island's buses (all
        of one kind).  A converter couples to AC buses through
        `converter_ac_bus` and to DC buses through `bus`."""
        ac = bool(buses) and self.bus(next(iter(buses))).kind == AC

        def coupled(items, bus_of=lambda e: e.bus):
            return tuple(e for e in items
                         if bus_of(e) in buses and self.element_online(e.id))

        return IslandElements(
            coupled(self.generators), coupled(self.batteries), coupled(self.loads),
            coupled(self.converters, self.converter_ac_bus) if ac
            else coupled(self.converters))

    # ---- topology ------------------------------------------------------

    @cached_property
    def _islands(self) -> dict[str, tuple[frozenset[str], ...]]:
        """Per bus kind, the connected bus groups over cables and closed
        breakers."""
        edges = [(br.from_bus, br.to_bus) for br in self.branches] + [
            (bk.from_element, bk.to_element) for bk in self.breakers if bk.closed]
        ids: dict[str, list[str]] = {}
        for b in self.buses:
            ids.setdefault(b.kind, []).append(b.id)
        return {kind: tuple(connected_groups(i, edges)) for kind, i in ids.items()}

    def islands(self, kind: str) -> tuple[frozenset[str], ...]:
        """Connected bus groups of one kind, honouring open tie breakers."""
        return self._islands.get(kind, ())

    def island_of(self, bus_id: str) -> frozenset[str]:
        return next(isl for isl in self.islands(self.bus(bus_id).kind)
                    if bus_id in isl)

    def with_breaker_states(self, states: dict[str, bool]) -> "GridModel":
        """Functional update: a copy with the given breakers set open/closed."""
        unknown = set(states) - self._index["breaker"].keys()
        if unknown:
            raise InputError(f"unknown breakers {sorted(unknown)}")
        new = tuple(
            b if states.get(b.id, b.closed) == b.closed
            else replace(b, closed=states[b.id]) for b in self.breakers
        )
        return replace(self, breakers=new)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    element_id: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    def ok(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)


def dangling_references(grid: GridModel):
    """(referrer id, what it names) for every reference to a bus or an
    endpoint the grid does not declare."""
    buses = grid.bus_ids()
    for e in grid.elements():
        if e.bus not in buses:
            yield e.id, f"bus {e.bus!r}"
    for c in grid.converters:
        if c.ac_bus is not None and c.ac_bus not in buses:
            yield c.id, f"ac bus {c.ac_bus!r}"
    for br in grid.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in buses:
                yield br.id, f"bus {end!r}"
    endpoints = buses | {e.id for e in grid.elements()}
    for bk in grid.breakers:
        for end in (bk.from_element, bk.to_element):
            if end not in endpoints:
                yield bk.id, f"endpoint {end!r}"
    for f in grid.fuses:
        if f.element not in endpoints:
            yield f.id, f"element {f.element!r}"


# spec class -> field -> the interval `validate` checks it against, in the
# notation of `check_domains`; a number field without one need only be
# finite, and None passes only where the field's default is None
DOMAINS = {
    Bus: {"nominal_voltage": "(0, inf)"},
    GeneratorSpec: {"power_factor": "(0, 1]", **dict.fromkeys((
        "rated_kva", "rated_kw", "voltage", "rated_current", "speed_rpm",
        "winding_resistance_mohm"), "(0, inf)")},
    GeneratorDynamicParams: {"damping": "[0, inf)", **dict.fromkeys(
        ("td0_t", "td0_st", "tdc", "ikd", "inertia_h"), "(0, inf)")},
    BatterySource: dict.fromkeys(("sc_peak_current", "sc_time_constant"), "(0, inf)"),
    CapacitorBranch: dict.fromkeys(("capacitance", "series_resistance",
                                    "series_inductance", "initial_voltage"), "(0, inf)"),
    ConverterSpec: {"rated_current": "(0, inf)", "rated_kw": "(0, inf)",
                    "sc_contribution_factor": "[1, inf)"},
    LoadSpec: {"rated_kva": "(0, inf)", "power_factor": "(0, 1]", "motor_fraction": "[0, 1]",
               "locked_rotor_multiplier": "(0, inf)", "xr_ratio": "(0, inf)"},
    CableBranch: {"resistance_ohm": "[0, inf)", "reactance_ohm": "(0, inf)"},
    LongTimeElement: {"pickup": "(0, inf)", "delay": "(0, inf)"},
    ShortTimeElement: {"pickup": "(0, inf)", "delay": "(0, inf)"},
    TccCurve: {"zsi_extended_delay": "[0, inf)"},
    FuseSpec: {"i2t_total_clearing": "(0, inf)"},
}


@cache
def _inside(interval: str):
    """The test of membership in `interval`, "(lo, hi)" with "[" or "]" at
    a closed end.  An infinite end is open, so nan and +-inf fail it."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return lambda x: above(lo, x) and below(x, hi)


def check_domains(domains: dict[str, str], **values) -> None:
    """Raise InputError for a value outside the interval that `domains`, an
    engine's table, declares for its key (see `_inside`), and for one that
    is no real number (None, a str or a bool), shown by its repr; a dict
    holds an id-keyed section's values, named by id."""
    for key, value in values.items():
        interval = domains[key]
        inside = _inside(interval)
        for item, x in value.items() if isinstance(value, dict) else [("", value)]:
            # float and int before the Real ABC, whose check is slow
            number = (not isinstance(x, bool)
                      and isinstance(x, (float, int, Real)))
            if not number or not inside(x):
                got = f"{key} {item}".strip()
                raise InputError(f"need {key} in {interval}, got {got} = "
                                 f"{x if number else repr(x)}")


@cache
def _spec_fields(cls) -> tuple[tuple, tuple]:
    """(field, interval, its test, None passes) of each number field of a
    spec class, and the fields that hold a nested spec."""
    domains, specs = DOMAINS.get(cls, {}), {c.__name__ for c in DOMAINS}
    return (tuple((f.name, interval, _inside(interval), f.default is None)
                  for f in fields(cls) if "float" in f.type
                  for interval in [domains.get(f.name, "(-inf, inf)")]),
            tuple(f.name for f in fields(cls) if f.type.split(" | ")[0] in specs))


def _outside(spec, prefix: str = ""):
    """The message, in `check_domains`' words, of each number of a spec and
    of its nested specs that lies outside its field's `DOMAINS` interval,
    or that is no real number (a str or a bool), shown by its repr."""
    numbers, nested = _spec_fields(type(spec))
    for name, interval, inside, none_passes in numbers:
        x = getattr(spec, name)
        if x is None:
            if not none_passes:
                yield f"need {prefix}{name} in {interval}, got {prefix}{name} = {x}"
        elif isinstance(x, bool) or not isinstance(x, (float, int, Real)):
            yield f"need {prefix}{name} in {interval}, got {prefix}{name} = {x!r}"
        elif not inside(x):
            yield f"need {prefix}{name} in {interval}, got {prefix}{name} = {x}"
    for name in nested:
        if (sub := getattr(spec, name)) is not None:
            yield from _outside(sub, f"{prefix}{name}.")


def island_frequency(grid: GridModel, island) -> float:
    """The frequency set on an AC island's buses, 60 Hz when none is; an
    island that mixes frequencies is an input error."""
    freqs = sorted({grid.bus(b).frequency for b in island} - {None})
    if len(freqs) > 1:
        raise InputError(f"island at {min(island)} mixes frequencies {freqs}")
    return freqs[0] if freqs else 60.0


def validate(grid: GridModel) -> ValidationReport:
    """Check every type invariant; violations are data, not exceptions."""
    v: list[Violation] = []
    add = lambda eid, rule, msg: v.append(Violation(eid, rule, msg))

    if not grid.buses:
        add(grid.name, "empty grid", "grid declares no buses")
        return ValidationReport(tuple(v))

    # ids share one namespace: an event target names a bus, branch, load or
    # breaker by its id alone.  The rules below that compare ratings,
    # reactances or pickups skip a spec with a number outside its domain
    seen: set[str] = set()
    bad: set[int] = set()
    for group in (grid.buses, grid.generators, grid.batteries, grid.converters,
                  grid.loads, grid.branches, grid.breakers, grid.fuses):
        for spec in group:
            if not isinstance(spec.id, str):
                add(spec.id, "id", f"id {spec.id!r} is not text")
            if spec.id in seen:
                add(spec.id, "duplicate id", "id declared twice")
            seen.add(spec.id)
            for message in _outside(spec):
                add(spec.id, "domain", message)
                bad.add(id(spec))
    # the topology rules below sort and compare ids as text
    if any(x.rule == "id" for x in v):
        return ValidationReport(tuple(v))

    bus_ids = grid.bus_ids()
    for b in grid.buses:
        if b.kind == AC and b.frequency not in (50.0, 60.0):
            add(b.id, "frequency", f"AC bus frequency {b.frequency} not 50 or 60 Hz")
        if b.kind == DC and b.frequency is not None:
            add(b.id, "frequency", f"DC bus with a frequency of {b.frequency} Hz")
        if b.kind not in (AC, DC):
            add(b.id, "bus kind", f"unknown bus kind {b.kind!r}")

    for referrer, what in dangling_references(grid):
        add(referrer, "dangling reference", f"{what} not declared")

    bus_kind = lambda bus_id: grid.bus(bus_id).kind if bus_id in bus_ids else None
    for g in grid.generators:
        if bus_kind(g.bus) == DC:
            add(g.id, "bus kind", "generator placed on a DC bus")
        elif bus_kind(g.bus) == AC and g.frequency != grid.bus(g.bus).frequency:
            add(g.id, "frequency",
                f"frequency {g.frequency} Hz differs from bus {g.bus} "
                f"at {grid.bus(g.bus).frequency} Hz")
        if id(g) in bad:
            continue
        kw = g.rated_kva * g.power_factor
        if abs(g.rated_kw - kw) / kw > 0.01:
            add(g.id, "kw/kva/pf mismatch", f"rated_kw {g.rated_kw} vs kva*pf {kw:.1f}")
        expect_i = g.rated_kva * 1e3 / (math.sqrt(3) * g.voltage)
        if abs(g.rated_current - expect_i) / expect_i > 0.01:
            add(g.id, "current/kva/voltage mismatch",
                f"rated_current {g.rated_current} vs kva/(sqrt3*V) {expect_i:.1f}")
        d = g.dynamics
        if d is not None and not 0 < d.xd_st < d.xd_t < d.xd:
            add(g.id, "reactance ordering",
                f"need 0 < xd_st < xd_t < xd, got {d.xd_st}, {d.xd_t}, {d.xd}")

    for bat in grid.batteries:
        if bus_kind(bat.bus) == AC:
            add(bat.id, "bus kind", "battery placed on an AC bus")

    for c in grid.converters:
        if c.kind not in CONVERTER_KINDS:
            add(c.id, "converter kind", f"unknown kind {c.kind!r}")
        if c.ac_bus in bus_ids and bus_kind(c.ac_bus) != AC:
            add(c.id, "bus kind", "ac_bus must reference an AC bus")
        if (c.kind == "grid_inverter" and c.ac_bus is None
                and bus_kind(c.bus) == DC):
            add(c.id, "ac bus", "a grid_inverter on a DC bus needs an ac_bus")
        if c.kind == "grid_inverter" and c.p_set_kw != 0:
            add(c.id, "set-point", f"a grid_inverter draws nothing, got "
                f"p_set_kw = {c.p_set_kw}")

    # a breaker joins two buses, or an element to a bus it sits on, and is
    # then the element's only breaker
    elements = grid._index["element"]
    for bk in grid.breakers:
        a, b = bk.from_element, bk.to_element
        if a not in bus_ids and b not in bus_ids:
            add(bk.id, "breaker ends", f"neither {a} nor {b} is a bus")
        elif a == b:
            add(bk.id, "breaker ends", f"both ends are bus {a}")
        elif a not in bus_ids or b not in bus_ids:
            el_id, bus = (a, b) if b in bus_ids else (b, a)
            el, first = elements.get(el_id), grid.element_breaker(el_id)
            if el is not None and bus not in (el.bus,
                                              getattr(el, "ac_bus", None)):
                add(bk.id, "breaker ends", f"{el_id} does not sit on bus {bus}")
            if first is not bk:
                add(bk.id, "breaker ends",
                    f"{el_id} already has breaker {first.id}")
        if bk.tcc is not None:
            t = bk.tcc
            if t.long_time.kind not in LONG_TIME_KINDS:
                add(bk.id, "long-time kind", f"unknown kind {t.long_time.kind!r}")
            if id(bk) not in bad and t.short_time.pickup <= t.long_time.pickup:
                add(bk.id, "pickup ordering",
                    "short-time pickup must exceed long-time pickup")

    for isl in grid.islands(AC):
        try:
            island_frequency(grid, isl)
        except InputError as exc:
            add(min(isl), "island frequency", str(exc))

    return ValidationReport(tuple(v))
