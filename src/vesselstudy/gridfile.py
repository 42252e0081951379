"""Plain-text grid file format.

Sections are headed ``[kind id]``, followed by one ``key = value`` per line.
Keys carry unit suffixes (``voltage_v``, ``rated_kva``, ``resistance_mohm``)
so a file is unambiguous without a schema at hand.  Each section kind
declares its keys: an unknown kind or an undeclared key is a
`GridParseError` naming the header line, and the boolean keys (``closed``,
``synthetic``, ``synthetic_dynamics``) read only ``true``/``false``.  Ids
match ``[A-Za-z0-9_#]+``.  ``#`` starts a comment only at the start of a
line or after whitespace, so ``bus = DG#01  # port`` reads ``DG#01``.  A
value is a number when ``float`` reads it; ``nan``, ``inf`` and
overflowing numbers, in any spelling, are a `GridParseError` naming the
line.  Study files use the same format.

The serializer emits keys sorted and floats with at least two decimals, so
files diff cleanly and ``parse_grid(serialize_grid(g))`` reproduces ``g``.
"""

from __future__ import annotations

import math
import re

from .grid import (
    BatterySource,
    BreakerSpec,
    Bus,
    CableBranch,
    CapacitorBranch,
    ConverterSpec,
    FuseSpec,
    GeneratorDynamicParams,
    GeneratorSpec,
    GridError,
    GridModel,
    LoadSpec,
    LongTimeElement,
    ShortTimeElement,
    TccCurve,
)

_SECTION_RE = re.compile(r"^\[([a-z_]+)(?:\s+([A-Za-z0-9_#]+))?\]$")
_ID_RE = re.compile(r"^[A-Za-z0-9_#]+$")
# '#' opens a comment only at line start or after whitespace, so ids like
# DG#01 survive inside values
_COMMENT_RE = re.compile(r"(?<!\S)#")

# the keys each section kind declares; any other key is a parse error
_GRID_KEYS = {kind: set(keys.split()) for kind, keys in {
    "grid": "name",
    "bus": "kind voltage_v frequency_hz",
    "generator": "bus rated_kva rated_kw voltage_v current_a frequency_hz pf rpm "
                 "winding_resistance_mohm poles xd_pu xd_t_pu xd_st_pu td0_t_s "
                 "td0_st_s td_t_s td_st_s tdc_s ikd_a inertia_h_s damping_pu "
                 "synthetic_dynamics",
    "battery": "bus capacity_kwh sc_peak_current_a sc_time_constant_s min_soc",
    "converter": "bus kind rated_current_a rated_kw sc_factor ac_bus p_set_kw "
                 "dclink_capacitance_uf dclink_resistance_mohm "
                 "dclink_inductance_uh dclink_voltage_v",
    "load": "bus rated_kva pf static_fraction motor_fraction "
            "locked_rotor_multiplier xr_ratio",
    "branch": "from to resistance_ohm reactance_ohm synthetic",
    "breaker": "from to closed lt_pickup_a lt_kind lt_delay_s st_pickup_a "
               "st_delay_s zsi_delay_s",
    "fuse": "element i2t_total_clearing rated_current_a",
}.items()}
_BOOL_KEYS = {"closed", "synthetic", "synthetic_dynamics"}


class GridParseError(GridError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def flag(where: str, key: str, value, line: int | None = None) -> bool:
    """A boolean setting, which must read ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise GridParseError(f"{where} {key} = {value!r}: not true or false", line)
    return value


def read_sections(text: str) -> list[tuple[str, str, int, dict[str, object]]]:
    """Generic pass: (kind, id, header line no, {key: raw value})."""
    sections = []
    current: dict[str, object] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            m = _COMMENT_RE.search(line)
            if m:
                line = line[:m.start()]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[":
            m = _SECTION_RE.match(line)
            if m:
                current = {}
                sections.append((m.group(1), m.group(2) or "", lineno, current))
                continue
        key, eq, value = line.partition("=")
        if not eq:
            raise GridParseError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise GridParseError("key before any section header", lineno)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise GridParseError(f"malformed 'key = value' line {line!r}", lineno)
        current[key] = _convert(value, lineno)
    return sections


def _convert(value: str, lineno: int):
    if value == "true":
        return True
    if value == "false":
        return False
    if value[0].isalpha():
        # the only words float() reads; any other word is a string
        if value.lower() in ("nan", "inf", "infinity"):
            raise GridParseError(f"non-finite number {value!r}", lineno)
        return value
    try:
        number = float(value)
    except ValueError:
        return value
    if not math.isfinite(number):
        raise GridParseError(f"non-finite number {value!r}", lineno)
    return number


def parse_grid(text: str) -> GridModel:
    """Parse a grid file into a GridModel, resolving all id references."""
    sections = read_sections(text)

    name = "grid"
    buses, branches, gens, bats, convs, loads, breakers, fuses = \
        [], [], [], [], [], [], [], []

    for kind, sid, lineno, keys in sections:
        if kind not in _GRID_KEYS:
            raise GridParseError(f"unknown section kind {kind!r}", lineno)
        if not sid and kind != "grid":
            raise GridParseError(f"[{kind}] section requires an id", lineno)
        where = f"[{kind} {sid}]" if sid else f"[{kind}]"
        unknown = sorted(keys.keys() - _GRID_KEYS[kind])
        if unknown:
            raise GridParseError(
                f"{where} unknown key(s): {', '.join(unknown)}", lineno)
        for key in _BOOL_KEYS & keys.keys():
            flag(where, key, keys[key], lineno)
        try:
            if kind == "grid":
                name = str(keys.get("name", sid or "grid"))
            elif kind == "bus":
                buses.append(_build_bus(sid, keys))
            elif kind == "generator":
                gens.append(_build_generator(sid, keys))
            elif kind == "battery":
                bats.append(_build_battery(sid, keys))
            elif kind == "converter":
                convs.append(_build_converter(sid, keys))
            elif kind == "load":
                loads.append(_build_load(sid, keys))
            elif kind == "branch":
                branches.append(_build_branch(sid, keys))
            elif kind == "breaker":
                breakers.append(_build_breaker(sid, keys))
            elif kind == "fuse":
                fuses.append(_build_fuse(sid, keys))
        except KeyError as exc:
            raise GridParseError(
                f"[{kind} {sid}] missing required key {exc.args[0]!r}", lineno
            ) from None

    grid = GridModel(
        name=name,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        batteries=tuple(bats),
        converters=tuple(convs),
        loads=tuple(loads),
        breakers=tuple(breakers),
        fuses=tuple(fuses),
    )
    _check_references(grid)
    return grid


def _check_references(grid: GridModel) -> None:
    bus_ids = grid.bus_ids()
    endpoints = bus_ids | {e.id for e in grid.elements()}
    for e in grid.elements():
        if e.bus not in bus_ids:
            raise GridParseError(f"{e.id}: dangling reference to bus {e.bus!r}")
    for c in grid.converters:
        if c.ac_bus is not None and c.ac_bus not in bus_ids:
            raise GridParseError(f"{c.id}: dangling reference to bus {c.ac_bus!r}")
    for br in grid.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                raise GridParseError(f"{br.id}: dangling reference to bus {end!r}")
    for bk in grid.breakers:
        for end in (bk.from_element, bk.to_element):
            if end not in endpoints:
                raise GridParseError(f"{bk.id}: dangling reference to {end!r}")
    for f in grid.fuses:
        if f.element not in endpoints:
            raise GridParseError(f"{f.id}: dangling reference to {f.element!r}")


# ---- section builders -----------------------------------------------------


def _build_bus(sid, keys) -> Bus:
    return Bus(
        id=sid,
        kind=str(keys["kind"]),
        nominal_voltage=float(keys["voltage_v"]),
        frequency=(float(keys["frequency_hz"]) if "frequency_hz" in keys else None),
    )


def _build_dynamics(keys) -> GeneratorDynamicParams | None:
    if "xd_pu" not in keys:
        return None
    xd = float(keys["xd_pu"])
    xd_t = float(keys["xd_t_pu"])
    xd_st = float(keys["xd_st_pu"])
    if "td0_t_s" in keys:
        td0_t, td0_st = float(keys["td0_t_s"]), float(keys["td0_st_s"])
    else:
        # datasheet quoted short-circuit constants; convert at load time
        from .sc_ac import convert_time_constants

        td0_t, td0_st = convert_time_constants(
            xd, xd_t, xd_st, float(keys["td_t_s"]), float(keys["td_st_s"])
        )
    return GeneratorDynamicParams(
        xd=xd, xd_t=xd_t, xd_st=xd_st, td0_t=td0_t, td0_st=td0_st,
        tdc=(float(keys["tdc_s"]) if "tdc_s" in keys else None),
        ikd=(float(keys["ikd_a"]) if "ikd_a" in keys else None),
        inertia_h=float(keys.get("inertia_h_s", 1.0)),
        damping=float(keys.get("damping_pu", 0.0)),
        synthetic=keys.get("synthetic_dynamics", False),
    )


def _build_generator(sid, keys) -> GeneratorSpec:
    return GeneratorSpec(
        id=sid,
        bus=str(keys["bus"]),
        rated_kva=float(keys["rated_kva"]),
        rated_kw=float(keys["rated_kw"]),
        voltage=float(keys["voltage_v"]),
        rated_current=float(keys["current_a"]),
        frequency=float(keys["frequency_hz"]),
        power_factor=float(keys["pf"]),
        speed_rpm=float(keys["rpm"]),
        winding_resistance_mohm=float(keys["winding_resistance_mohm"]),
        poles=(int(keys["poles"]) if "poles" in keys else None),
        dynamics=_build_dynamics(keys),
    )


def _build_battery(sid, keys) -> BatterySource:
    return BatterySource(
        id=sid,
        bus=str(keys["bus"]),
        capacity_kwh=float(keys["capacity_kwh"]),
        sc_peak_current=float(keys["sc_peak_current_a"]),
        sc_time_constant=float(keys["sc_time_constant_s"]),
        min_soc=float(keys.get("min_soc", 0.0)),
    )


def _build_converter(sid, keys) -> ConverterSpec:
    dc_link = None
    if "dclink_capacitance_uf" in keys:
        dc_link = CapacitorBranch(
            capacitance=float(keys["dclink_capacitance_uf"]) * 1e-6,
            series_resistance=float(keys["dclink_resistance_mohm"]) * 1e-3,
            series_inductance=float(keys["dclink_inductance_uh"]) * 1e-6,
            initial_voltage=float(keys["dclink_voltage_v"]),
        )
    return ConverterSpec(
        id=sid,
        bus=str(keys["bus"]),
        kind=str(keys["kind"]),
        rated_current=float(keys["rated_current_a"]),
        rated_kw=float(keys["rated_kw"]),
        sc_contribution_factor=float(keys.get("sc_factor", 1.5)),
        ac_bus=(str(keys["ac_bus"]) if "ac_bus" in keys else None),
        p_set_kw=float(keys.get("p_set_kw", 0.0)),
        dc_link=dc_link,
    )


def _build_load(sid, keys) -> LoadSpec:
    return LoadSpec(
        id=sid,
        bus=str(keys["bus"]),
        rated_kva=float(keys["rated_kva"]),
        power_factor=float(keys["pf"]),
        static_fraction=float(keys["static_fraction"]),
        motor_fraction=float(keys["motor_fraction"]),
        locked_rotor_multiplier=float(keys.get("locked_rotor_multiplier", 6.25)),
        xr_ratio=(float(keys["xr_ratio"]) if "xr_ratio" in keys else None),
    )


def _build_branch(sid, keys) -> CableBranch:
    return CableBranch(
        id=sid,
        from_bus=str(keys["from"]),
        to_bus=str(keys["to"]),
        resistance_ohm=float(keys["resistance_ohm"]),
        reactance_ohm=float(keys["reactance_ohm"]),
        synthetic=keys.get("synthetic", False),
    )


def _build_breaker(sid, keys) -> BreakerSpec:
    tcc = None
    if "st_pickup_a" in keys:
        tcc = TccCurve(
            long_time=LongTimeElement(
                pickup=float(keys["lt_pickup_a"]),
                kind=str(keys.get("lt_kind", "definite")),
                delay=float(keys.get("lt_delay_s", 10.0)),
            ),
            short_time=ShortTimeElement(
                pickup=float(keys["st_pickup_a"]),
                delay=float(keys.get("st_delay_s", 0.216)),
            ),
            zsi_extended_delay=float(keys.get("zsi_delay_s", 0.1)),
        )
    return BreakerSpec(
        id=sid,
        from_element=str(keys["from"]),
        to_element=str(keys["to"]),
        tcc=tcc,
        closed=keys.get("closed", True),
    )


def _build_fuse(sid, keys) -> FuseSpec:
    return FuseSpec(
        id=sid,
        element=str(keys["element"]),
        i2t_total_clearing=float(keys["i2t_total_clearing"]),
        rated_current=(float(keys["rated_current_a"])
                       if "rated_current_a" in keys else None),
    )


# ---- serialization ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        s = repr(value)
        if "e" in s or "E" in s or "inf" in s or "nan" in s:
            return s
        whole, _, frac = s.partition(".")
        return f"{whole}.{frac.ljust(2, '0')}"
    return str(value)


def _section(kind: str, sid: str, keys: dict) -> str:
    lines = [f"[{kind} {sid}]"]
    for key in sorted(keys):
        if keys[key] is None:
            continue
        lines.append(f"{key} = {_fmt(keys[key])}")
    return "\n".join(lines)


def serialize_grid(grid: GridModel) -> str:
    """Render a GridModel back to grid-file text."""
    parts = [_section("grid", _safe_id(grid.name), {"name": grid.name})]
    for b in grid.buses:
        parts.append(_section("bus", b.id, {
            "kind": b.kind, "voltage_v": b.nominal_voltage,
            "frequency_hz": b.frequency,
        }))
    for g in grid.generators:
        keys = {
            "bus": g.bus, "rated_kva": g.rated_kva, "rated_kw": g.rated_kw,
            "voltage_v": g.voltage, "current_a": g.rated_current,
            "frequency_hz": g.frequency, "pf": g.power_factor,
            "rpm": g.speed_rpm, "poles": g.poles,
            "winding_resistance_mohm": g.winding_resistance_mohm,
        }
        if g.dynamics is not None:
            d = g.dynamics
            keys.update({
                "xd_pu": d.xd, "xd_t_pu": d.xd_t, "xd_st_pu": d.xd_st,
                "td0_t_s": d.td0_t, "td0_st_s": d.td0_st, "tdc_s": d.tdc,
                "ikd_a": d.ikd, "inertia_h_s": d.inertia_h,
                "damping_pu": d.damping,
                "synthetic_dynamics": d.synthetic or None,
            })
        parts.append(_section("generator", g.id, keys))
    for bat in grid.batteries:
        parts.append(_section("battery", bat.id, {
            "bus": bat.bus, "capacity_kwh": bat.capacity_kwh,
            "sc_peak_current_a": bat.sc_peak_current,
            "sc_time_constant_s": bat.sc_time_constant,
            "min_soc": bat.min_soc,
        }))
    for c in grid.converters:
        keys = {
            "bus": c.bus, "kind": c.kind, "rated_current_a": c.rated_current,
            "rated_kw": c.rated_kw, "sc_factor": c.sc_contribution_factor,
            "ac_bus": c.ac_bus, "p_set_kw": c.p_set_kw,
        }
        if c.dc_link is not None:
            keys.update({
                "dclink_capacitance_uf": c.dc_link.capacitance * 1e6,
                "dclink_resistance_mohm": c.dc_link.series_resistance * 1e3,
                "dclink_inductance_uh": c.dc_link.series_inductance * 1e6,
                "dclink_voltage_v": c.dc_link.initial_voltage,
            })
        parts.append(_section("converter", c.id, keys))
    for l in grid.loads:
        parts.append(_section("load", l.id, {
            "bus": l.bus, "rated_kva": l.rated_kva, "pf": l.power_factor,
            "static_fraction": l.static_fraction,
            "motor_fraction": l.motor_fraction,
            "locked_rotor_multiplier": l.locked_rotor_multiplier,
            "xr_ratio": l.xr_ratio,
        }))
    for br in grid.branches:
        parts.append(_section("branch", br.id, {
            "from": br.from_bus, "to": br.to_bus,
            "resistance_ohm": br.resistance_ohm,
            "reactance_ohm": br.reactance_ohm,
            "synthetic": br.synthetic or None,
        }))
    for bk in grid.breakers:
        keys = {
            "from": bk.from_element, "to": bk.to_element,
            "closed": bk.closed,
        }
        if bk.tcc is not None:
            t = bk.tcc
            keys.update({
                "lt_pickup_a": t.long_time.pickup, "lt_kind": t.long_time.kind,
                "lt_delay_s": t.long_time.delay,
                "st_pickup_a": t.short_time.pickup,
                "st_delay_s": t.short_time.delay,
                "zsi_delay_s": t.zsi_extended_delay,
            })
        parts.append(_section("breaker", bk.id, keys))
    for f in grid.fuses:
        parts.append(_section("fuse", f.id, {
            "element": f.element, "i2t_total_clearing": f.i2t_total_clearing,
            "rated_current_a": f.rated_current,
        }))
    return "\n\n".join(parts) + "\n"


def _safe_id(name: str) -> str:
    sid = re.sub(r"[^A-Za-z0-9_#]", "_", name)
    return sid if _ID_RE.match(sid) else "grid"
