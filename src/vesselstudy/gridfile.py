"""Plain-text grid file format.

Sections are headed ``[kind id]``, followed by one ``key = value`` per line.
Keys carry unit suffixes (``voltage_v``, ``rated_kva``, ``resistance_mohm``)
so a file is unambiguous without a schema at hand.  One table per section
kind, `_SECTIONS`, names each key, the dataclass field it fills, its
converter and any unit scale; parsing, the key checks and serialization all
read it, and every default comes from the dataclass itself.  Values stay
text until the table converts them, so ids keep their text exactly
(``bus = 12`` names ``[bus 12]``).  Nested tables are all-or-nothing
groups: the trip curve, the dynamics block and the DC link (``dclink_*``,
in uF, mOhm and uH).  Every input error is a `GridParseError` naming the
line; README.md lists the rules.

The serializer emits keys sorted and floats with at least two decimals, so
files diff cleanly and ``parse_grid(serialize_grid(g))`` reproduces ``g``.
It omits fields that are None and the marker flags ``synthetic`` and
``synthetic_dynamics`` when false.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields
from typing import Callable, NamedTuple

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
    GridModel,
    InputError,
    LoadSpec,
    LongTimeElement,
    ShortTimeElement,
    TccCurve,
    dangling_references,
)
from .sc_ac import convert_time_constants

_SECTION_RE = re.compile(r"^\[([a-z_]+)(?:\s+([A-Za-z0-9_#]+))?\]$")
_ID_RE = re.compile(r"^[A-Za-z0-9_#]+$")
# '#' opens a comment only at line start or after whitespace, so ids like
# DG#01 survive inside values
_COMMENT_RE = re.compile(r"(?<!\S)#")


class GridParseError(InputError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---- tokenizer --------------------------------------------------------------


def _non_finite(text: str) -> bool:
    """Whether float() reads `text` as nan or an infinity."""
    if text[0].isalpha():
        # the only words float() reads; any other word is text
        return text.lower() in ("nan", "inf", "infinity")
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def read_sections(text: str) -> list[tuple[str, str, int, dict[str, str]]]:
    """Generic pass: (kind, id, header line no, {key: value text}).  A value
    that reads as a non-finite number is an error at its own line, and so is
    such an id, which no key could name."""
    sections = []
    current: dict[str, str] | None = None
    first_line: dict[str, int] = {}
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
                sid = m.group(2) or ""
                if sid and _non_finite(sid):
                    raise GridParseError(f"non-finite number {sid!r} as id", lineno)
                current, first_line = {}, {}
                sections.append((m.group(1), sid, lineno, current))
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
        if key in current:
            raise GridParseError(
                f"key {key!r} repeated from line {first_line[key]}", lineno)
        if _non_finite(value):
            raise GridParseError(f"non-finite number {value!r}", lineno)
        current[key] = value
        first_line[key] = lineno
    return sections


# ---- converters: value text -> value, or a ValueError saying what it is not;
# numbers are read by float itself


def integer(text: str) -> int:
    """An integral number (exact up to 2**53): ``4`` and ``4.0`` read 4,
    ``4.5`` is an error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise InputError("not an integer")
    return int(value)


def boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise InputError("not true or false")
    return text == "true"


def convert(where: str, line: int, key: str, text: str, conv: Callable):
    """`conv(text)`; a value it rejects is an error naming the key and line."""
    try:
        return conv(text)
    except ValueError as exc:
        reason = "not a number" if conv is float else exc
        raise GridParseError(f"{where} {key} = {text!r}: {reason}", line) from None


def check_declared(where: str, line: int, keys: dict, declared) -> None:
    unknown = sorted(keys.keys() - declared)
    if unknown:
        raise GridParseError(f"{where} unknown key(s): {', '.join(unknown)}",
                             line)


# ---- section tables ---------------------------------------------------------


class _Key(NamedTuple):
    name: str                     # the file key
    field: str                    # the dataclass field it fills
    conv: Callable = float
    scale: float | None = None    # field value = file value * scale


class _Table:
    """How one dataclass is written in a section.  `groups` fill
    dataclass-typed fields from nested tables; one whose field defaults to
    None is built when any of its keys is given.  `finish` may rewrite the
    converted values before the required fields are checked."""

    def __init__(self, cls, keys: list[_Key], groups=None, finish=None):
        self.cls = cls
        self.keys = keys
        self.groups: dict[str, _Table] = groups or {}
        self.finish = finish
        self.defaults = {f.name: f.default for f in fields(cls)}
        self.required = {k.field: k.name for k in keys
                         if self.defaults.get(k.field) is MISSING}
        self.names = {k.name for k in keys}.union(
            *(g.names for g in self.groups.values()))


def _open_circuit_constants(values: dict) -> None:
    """Datasheet short-circuit constants (td_t_s, td_st_s) in place of the
    open-circuit ones the model holds."""
    quoted = [values.pop(f) for f in ("td_t", "td_st") if f in values]
    if not quoted:
        return
    if len(quoted) < 2 or "td0_t" in values or "td0_st" in values:
        raise InputError("td_t_s and td_st_s go together, in place of "
                         "td0_t_s and td0_st_s")
    if {"xd", "xd_t", "xd_st"} <= values.keys():   # else the missing one is named
        values["td0_t"], values["td0_st"] = convert_time_constants(
            values["xd"], values["xd_t"], values["xd_st"], *quoted)


_DYNAMICS = _Table(GeneratorDynamicParams, [
    _Key("xd_pu", "xd"),
    _Key("xd_t_pu", "xd_t"),
    _Key("xd_st_pu", "xd_st"),
    _Key("td0_t_s", "td0_t"),
    _Key("td0_st_s", "td0_st"),
    _Key("tdc_s", "tdc"),
    _Key("ikd_a", "ikd"),
    _Key("inertia_h_s", "inertia_h"),
    _Key("damping_pu", "damping"),
    _Key("synthetic_dynamics", "synthetic", boolean),
    # read only: fields the class lacks, replaced by _open_circuit_constants
    _Key("td_t_s", "td_t"),
    _Key("td_st_s", "td_st"),
], finish=_open_circuit_constants)

_DC_LINK = _Table(CapacitorBranch, [
    _Key("dclink_capacitance_uf", "capacitance", scale=1e-6),
    _Key("dclink_resistance_mohm", "series_resistance", scale=1e-3),
    _Key("dclink_inductance_uh", "series_inductance", scale=1e-6),
    _Key("dclink_voltage_v", "initial_voltage"),
])

_TRIP_CURVE = _Table(TccCurve, [_Key("zsi_delay_s", "zsi_extended_delay")], {
    "long_time": _Table(LongTimeElement, [
        _Key("lt_pickup_a", "pickup"),
        _Key("lt_kind", "kind", str),
        _Key("lt_delay_s", "delay"),
    ]),
    "short_time": _Table(ShortTimeElement, [
        _Key("st_pickup_a", "pickup"),
        _Key("st_delay_s", "delay"),
    ]),
})

# kind -> (GridModel field, table), in the order serialize_grid writes them
_SECTIONS = {
    "grid": (None, _Table(GridModel, [_Key("name", "name", str)])),
    "bus": ("buses", _Table(Bus, [
        _Key("kind", "kind", str),
        _Key("voltage_v", "nominal_voltage"),
        _Key("frequency_hz", "frequency"),
    ])),
    "generator": ("generators", _Table(GeneratorSpec, [
        _Key("bus", "bus", str),
        _Key("rated_kva", "rated_kva"),
        _Key("rated_kw", "rated_kw"),
        _Key("voltage_v", "voltage"),
        _Key("current_a", "rated_current"),
        _Key("frequency_hz", "frequency"),
        _Key("pf", "power_factor"),
        _Key("rpm", "speed_rpm"),
        _Key("winding_resistance_mohm", "winding_resistance_mohm"),
    ], {"dynamics": _DYNAMICS})),
    "battery": ("batteries", _Table(BatterySource, [
        _Key("bus", "bus", str),
        _Key("sc_peak_current_a", "sc_peak_current"),
        _Key("sc_time_constant_s", "sc_time_constant"),
    ])),
    "converter": ("converters", _Table(ConverterSpec, [
        _Key("bus", "bus", str),
        _Key("kind", "kind", str),
        _Key("rated_current_a", "rated_current"),
        _Key("rated_kw", "rated_kw"),
        _Key("sc_factor", "sc_contribution_factor"),
        _Key("ac_bus", "ac_bus", str),
        _Key("p_set_kw", "p_set_kw"),
    ], {"dc_link": _DC_LINK})),
    "load": ("loads", _Table(LoadSpec, [
        _Key("bus", "bus", str),
        _Key("rated_kva", "rated_kva"),
        _Key("pf", "power_factor"),
        _Key("motor_fraction", "motor_fraction"),
        _Key("locked_rotor_multiplier", "locked_rotor_multiplier"),
        _Key("xr_ratio", "xr_ratio"),
    ])),
    "branch": ("branches", _Table(CableBranch, [
        _Key("from", "from_bus", str),
        _Key("to", "to_bus", str),
        _Key("resistance_ohm", "resistance_ohm"),
        _Key("reactance_ohm", "reactance_ohm"),
        _Key("synthetic", "synthetic", boolean),
    ])),
    "breaker": ("breakers", _Table(BreakerSpec, [
        _Key("from", "from_element", str),
        _Key("to", "to_element", str),
        _Key("closed", "closed", boolean),
    ], {"tcc": _TRIP_CURVE})),
    "fuse": ("fuses", _Table(FuseSpec, [
        _Key("element", "element", str),
        _Key("i2t_total_clearing", "i2t_total_clearing"),
    ])),
}


# ---- parsing ----------------------------------------------------------------


def parse_grid(text: str) -> GridModel:
    """Parse a grid file into a GridModel, resolving all id references."""
    name = "grid"
    specs = {attr: [] for attr, _ in _SECTIONS.values() if attr}
    for kind, sid, line, keys in read_sections(text):
        if kind not in _SECTIONS:
            raise GridParseError(f"unknown section kind {kind!r}", line)
        if not sid and kind != "grid":
            raise GridParseError(f"[{kind}] section requires an id", line)
        attr, table = _SECTIONS[kind]
        where = f"[{kind} {sid}]" if sid else f"[{kind}]"
        check_declared(where, line, keys, table.names)
        if attr:
            specs[attr].append(_build(table, keys, where, line, id=sid))
        else:
            name = keys.get("name", sid or "grid")
    grid = GridModel(name, **{attr: tuple(s) for attr, s in specs.items()})
    for referrer, what in dangling_references(grid):
        raise GridParseError(f"{referrer}: dangling reference to {what}")
    return grid


def _build(table: _Table, keys: dict, where: str, line: int, **values):
    get = keys.get
    try:
        for name, field, conv, scale in table.keys:
            text = get(name)
            if text is not None:
                value = conv(text)
                values[field] = value if scale is None else value * scale
    except ValueError:
        convert(where, line, name, text, conv)     # raises, naming the key
    for field, group in table.groups.items():
        if table.defaults[field] is MISSING or not group.names.isdisjoint(keys):
            values[field] = _build(group, keys, where, line)
    if table.finish:
        try:
            table.finish(values)
        except ValueError as exc:
            raise GridParseError(f"{where} {exc}", line) from None
    if not table.required.keys() <= values.keys():
        name = next(n for f, n in table.required.items() if f not in values)
        raise GridParseError(f"{where} missing required key {name!r}", line)
    return table.cls(**values)


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


def _written(table: _Table, spec):
    """(file key, value) of every field of `spec` its section spells out."""
    for key in table.keys:
        if key.field not in table.defaults:
            continue                            # read only, see _DYNAMICS
        value = getattr(spec, key.field)
        if value is None or (value is False and table.defaults[key.field] is False):
            continue
        if key.scale is not None:
            value *= round(1 / key.scale)    # the exact inverse, 1e6 for 1e-6
        yield key.name, value
    for field, group in table.groups.items():
        if getattr(spec, field) is not None:
            yield from _written(group, getattr(spec, field))


def serialize_grid(grid: GridModel) -> str:
    """Render a GridModel back to grid-file text."""
    parts = [f"[grid {_safe_id(grid.name)}]\nname = {grid.name}"]
    for kind, (attr, table) in _SECTIONS.items():
        for spec in getattr(grid, attr) if attr else ():
            keys = dict(_written(table, spec))
            parts.append("\n".join([f"[{kind} {spec.id}]"] + [
                f"{key} = {_fmt(keys[key])}" for key in sorted(keys)]))
    return "\n\n".join(parts) + "\n"


def _safe_id(name: str) -> str:
    sid = re.sub(r"[^A-Za-z0-9_#]", "_", name)
    return sid if _ID_RE.match(sid) else "grid"
