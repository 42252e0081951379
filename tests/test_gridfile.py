"""The grid-file tokenizer, parser and serializer, the GridModel id
indexes and islands, the AC network assembly, the trip-curve evaluator and
the power-flow Jacobian against the per-line, per-kind, linear-scan,
twice-derived and per-entry code they replace; the grid-file round trip on
generated grids; and `validate` and the engines on generated grids.

Each reference below is the earlier implementation, unchanged apart from
its name and the parameters it needs to be called on its own: the new
versions must give the same results, the same errors and the same line
numbers, bit for bit.  The tokenizer reference follows the current
contract (values stay text, a repeated key is an error); the parser
reference reads valid files only, through the earlier typed values.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vesselstudy import (
    GridError,
    builtin_fixture,
    convert_time_constants,
    dc_fault_summary,
    fault_summary,
    parse_grid,
    sequence_of_operations,
    serialize_grid,
    solve_ac_powerflow,
    solve_dc_balance,
    trip_time,
    validate,
)
from vesselstudy import powerflow
from vesselstudy.grid import (
    CONVERTER_KINDS,
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
)
from vesselstudy.gridfile import (
    _SECTION_RE,
    GridParseError,
    _fmt,
    _safe_id,
    read_sections,
)

from helpers import DP_ISLAND_OPEN, PS_ISLAND_OPEN, two_bus_grid

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# ---- references ---------------------------------------------------------


def reference_read_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = reference_strip_comment(raw)
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            kind, sid = m.group(1), m.group(2) or ""
            current, lines = {}, {}
            sections.append((kind, sid, lineno, current))
            continue
        if "=" not in line:
            raise GridParseError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise GridParseError("key before any section header", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise GridParseError(f"malformed 'key = value' line {line!r}", lineno)
        if key in current:
            raise GridParseError(f"key {key!r} repeated from line {lines[key]}",
                                 lineno)
        current[key] = value
        lines[key] = lineno
    return sections


def reference_strip_comment(raw):
    if raw.lstrip().startswith("#"):
        return ""
    out = []
    prev = " "
    for ch in raw:
        if ch == "#" and prev.isspace():
            break
        out.append(ch)
        prev = ch
    return "".join(out).strip()


def reference_convert(value):
    if value == "true":
        return True
    if value == "false":
        return False
    try:
        return float(value)
    except ValueError:
        return value


def reference_build_bus(sid, keys):
    return Bus(
        id=sid,
        kind=str(keys["kind"]),
        nominal_voltage=float(keys["voltage_v"]),
        frequency=(float(keys["frequency_hz"]) if "frequency_hz" in keys else None),
    )


def reference_build_dynamics(keys):
    if "xd_pu" not in keys:
        return None
    xd = float(keys["xd_pu"])
    xd_t = float(keys["xd_t_pu"])
    xd_st = float(keys["xd_st_pu"])
    if "td0_t_s" in keys:
        td0_t, td0_st = float(keys["td0_t_s"]), float(keys["td0_st_s"])
    else:
        # datasheet quoted short-circuit constants; convert at load time
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


def reference_build_generator(sid, keys):
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
        dynamics=reference_build_dynamics(keys),
    )


def reference_build_battery(sid, keys):
    return BatterySource(
        id=sid,
        bus=str(keys["bus"]),
        sc_peak_current=float(keys["sc_peak_current_a"]),
        sc_time_constant=float(keys["sc_time_constant_s"]),
    )


def reference_build_converter(sid, keys):
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


def reference_build_load(sid, keys):
    return LoadSpec(
        id=sid,
        bus=str(keys["bus"]),
        rated_kva=float(keys["rated_kva"]),
        power_factor=float(keys["pf"]),
        motor_fraction=float(keys["motor_fraction"]),
        locked_rotor_multiplier=float(keys.get("locked_rotor_multiplier", 6.25)),
        xr_ratio=(float(keys["xr_ratio"]) if "xr_ratio" in keys else None),
    )


def reference_build_branch(sid, keys):
    return CableBranch(
        id=sid,
        from_bus=str(keys["from"]),
        to_bus=str(keys["to"]),
        resistance_ohm=float(keys["resistance_ohm"]),
        reactance_ohm=float(keys["reactance_ohm"]),
        synthetic=keys.get("synthetic", False),
    )


def reference_build_breaker(sid, keys):
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


def reference_build_fuse(sid, keys):
    return FuseSpec(
        id=sid,
        element=str(keys["element"]),
        i2t_total_clearing=float(keys["i2t_total_clearing"]),
    )


REFERENCE_BUILDERS = {
    "bus": reference_build_bus, "generator": reference_build_generator,
    "battery": reference_build_battery, "converter": reference_build_converter,
    "load": reference_build_load, "branch": reference_build_branch,
    "breaker": reference_build_breaker, "fuse": reference_build_fuse,
}


def reference_parse_grid(text):
    """The earlier parse_grid on a valid file, with the earlier tokenizer's
    typed values."""
    name = "grid"
    found = {kind: [] for kind in REFERENCE_BUILDERS}
    for kind, sid, _, keys in reference_read_sections(text):
        keys = {k: reference_convert(v) for k, v in keys.items()}
        if kind == "grid":
            name = str(keys.get("name", sid or "grid"))
        else:
            found[kind].append(REFERENCE_BUILDERS[kind](sid, keys))
    return GridModel(
        name=name, buses=tuple(found["bus"]), branches=tuple(found["branch"]),
        generators=tuple(found["generator"]),
        batteries=tuple(found["battery"]),
        converters=tuple(found["converter"]), loads=tuple(found["load"]),
        breakers=tuple(found["breaker"]), fuses=tuple(found["fuse"]))


def reference_section(kind, sid, keys):
    lines = [f"[{kind} {sid}]"]
    for key in sorted(keys):
        if keys[key] is None:
            continue
        lines.append(f"{key} = {_fmt(keys[key])}")
    return "\n".join(lines)


def reference_serialize_grid(grid):
    parts = [reference_section("grid", _safe_id(grid.name), {"name": grid.name})]
    for b in grid.buses:
        parts.append(reference_section("bus", b.id, {
            "kind": b.kind, "voltage_v": b.nominal_voltage,
            "frequency_hz": b.frequency,
        }))
    for g in grid.generators:
        keys = {
            "bus": g.bus, "rated_kva": g.rated_kva, "rated_kw": g.rated_kw,
            "voltage_v": g.voltage, "current_a": g.rated_current,
            "frequency_hz": g.frequency, "pf": g.power_factor,
            "rpm": g.speed_rpm,
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
        parts.append(reference_section("generator", g.id, keys))
    for bat in grid.batteries:
        parts.append(reference_section("battery", bat.id, {
            "bus": bat.bus,
            "sc_peak_current_a": bat.sc_peak_current,
            "sc_time_constant_s": bat.sc_time_constant,
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
        parts.append(reference_section("converter", c.id, keys))
    for l in grid.loads:
        parts.append(reference_section("load", l.id, {
            "bus": l.bus, "rated_kva": l.rated_kva, "pf": l.power_factor,
            "motor_fraction": l.motor_fraction,
            "locked_rotor_multiplier": l.locked_rotor_multiplier,
            "xr_ratio": l.xr_ratio,
        }))
    for br in grid.branches:
        parts.append(reference_section("branch", br.id, {
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
        parts.append(reference_section("breaker", bk.id, keys))
    for f in grid.fuses:
        parts.append(reference_section("fuse", f.id, {
            "element": f.element, "i2t_total_clearing": f.i2t_total_clearing,
        }))
    return "\n\n".join(parts) + "\n"


def reference_find(items, item_id, kind):
    for x in items:
        if x.id == item_id:
            return x
    raise InputError(f"unknown {kind} {item_id!r}")


def reference_element_breaker(grid, element_id):
    for b in grid.breakers:
        if element_id in (b.from_element, b.to_element):
            other = b.to_element if b.from_element == element_id else b.from_element
            if other in grid.bus_ids():
                return b
    return None


def reference_with_breaker_states(grid, states):
    unknown = set(states) - {b.id for b in grid.breakers}
    if unknown:
        raise InputError(f"unknown breakers {sorted(unknown)}")
    new = tuple(
        replace(b, closed=states.get(b.id, b.closed)) for b in grid.breakers
    )
    return replace(grid, breakers=new)


def reference_islands(grid, kind):
    ids = [b.id for b in grid.buses if b.kind == kind]
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    id_set = set(ids)
    edges = []
    for br in grid.branches:
        if br.from_bus in id_set and br.to_bus in id_set:
            edges.append((br.from_bus, br.to_bus))
    for bk in grid.breakers:
        if bk.closed and bk.from_element in id_set and bk.to_element in id_set:
            edges.append((bk.from_element, bk.to_element))
    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), set()).add(i)
    return sorted(groups.values(), key=lambda s: sorted(s)[0])


def reference_island_of(grid, bus_id):
    kind = grid.bus(bus_id).kind
    for isl in reference_islands(grid, kind):
        if bus_id in isl:
            return isl
    raise InputError(f"bus {bus_id!r} not in any island")


def reference_build_ac_networks(grid):
    nets = []
    for island in reference_islands(grid, "ac"):
        parent = {b: b for b in island}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for bk in grid.breakers:
            if bk.closed and bk.from_element in parent and bk.to_element in parent:
                parent[find(bk.from_element)] = find(bk.to_element)
        groups = {}
        for b in island:
            groups.setdefault(find(b), set()).add(b)
        nodes = [frozenset(g) for g in sorted(groups.values(), key=lambda s: sorted(s)[0])]
        node_of = {b: i for i, g in enumerate(nodes) for b in g}
        vbase = [grid.bus(sorted(g)[0]).nominal_voltage for g in nodes]
        freqs = sorted({grid.bus(b).frequency for b in island} - {None})
        if len(freqs) > 1:
            raise ValueError(f"island at {sorted(island)[0]} mixes "
                             f"frequencies {freqs}")
        freq = freqs[0] if freqs else 60.0

        n = len(nodes)
        y = np.zeros((n, n), dtype=complex)
        for br in grid.branches:
            if br.from_bus in node_of and br.to_bus in node_of:
                i, k = node_of[br.from_bus], node_of[br.to_bus]
                if i == k:
                    continue
                zb = vbase[i] ** 2 / (powerflow.S_BASE_KVA * 1e3)
                yline = 1.0 / complex(br.resistance_ohm / zb, br.reactance_ohm / zb)
                y[i, i] += yline
                y[k, k] += yline
                y[i, k] -= yline
                y[k, i] -= yline
        nets.append((nodes, node_of, y, vbase, freq))
    return nets


def reference_trip_time(curve, current):
    if current < 0:
        raise ValueError("current must be >= 0")
    candidates = []
    st = curve.short_time
    if current > st.pickup:
        candidates.append((st.delay, "short_time"))
    lt = curve.long_time
    if current > lt.pickup:
        if lt.kind == "definite":
            candidates.append((lt.delay, "long_time"))
        else:
            m = current / lt.pickup
            candidates.append((lt.delay / (m * m - 1.0), "long_time"))
    if not candidates:
        return None
    return float(min(t for t, _ in candidates))


def reference_trip_cause(curve, current):
    st = curve.short_time
    best = (math.inf, "none")
    if current > st.pickup:
        best = (st.delay, "short_time")
    lt = curve.long_time
    if current > lt.pickup:
        t = (lt.delay if lt.kind == "definite"
             else lt.delay / ((current / lt.pickup) ** 2 - 1.0))
        if t < best[0]:
            best = (t, "long_time")
    return best[1]


def reference_jacobian(g, b, v, theta, p_calc, q_calc, nonslack, pq):
    th_ik = theta[:, None] - theta[None, :]
    gc = g * np.cos(th_ik) + b * np.sin(th_ik)
    gs = g * np.sin(th_ik) - b * np.cos(th_ik)

    npq, nns = len(pq), len(nonslack)
    jac = np.zeros((nns + npq, nns + npq))
    # dP/dtheta, dP/dV
    for r, i in enumerate(nonslack):
        for c, k in enumerate(nonslack):
            jac[r, c] = (v[i] * v[k] * gs[i, k] if i != k
                         else -q_calc[i] - b[i, i] * v[i] ** 2)
        for c, k in enumerate(pq):
            jac[r, nns + c] = (v[i] * gc[i, k] if i != k
                               else p_calc[i] / v[i] + g[i, i] * v[i])
    # dQ/dtheta, dQ/dV
    for r, i in enumerate(pq):
        for c, k in enumerate(nonslack):
            jac[nns + r, c] = (-v[i] * v[k] * gc[i, k] if i != k
                               else p_calc[i] - g[i, i] * v[i] ** 2)
        for c, k in enumerate(pq):
            jac[nns + r, nns + c] = (v[i] * gs[i, k] if i != k
                                     else q_calc[i] / v[i] - b[i, i] * v[i])
    return jac


# ---- tokenizer ----------------------------------------------------------

# whitespace inside a line, including non-ASCII spaces that str.isspace
# and the regex \s both accept; line breaks that str.splitlines splits on
SPACES = [" ", "\t", "\xa0", "\u2003", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
# free text cannot spell nan, inf or an overflowing exponent: the reference
# reads those as numbers, the tokenizer rejects them (tested separately)
FREE = " \t#=[]abAB01_.-+\xa0"

spaces = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
free_text = st.text(st.sampled_from(list(FREE)), max_size=12)
comment_tail = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from(SPACES), free_text).map(lambda t: t[0] + "#" + t[1]),
    free_text.map(lambda t: "#" + t),          # no space before: not a comment
)
ids = st.sampled_from(["DG#01", "A", "B_2", "#x", "x#", "CB_TIE_PS_MID"])
values = st.one_of(
    ids,
    st.sampled_from(["true", "false", "True", "690", "-1.5e3", "0.80", "1_000",
                     "ac", "nano", "info", "inferno", "a b", "x = y", "", "#"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    free_text,
)


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(["blank", "comment", "header", "kv", "kv",
                                 "free"]))
    lead = draw(spaces)
    if kind == "blank":
        return lead
    if kind == "comment":
        return lead + "#" + draw(free_text)
    if kind == "header":
        name = draw(st.sampled_from(["bus", "generator", "grid", "Bus", "x_y"]))
        sid = draw(st.one_of(st.just(""), ids.map(lambda i: " " + i),
                             ids.map(lambda i: "\t" + i)))
        close = draw(st.sampled_from(["]", "", "] x"]))
        return lead + "[" + name + sid + close + draw(comment_tail)
    if kind == "kv":
        key = draw(st.sampled_from(["kind", "voltage_v", "bus", "a#b", "", "k k"]))
        return (lead + key + draw(spaces) + "=" + draw(spaces) + draw(values)
                + draw(comment_tail))
    return lead + draw(free_text)


@st.composite
def grid_texts(draw):
    # a well-formed first header, most of the time, so that key lines parse
    first = draw(st.sampled_from(["", "[bus B]", "[x_y DG#01]  # c"]))
    body = [first] + draw(st.lists(lines(), max_size=12))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(body),
                           max_size=len(body)))
    return "".join(line + br for line, br in zip(body, breaks))


def outcome(read, text):
    try:
        sections = read(text)
    except GridParseError as exc:
        return ("error", exc.line, str(exc))
    # type-tagged, so a value that stops being text shows
    return ("ok", [(kind, sid, lineno, [(k, type(v), v) for k, v in keys.items()])
                   for kind, sid, lineno, keys in sections])


@settings(deadline=None, max_examples=400)
@given(grid_texts())
def test_tokenizer_matches_reference(text):
    assert outcome(read_sections, text) == outcome(reference_read_sections, text)


@pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "+inf", "-Infinity",
                                   "INF", "infinity", "1e400", "-1e999"])
def test_non_finite_numbers_are_parse_errors(value):
    text = f"[bus B]\nkind = ac\nvoltage_v = {value}\n"
    with pytest.raises(GridParseError, match="non-finite") as exc:
        parse_grid(text)
    assert exc.value.line == 3


@pytest.mark.parametrize("sid", ["nan", "NaN", "inf", "INF", "Infinity", "1e400"])
def test_non_finite_ids_are_parse_errors(sid):
    text = f"[bus B]\nkind = ac\nvoltage_v = 690\n\n[bus {sid}]\nkind = ac\n"
    with pytest.raises(GridParseError, match="non-finite") as exc:
        parse_grid(text)
    assert exc.value.line == 5


def test_words_near_non_finite_stay_strings():
    sections = read_sections("[x]\na = nano\nb = info\nc = Infinity2\n")
    assert sections[0][3] == {"a": "nano", "b": "info", "c": "Infinity2"}


def test_validate_reports_non_finite_fields():
    grid = builtin_fixture("ac_vessel")
    load = replace(grid.loads[0], rated_kva=math.nan)
    gen = grid.generators[0]
    gen = replace(gen, dynamics=replace(gen.dynamics, xd=math.inf))
    bad = replace(grid, loads=(load,) + grid.loads[1:],
                  generators=(gen,) + grid.generators[1:])
    found = {(v.element_id, v.message) for v in validate(bad)
             if v.rule == "domain"}
    assert found == {
        (load.id, "need rated_kva in (0, inf), got rated_kva = nan"),
        (gen.id, "need dynamics.xd in (-inf, inf), got dynamics.xd = inf")}


# ---- indexed lookups ------------------------------------------------------

# one small id pool for every kind, so ids repeat within a kind and across
# kinds, and breakers join buses and elements in either orientation
POOL = ["A", "B", "C", "D#1"]
pool_ids = st.sampled_from(POOL)


@st.composite
def grids(draw):
    def many(build, max_size=4):
        return tuple(draw(st.lists(st.builds(build, pool_ids, pool_ids),
                                   max_size=max_size)))

    return GridModel(
        "g",
        buses=tuple(Bus(i, "ac", 690.0, 60.0)
                    for i in draw(st.lists(pool_ids, max_size=4))),
        generators=many(lambda i, bus: GeneratorSpec(
            i, bus, 1.0, 1.0, 690.0, 1.0, 60.0, 1.0, 720.0, 1.0)),
        batteries=many(lambda i, bus: BatterySource(i, bus, 1.0, 1.0)),
        converters=many(lambda i, bus: ConverterSpec(i, bus, "inverter", 1.0, 1.0)),
        loads=many(lambda i, bus: LoadSpec(i, bus, 1.0, 1.0, 0.0)),
        breakers=tuple(draw(st.lists(st.builds(
            lambda i, a, b, closed: BreakerSpec(i, a, b, closed=closed),
            pool_ids, pool_ids, pool_ids, st.booleans()), max_size=6))),
    )


def _lookup(find, *args):
    try:
        return ("ok", id(find(*args)))
    except InputError as exc:
        return ("error", str(exc))


@settings(deadline=None, max_examples=300)
@given(grids())
def test_indexed_lookups_match_linear_scans(grid):
    kinds = {"bus": grid.buses, "generator": grid.generators,
             "breaker": grid.breakers, "load": grid.loads,
             "converter": grid.converters, "element": tuple(grid.elements())}
    for item_id in POOL + ["missing"]:
        for kind, items in kinds.items():
            assert _lookup(getattr(grid, kind), item_id) == \
                _lookup(reference_find, items, item_id, kind), (kind, item_id)
        assert grid.element_breaker(item_id) is \
            reference_element_breaker(grid, item_id)


@settings(deadline=None, max_examples=300)
@given(grids(), st.dictionaries(st.sampled_from(POOL + ["missing"]),
                                st.booleans(), max_size=3))
def test_with_breaker_states_matches_reference(grid, states):
    try:
        expected = reference_with_breaker_states(grid, states)
    except InputError as exc:
        with pytest.raises(InputError, match="^unknown breakers") as raised:
            grid.with_breaker_states(states)
        assert str(raised.value) == str(exc)
        return
    new = grid.with_breaker_states(states)
    assert new == expected
    for old, b in zip(grid.breakers, new.breakers):
        # breakers whose state does not change are carried over as they are
        assert (b is old) == (b.closed == old.closed)


# ---- islands and AC networks -------------------------------------------------


@st.composite
def networks(draw):
    """`grids()` with AC and DC buses of two voltages and frequencies, and
    cables between them, so islands, supernodes and Y all vary."""
    grid = draw(grids())
    buses = tuple(replace(b, kind=draw(st.sampled_from(["ac", "ac", "dc"])),
                          nominal_voltage=draw(st.sampled_from([690.0, 440.0])),
                          frequency=draw(st.sampled_from([60.0, 50.0, None])))
                  for b in grid.buses)
    impedance = st.floats(1e-4, 1.0)
    branches = tuple(draw(st.lists(st.builds(
        CableBranch, pool_ids, pool_ids, pool_ids, impedance, impedance),
        max_size=5)))
    return replace(grid, buses=buses, branches=branches)


@settings(deadline=None, max_examples=300)
@given(networks())
def test_islands_and_networks_match_reference(grid):
    for kind in ("ac", "dc", "xx"):
        islands = grid.islands(kind)
        assert all(type(isl) is frozenset for isl in islands)
        assert [set(isl) for isl in islands] == reference_islands(grid, kind)
    for bus_id in POOL + ["missing"]:
        try:
            expected = ("ok", reference_island_of(grid, bus_id))
        except InputError as exc:
            expected = ("error", str(exc))
        try:
            got = ("ok", set(grid.island_of(bus_id)))
        except InputError as exc:
            got = ("error", str(exc))
        assert got == expected, bus_id
    try:
        expected = reference_build_ac_networks(grid)
    except ValueError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            powerflow.build_ac_networks(grid)
        return
    nets = powerflow.build_ac_networks(grid)
    assert len(nets) == len(expected)
    for net, (nodes, node_of, y, vbase, freq) in zip(nets, expected):
        assert net.nodes == nodes
        assert net.node_of == node_of
        assert net.vbase == vbase
        assert net.frequency == freq
        assert np.array_equal(net.ybus, y)


def test_fixture_networks_match_reference():
    for grid in JACOBIAN_CASES.values():
        for net, (nodes, node_of, y, vbase, freq) in zip(
                powerflow.build_ac_networks(grid),
                reference_build_ac_networks(grid), strict=True):
            assert (net.nodes, net.node_of, net.vbase, net.frequency) == \
                (nodes, node_of, vbase, freq)
            assert np.array_equal(net.ybus, y)


# ---- trip curves -------------------------------------------------------------

delays = st.sampled_from([0.05, 0.1, 0.216, 1.0, 10.0]) | st.floats(1e-3, 100.0)
pickups = st.sampled_from([1000.0, 2000.0, 5000.0]) | st.floats(1.0, 1e5)


@settings(deadline=None, max_examples=500)
@given(pickups, st.sampled_from(["definite", "inverse"]), delays, pickups,
       delays, st.sampled_from([0.0, 999.0, 1000.0, 2000.0, 5000.0, 32000.0])
       | st.floats(0.0, 1e6))
@example(1000.0, "definite", 0.216, 5000.0, 0.216, 32000.0)   # a tie
def test_trip_time_matches_reference(lt_pickup, lt_kind, lt_delay, st_pickup,
                                     st_delay, current):
    curve = TccCurve(LongTimeElement(lt_pickup, lt_kind, lt_delay),
                     ShortTimeElement(st_pickup, st_delay))
    t = reference_trip_time(curve, current)
    expected = None if t is None else (t, reference_trip_cause(curve, current))
    assert trip_time(curve, current) == expected


# ---- round trip --------------------------------------------------------------

numbers = st.floats(allow_nan=False, allow_infinity=False)
optional = lambda s: st.none() | s  # noqa: E731
# dc-link values are written in uF, mOhm, uH: keep the ones that come back
scaled = lambda k, back: numbers.filter(lambda x: x * k * back == x)  # noqa: E731


# ids that read as numbers must keep their text: `bus = 12` names [bus 12]
NUMERIC_IDS = ["12", "007", "1e3", "1_000"]


@st.composite
def file_grids(draw, ids=pool_ids):
    """Grids whose references resolve, with every optional field drawn, so
    the serializer writes every key it knows."""
    bus_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    on_bus = st.sampled_from(bus_ids)
    buses = tuple(Bus(i, draw(st.sampled_from(["ac", "dc"])), draw(numbers),
                      draw(optional(numbers))) for i in bus_ids)
    dynamics = st.builds(
        GeneratorDynamicParams, numbers, numbers, numbers, numbers, numbers,
        optional(numbers), optional(numbers), numbers, numbers, st.booleans())
    generators = draw(st.lists(st.builds(
        GeneratorSpec, st.sampled_from(["G1", "G#2"]), on_bus, *[numbers] * 8,
        optional(dynamics)), max_size=2))
    batteries = draw(st.lists(st.builds(
        BatterySource, st.just("BAT"), on_bus, numbers, numbers), max_size=1))
    dc_link = st.builds(CapacitorBranch, scaled(1e6, 1e-6), scaled(1e3, 1e-3),
                        scaled(1e6, 1e-6), numbers)
    converters = draw(st.lists(st.builds(
        ConverterSpec, st.sampled_from(["CV1", "CV2"]), on_bus,
        st.sampled_from(CONVERTER_KINDS), numbers, numbers, numbers,
        optional(on_bus), numbers, optional(dc_link)), max_size=2))
    loads = draw(st.lists(st.builds(
        LoadSpec, st.sampled_from(["L1", "L2"]), on_bus, *[numbers] * 4,
        optional(numbers)), max_size=2))
    branches = draw(st.lists(st.builds(
        CableBranch, st.just("CBL"), on_bus, on_bus, numbers, numbers,
        st.booleans()), max_size=2))
    ends = st.sampled_from(bus_ids + [e.id for e in (
        *generators, *batteries, *converters, *loads)])
    tcc = st.builds(
        TccCurve,
        st.builds(LongTimeElement, numbers, st.sampled_from(["definite", "inverse"]),
                  numbers),
        st.builds(ShortTimeElement, numbers, numbers), numbers)
    breakers = draw(st.lists(st.builds(
        BreakerSpec, st.sampled_from(["CB1", "CB2"]), ends, ends, optional(tcc),
        st.booleans()), max_size=3))
    fuses = draw(st.lists(st.builds(
        FuseSpec, st.just("F1"), ends, numbers), max_size=1))
    return GridModel("g", buses, tuple(branches), tuple(generators),
                     tuple(batteries), tuple(converters), tuple(loads),
                     tuple(breakers), tuple(fuses))


@settings(deadline=None, max_examples=150)
@given(file_grids(st.sampled_from(POOL + NUMERIC_IDS)))
def test_parse_serialize_round_trip(grid):
    assert parse_grid(serialize_grid(grid)) == grid


def _matches_reference(grid):
    text = serialize_grid(grid)
    assert text == reference_serialize_grid(grid)
    assert parse_grid(text) == reference_parse_grid(text)


@settings(deadline=None, max_examples=150)
@given(file_grids())
def test_parse_and_serialize_match_reference(grid):
    _matches_reference(grid)


@pytest.mark.parametrize("name", ["ac_vessel", "dc_vessel"])
def test_fixture_files_match_reference(name):
    _matches_reference(builtin_fixture(name))


def test_datasheet_time_constants_match_reference():
    text = serialize_grid(builtin_fixture("ac_vessel"))
    quoted = text.replace("td0_t_s = 3.50", "td_t_s = 0.30").replace(
        "td0_st_s = 0.04", "td_st_s = 0.02")
    grid = parse_grid(quoted)
    assert grid == reference_parse_grid(quoted)
    d = grid.generator("DG#01").dynamics
    assert (d.td0_t, d.td0_st) == convert_time_constants(
        1.8, 0.28, 0.18, 0.30, 0.02)


# ---- generated grids: validate and the engines ---------------------------------


@settings(deadline=None, max_examples=200)
@given(file_grids(st.sampled_from(POOL + NUMERIC_IDS)) | networks())
@example(GridModel("g", buses=(Bus("A", "ac", 690.0, 60.0),), generators=(
    GeneratorSpec("G", "A", 1.0, 1.0, 0.0, 1.0, 60.0, 1.0, 720.0, 1.0),)))
@example(GridModel("g", buses=(Bus("A", "ac", 690.0, 60.0),
                               Bus("B", "ac", 690.0, None)),
                   branches=(CableBranch("C", "A", "B", 0.1, 0.1),)))
def test_validate_never_raises(grid):
    validate(grid)


ENGINE_FIXTURES = {name: builtin_fixture(name)
                   for name in ("ac_vessel", "dc_vessel")}


@st.composite
def operated_grids(draw):
    """A built-in vessel with drawn breaker states and load scales, a bus
    and an element terminal to fault."""
    grid = ENGINE_FIXTURES[draw(st.sampled_from(sorted(ENGINE_FIXTURES)))]
    states = {b.id: draw(st.booleans()) for b in grid.breakers}
    scale = {l.id: draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
             for l in grid.loads}
    bus = draw(st.sampled_from(grid.buses))
    element = draw(st.sampled_from([g.id for g in grid.generators]))
    return grid.with_breaker_states(states), scale, bus, element


@settings(deadline=None, max_examples=60)
@given(operated_grids())
def test_engines_raise_only_grid_errors(case):
    """On grids that pass validate, an engine fails with its own typed
    error (all GridError subclasses), never an arbitrary exception."""
    grid, scale, bus, element = case
    assert validate(grid).ok()
    for run in (lambda: solve_dc_balance(grid),
                lambda: dc_fault_summary(grid, bus.id) if bus.kind == "dc"
                else fault_summary(grid, bus.id, solve_ac_powerflow(
                    grid, powerflow.SteadyState(load_scale=scale))),
                lambda: sequence_of_operations(
                    grid, fault_summary(grid, grid.element(element).bus,
                                        solve_ac_powerflow(grid)),
                    element, zsi_enabled=True)):
        try:
            run()
        except GridError:
            pass


# ---- Jacobian ---------------------------------------------------------------


def sectioned(grid, extra, lv_gens):
    """`grid` (the AC vessel) with `extra` busbar sections between AC_MID and
    AC_SB, each with a genset, a feeder cable to a 440 V sub-bus and a load;
    with `lv_gens` the genset sits on the sub-bus, which makes it a PV node."""
    gen, load = grid.generator("DG#05"), grid.load("LOAD440_PS")
    feeder = next(b for b in grid.branches if b.id == "FDR_LV_PS")
    tie = grid.breaker("CB_TIE_MID_SB")
    buses, gens, loads, branches = [], [], [], []
    breakers = [b for b in grid.breakers if b.id != tie.id]
    prev = "AC_MID"
    for k in range(1, extra + 1):
        sec, lv = f"AC_M{k}", f"LV_M{k}"
        buses += [replace(grid.bus("AC_MID"), id=sec), replace(grid.bus("LV_PS"), id=lv)]
        gens.append(replace(gen, id=f"DG#M{k}", bus=lv if lv_gens else sec))
        loads.append(replace(load, id=f"LOAD_M{k}", bus=lv,
                             rated_kva=load.rated_kva * (0.4 + 0.1 * k)))
        branches.append(replace(feeder, id=f"FDR_M{k}", from_bus=sec, to_bus=lv,
                                resistance_ohm=feeder.resistance_ohm * (1 + 0.05 * k)))
        breakers.append(replace(tie, id=f"CB_TIE_M{k}", from_element=prev,
                                to_element=sec))
        prev = sec
    breakers.append(replace(tie, id="CB_TIE_MSB", from_element=prev,
                            to_element="AC_SB"))
    return replace(grid, buses=grid.buses + tuple(buses),
                   generators=grid.generators + tuple(gens),
                   loads=grid.loads + tuple(loads),
                   branches=grid.branches + tuple(branches),
                   breakers=tuple(breakers))


def jacobian_cases():
    ac, dc = builtin_fixture("ac_vessel"), builtin_fixture("dc_vessel")
    cases = {"ac_vessel": ac, "dc_vessel": dc,
             "two_bus": two_bus_grid(0.6, 0.3),
             "ps_island": ac.with_breaker_states({b: False for b in PS_ISLAND_OPEN}),
             "dp_island": ac.with_breaker_states({b: False for b in DP_ISLAND_OPEN}),
             "ties_open": ac.with_breaker_states(
                 {"CB_TIE_PS_MID": False, "CB_TIE_MID_SB": False})}
    for extra in (3, 9):
        for lv_gens in (False, True):
            grid = sectioned(ac, extra, lv_gens)
            cases[f"s{extra}{'_lv' if lv_gens else ''}"] = grid
            cases[f"s{extra}{'_lv' if lv_gens else ''}_split"] = \
                grid.with_breaker_states({"CB_TIE_M1": False})
    return cases


JACOBIAN_CASES = jacobian_cases()


@pytest.mark.parametrize("grid", JACOBIAN_CASES.values(), ids=JACOBIAN_CASES)
def test_jacobian_matches_per_entry_reference(monkeypatch, grid):
    assert validate(grid).ok()
    calls = []
    original = powerflow._jacobian

    def recording(g, b, v, theta, p_calc, q_calc, select):
        jac = original(g, b, v, theta, p_calc, q_calc, select)
        calls.append((g, b, v.copy(), theta.copy(), p_calc, q_calc, select, jac))
        return jac

    monkeypatch.setattr(powerflow, "_jacobian", recording)
    solve_ac_powerflow(grid)
    # an island of one node takes no Newton step (all of dc_vessel's)
    assert bool(calls) == any(len(net.nodes) > 1
                              for net in powerflow.build_ac_networks(grid))
    for g, b, v, theta, p_calc, q_calc, select, jac in calls:
        n = len(v)
        unknowns = select[0].ravel()
        nonslack = [int(u) for u in unknowns if u < n]
        pq = [int(u) - n for u in unknowns if u >= n]
        expected = reference_jacobian(g, b, v, theta, p_calc, q_calc, nonslack, pq)
        assert np.array_equal(jac, expected)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_jacobian_matches_reference_on_random_networks(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # voltages whose pow(v, 2) and v * v differ in the last bit come first
    v = np.concatenate([[0.8266562371922701, 0.7394425567978894],
                        rng.uniform(0.9, 1.1, n)])[:n]
    theta = rng.uniform(-0.3, 0.3, n)
    s = v * np.exp(1j * theta) * np.conj(y @ (v * np.exp(1j * theta)))
    slack = int(rng.integers(n))
    pq = [i for i in range(n) if i != slack and rng.random() < 0.7]
    nonslack = [i for i in range(n) if i != slack]
    unknowns = np.array(nonslack + [n + i for i in pq], dtype=int)
    jac = powerflow._jacobian(y.real, y.imag, v, theta, s.real, s.imag,
                              np.ix_(unknowns, unknowns))
    assert np.array_equal(jac, reference_jacobian(
        y.real, y.imag, v, theta, s.real, s.imag, nonslack, pq))
