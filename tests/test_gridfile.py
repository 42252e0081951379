"""The grid-file tokenizer, the GridModel id indexes and the power-flow
Jacobian against the per-line, linear-scan and per-entry code they replace.

Each reference below is the earlier implementation, unchanged apart from
its name and the parameters it needs to be called on its own: the fast
versions must give the same results, the same errors and the same line
numbers, bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from vesselstudy import builtin_fixture, parse_grid, solve_ac_powerflow, validate
from vesselstudy import powerflow
from vesselstudy.grid import (
    BatterySource,
    BreakerSpec,
    Bus,
    ConverterSpec,
    GeneratorSpec,
    GridLookupError,
    GridModel,
    LoadSpec,
)
from vesselstudy.gridfile import (
    _SECTION_RE,
    GridParseError,
    read_sections,
)

from helpers import DP_ISLAND_OPEN, PS_ISLAND_OPEN, two_bus_grid

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


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
            current = {}
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
        current[key] = reference_convert(value)
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


def reference_find(items, item_id, kind):
    for x in items:
        if x.id == item_id:
            return x
    raise GridLookupError(f"unknown {kind} {item_id!r}")


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
        raise GridLookupError(f"unknown breakers {sorted(unknown)}")
    new = tuple(
        replace(b, closed=states.get(b.id, b.closed)) for b in grid.breakers
    )
    return replace(grid, breakers=new)


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
    kind = draw(st.sampled_from(["blank", "comment", "header", "kv", "free"]))
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
    body = draw(st.lists(lines(), max_size=12))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(body),
                           max_size=len(body)))
    return "".join(line + br for line, br in zip(body, breaks))


def outcome(read, text):
    try:
        sections = read(text)
    except GridParseError as exc:
        return ("error", exc.line, str(exc))
    # type-tagged, because True == 1.0 would hide a changed conversion
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
             if v.rule == "non-finite"}
    assert found == {(load.id, "rated_kva = nan is not finite"),
                     (gen.id, "dynamics.xd = inf is not finite")}


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
        batteries=many(lambda i, bus: BatterySource(i, bus, 1.0, 1.0, 1.0)),
        converters=many(lambda i, bus: ConverterSpec(i, bus, "inverter", 1.0, 1.0)),
        loads=many(lambda i, bus: LoadSpec(i, bus, 1.0, 1.0, 1.0, 0.0)),
        breakers=tuple(draw(st.lists(st.builds(
            lambda i, a, b, closed: BreakerSpec(i, a, b, closed=closed),
            pool_ids, pool_ids, pool_ids, st.booleans()), max_size=6))),
    )


def _lookup(find, *args):
    try:
        return ("ok", id(find(*args)))
    except GridLookupError as exc:
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
    except GridLookupError as exc:
        with pytest.raises(GridLookupError) as raised:
            grid.with_breaker_states(states)
        assert str(raised.value) == str(exc)
        return
    new = grid.with_breaker_states(states)
    assert new == expected
    for old, b in zip(grid.breakers, new.breakers):
        # breakers whose state does not change are carried over as they are
        assert (b is old) == (b.closed == old.closed)


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
