import ast
import dataclasses
import math
from pathlib import Path

import pytest

from vesselstudy import (
    GridModel,
    GridParseError,
    builtin_fixture,
    parse_grid,
    serialize_grid,
    validate,
)
from vesselstudy.cli import _Study
from vesselstudy.grid import BreakerSpec, InputError

DG01_SECTION = """
[bus MAIN]
kind = ac
voltage_v = 690
frequency_hz = 60

[generator DG#01]
bus = MAIN
rated_kva = 2395
rated_kw = 1916
voltage_v = 690
current_a = 2004
frequency_hz = 60
pf = 0.80
rpm = 720
winding_resistance_mohm = 1.02
"""

DC_GEN_SECTION = """
[bus GEN1]
kind = ac
voltage_v = 400
frequency_hz = 50

[generator GEN#01]
bus = GEN1
rated_kva = 582
rated_kw = 465.6
voltage_v = 400
current_a = 840
frequency_hz = 50
pf = 0.80
rpm = 1500
winding_resistance_mohm = 3.4
"""


def test_parse_main_diesel_generator():
    grid = parse_grid(DG01_SECTION)
    g = grid.generator("DG#01")
    assert g.rated_kva == 2395.0
    assert g.rated_kw == 1916.0
    assert g.voltage == 690.0
    assert g.rated_current == 2004.0
    assert g.power_factor == 0.80
    assert g.speed_rpm == 720.0
    assert g.winding_resistance_mohm == 1.02
    assert validate(grid).ok()


def test_parse_dc_grid_generator():
    grid = parse_grid(DC_GEN_SECTION)
    g = grid.generator("GEN#01")
    assert g.rated_kva == 582.0
    assert g.rated_current == 840.0
    assert g.speed_rpm == 1500.0
    assert validate(grid).ok()


def test_dangling_bus_reference_is_a_parse_error():
    text = DG01_SECTION.replace("bus = MAIN", "bus = NOPE", 1)
    with pytest.raises(GridParseError, match="dangling"):
        parse_grid(text)


def test_syntax_error_reports_line_number():
    text = "[bus B1]\nkind = ac\nvoltage_v 690\n"
    with pytest.raises(GridParseError, match="line 3"):
        parse_grid(text)


def test_unknown_section_kind():
    with pytest.raises(GridParseError, match="unknown section kind"):
        parse_grid("[widget W1]\nfoo = 1\n")


def test_missing_required_key():
    with pytest.raises(GridParseError, match="missing required key"):
        parse_grid("[bus B1]\nkind = ac\n")


def test_comments_do_not_eat_hash_ids():
    text = DG01_SECTION + "\n# full line comment\n[load CR#1]\n" \
        "bus = MAIN  # crane\nrated_kva = 100\npf = 0.75\n" \
        "motor_fraction = 0.8\n"
    grid = parse_grid(text)
    assert grid.load("CR#1").bus == "MAIN"


class TestValidate:
    def test_fixtures_have_no_violations(self, ac_vessel, dc_vessel):
        assert validate(ac_vessel).ok()
        assert validate(dc_vessel).ok()

    def test_kw_kva_pf_mismatch(self):
        # 2395 kVA * 0.80 = 1916 kW, 2000 kW is 4.4 % off the 1 % rule
        text = DG01_SECTION.replace("rated_kw = 1916", "rated_kw = 2000")
        report = validate(parse_grid(text))
        assert any(v.rule == "kw/kva/pf mismatch" for v in report)

    def test_empty_grid(self):
        report = validate(GridModel("nothing"))
        rules = [v.rule for v in report]
        assert rules == ["empty grid"]

    def test_current_rating_mismatch(self):
        text = DG01_SECTION.replace("current_a = 2004", "current_a = 2100")
        report = validate(parse_grid(text))
        assert any(v.rule == "current/kva/voltage mismatch" for v in report)

    def test_reactance_ordering(self):
        grid = parse_grid(DG01_SECTION)
        g = grid.generators[0]
        from dataclasses import replace
        from vesselstudy.grid import GeneratorDynamicParams
        bad = replace(g, dynamics=GeneratorDynamicParams(
            xd=0.2, xd_t=0.3, xd_st=0.1, td0_t=1.0, td0_st=0.01))
        report = validate(replace(grid, generators=(bad,)))
        assert any(v.rule == "reactance ordering" for v in report)

    @pytest.mark.parametrize("branch_id", ["FDR_LV_PS", "AC_PS", "CB_DG01"])
    def test_branch_ids_share_the_one_namespace(self, ac_vessel, branch_id):
        # a second feeder, a branch named as a bus or as a breaker used to
        # validate: no branch id was checked
        from dataclasses import replace
        feeder = next(b for b in ac_vessel.branches if b.id == "FDR_LV_PS")
        grid = replace(ac_vessel, branches=(*ac_vessel.branches,
                                            replace(feeder, id=branch_id)))
        found = [(v.element_id, v.rule) for v in validate(grid)]
        assert found == [(branch_id, "duplicate id")]

    def test_fuse_on_an_undeclared_element_is_a_dangling_reference(
            self, dc_vessel):
        # the grid parser refuses it first; a model built in code is
        # refused here
        from dataclasses import replace
        fuse = replace(dc_vessel.fuses[0], element="NOPE")
        grid = replace(dc_vessel, fuses=(fuse, *dc_vessel.fuses[1:]))
        found = [(v.element_id, v.rule, v.message) for v in validate(grid)]
        assert found == [(fuse.id, "dangling reference",
                          "element 'NOPE' not declared")]

    def test_zero_rating_fails_every_rule_it_enters(self):
        # the rating mismatches compare only ratings inside their domains,
        # so a zero rating fails its domain and enters no other rule
        g = parse_grid(DG01_SECTION).generators[0]
        grid = dataclasses.replace(parse_grid(DG01_SECTION), generators=(
            dataclasses.replace(g, rated_kva=0.0),))
        assert [(v.element_id, v.rule, v.message) for v in validate(grid)] == [
            ("DG#01", "domain", "need rated_kva in (0, inf), got rated_kva = 0.0")]

    @pytest.mark.parametrize("field", ["sc_peak_current", "sc_time_constant"])
    def test_a_battery_without_datasheet_data_is_a_violation(self, dc_vessel,
                                                             field):
        # validate used to raise TypeError comparing None with 0
        grid = dataclasses.replace(dc_vessel, batteries=tuple(
            dataclasses.replace(b, **{field: None}) if b.id == "BAT_PS" else b
            for b in dc_vessel.batteries))
        assert [(v.element_id, v.rule, v.message) for v in validate(grid)] == [
            ("BAT_PS", "domain", f"need {field} in (0, inf), got {field} = None")]

    @pytest.mark.parametrize("fixture, breakers, found", [
        # no engine read a breaker without a bus end, or with one bus at
        # both ends: every study gave the same artifacts with or without it
        ("dc_vessel", [BreakerSpec("CB_X", "CH#01", "INV_BOW1")],
         [("CB_X", "neither CH#01 nor INV_BOW1 is a bus")]),
        ("dc_vessel", [BreakerSpec("CB_X", "DC_PS", "DC_PS")],
         [("CB_X", "both ends are bus DC_PS")]),
        # protect tripped this breaker for a fault on AC_SB, while every
        # other engine kept DG#01 on AC_PS
        ("ac_vessel", [BreakerSpec("CB_DG01", "DG#01", "AC_SB")],
         [("CB_DG01", "DG#01 does not sit on bus AC_SB")]),
        # a converter sits on both its buses
        ("dc_vessel", [BreakerSpec("CB_X", "CH#01", "GEN1_AC")], []),
        # the first breaker declared decided whether CH#01 was online
        ("dc_vessel", [BreakerSpec("CB_CH1_DC", "CH#01", "DC_PS"),
                       BreakerSpec("CB_CH1_AC", "GEN1_AC", "CH#01",
                                   closed=False)],
         [("CB_CH1_AC", "CH#01 already has breaker CB_CH1_DC")]),
        ("dc_vessel", [BreakerSpec("CB_CH1_AC", "CH#01", "GEN1_AC",
                                   closed=False),
                       BreakerSpec("CB_CH1_DC", "CH#01", "DC_PS")],
         [("CB_CH1_DC", "CH#01 already has breaker CB_CH1_AC")]),
    ])
    def test_breaker_ends(self, fixture, breakers, found):
        """A breaker joins two buses, or an element to a bus it sits on,
        and is that element's only breaker."""
        grid = builtin_fixture(fixture)
        ids = {b.id for b in breakers}
        grid = dataclasses.replace(grid, breakers=tuple(
            b for b in grid.breakers if b.id not in ids) + tuple(breakers))
        assert [(v.element_id, v.message) for v in validate(grid)
                if v.rule == "breaker ends"] == found
        assert validate(grid).ok() == (not found)

    @pytest.mark.parametrize("bus_id", [0, None])
    def test_an_id_that_is_not_text_is_a_violation(self, ac_vessel, bus_id):
        # validate used to raise TypeError sorting the islands by least id
        first = ac_vessel.buses[0]
        grid = dataclasses.replace(ac_vessel, buses=(
            dataclasses.replace(first, id=bus_id), *ac_vessel.buses[1:]))
        assert [(v.element_id, v.rule, v.message) for v in validate(grid)] == [
            (bus_id, "id", f"id {bus_id!r} is not text")]

    def test_dc_bus_frequency_and_grid_inverter_set_point_are_refused(
            self, dc_vessel):
        # no engine read either: the artifacts were the same without them
        grid = dataclasses.replace(dc_vessel, buses=tuple(
            dataclasses.replace(b, frequency=50.0) if b.id == "DC_PS" else b
            for b in dc_vessel.buses), converters=tuple(
            dataclasses.replace(c, p_set_kw=120.0) if c.id == "GINV_SB" else c
            for c in dc_vessel.converters))
        assert [(v.element_id, v.rule, v.message) for v in validate(grid)] == [
            ("DC_PS", "frequency", "DC bus with a frequency of 50.0 Hz"),
            ("GINV_SB", "set-point",
             "a grid_inverter draws nothing, got p_set_kw = 120.0")]


class TestFixtures:
    def test_ac_vessel_generator_set(self, ac_vessel):
        assert len(ac_vessel.generators) == 5
        assert ac_vessel.generator("DG#02").rated_kva == 3213.0
        assert ac_vessel.generator("DG#05").speed_rpm == 1800.0

    def test_ac_vessel_composition(self, ac_vessel):
        assert sum(l.rated_kva for l in ac_vessel.loads
                   if l.id.startswith("CRANE")) == pytest.approx(746.7)
        crane = ac_vessel.load("CRANE_PS")
        assert crane.motor_fraction == 0.80
        assert crane.power_factor == 0.75
        inv = [c for c in ac_vessel.converters if c.id.startswith("INV")]
        assert [c.rated_kw for c in inv] == [1500.0, 1500.0]
        bows = [c for c in ac_vessel.converters if c.id.startswith("THR_BOW")]
        assert len(bows) == 3 and all(c.rated_kw == 1000.0 for c in bows)
        props = [c for c in ac_vessel.converters if "PROP" in c.id]
        assert len(props) == 2 and all(c.rated_kw == 2100.0 for c in props)
        ties = [b for b in ac_vessel.breakers if "TIE" in b.id]
        assert len(ties) == 2

    def test_dc_vessel_generators_identical(self, dc_vessel):
        gens = dc_vessel.generators
        assert len(gens) == 3
        assert all(g.winding_resistance_mohm == 3.4 for g in gens)
        assert all(g.rated_kva == 582.0 for g in gens)
        chargers = [c for c in dc_vessel.converters if c.kind == "charger"]
        assert [c.rated_current for c in chargers] == [850.0] * 3

    def test_dc_vessel_batteries_direct(self, dc_vessel):
        for bat in dc_vessel.batteries:
            assert dc_vessel.bus(bat.bus).kind == "dc"
            assert bat.sc_peak_current == 14900.0
            assert bat.sc_time_constant == pytest.approx(0.16e-3)

    def test_unknown_fixture_name(self):
        with pytest.raises(InputError, match="unknown fixture 'battleship'"):
            builtin_fixture("battleship")

    def test_rated_current_consistency(self, ac_vessel, dc_vessel):
        for g in ac_vessel.generators + dc_vessel.generators:
            expect = g.rated_kva * 1e3 / (math.sqrt(3) * g.voltage)
            assert abs(g.rated_current - expect) / expect < 0.01

    def test_synthetic_dynamics_flagged(self, ac_vessel, dc_vessel):
        for g in ac_vessel.generators + dc_vessel.generators:
            assert g.dynamics.synthetic


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ac_vessel", "dc_vessel"])
    def test_fixture_round_trip(self, name):
        grid = builtin_fixture(name)
        assert parse_grid(serialize_grid(grid)) == grid

    def test_serializer_pads_floats(self, ac_vessel):
        text = serialize_grid(ac_vessel)
        assert "voltage_v = 690.00" in text
        assert "winding_resistance_mohm = 1.02" in text

    def test_breaker_states_round_trip(self, ac_vessel):
        grid = ac_vessel.with_breaker_states({"CB_TIE_PS_MID": False})
        back = parse_grid(serialize_grid(grid))
        assert not back.breaker("CB_TIE_PS_MID").closed
        assert back == grid


def _assert_deeply_frozen(value, where: str) -> None:
    if dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, where
        for f in dataclasses.fields(value):
            _assert_deeply_frozen(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, tuple):
        for k, item in enumerate(value):
            _assert_deeply_frozen(item, f"{where}[{k}]")
    else:
        assert value is None or type(value) in (str, float, int, bool), \
            f"{where}: {type(value).__name__}"


@pytest.mark.parametrize("name", ["ac_vessel", "dc_vessel"])
def test_a_parsed_grid_is_deeply_frozen(name):
    """The CLI shares one parsed model across the studies of a process,
    so nothing reachable through its fields may be mutable."""
    grid = parse_grid(serialize_grid(builtin_fixture(name)))
    _assert_deeply_frozen(grid, name)


def test_with_breaker_states_rejects_unknown(ac_vessel):
    with pytest.raises(InputError, match=r"unknown breakers \['CB_NOPE'\]"):
        ac_vessel.with_breaker_states({"CB_NOPE": False})


def test_islands_split_on_open_tie(ac_vessel):
    whole = ac_vessel.islands("ac")
    assert len(whole) == 1
    split = ac_vessel.with_breaker_states(
        {"CB_TIE_PS_MID": False, "CB_TIE_MID_SB": False}).islands("ac")
    assert len(split) == 3


class TestFileRules:
    """Each rule of the grid-file tables, on the serialized AC vessel."""

    @staticmethod
    def edited(old, new):
        text = serialize_grid(builtin_fixture("ac_vessel"))
        assert old in text
        return text, text.replace(old, new, 1)

    @staticmethod
    def header_line(text, header):
        return text.splitlines().index(header) + 1

    def test_numeric_ids_keep_their_text(self):
        text = ("[bus 12]\nkind = ac\nvoltage_v = 690\nfrequency_hz = 60\n"
                "[load 007]\nbus = 12\nrated_kva = 10\npf = 0.9\n"
                "motor_fraction = 0\n")
        grid = parse_grid(text)
        assert grid.load("007").bus == "12"
        assert parse_grid(serialize_grid(grid)) == grid

    # the one integer key is a study key; study files share the tokenizer
    # and the converters of grid files
    STUDY = "# iteration limit\n[powerflow]\nmax_iter = {}\n"

    @pytest.mark.parametrize("value, max_iter", [("4", 4), ("4.0", 4),
                                                 ("1_2", 12)])
    def test_integer_keys_read_integral_values(self, value, max_iter):
        study = _Study(self.STUDY.format(value), "powerflow")
        assert study.one("powerflow").max_iter == max_iter

    @pytest.mark.parametrize("value", ["4.5", "four", "true"])
    def test_integer_keys_reject_other_values(self, value):
        text = self.STUDY.format(value)
        with pytest.raises(GridParseError) as exc:
            _Study(text, "powerflow")
        assert exc.value.line == self.header_line(text, "[powerflow]")
        assert f"[powerflow] max_iter = '{value}': not an integer" in \
            str(exc.value)

    def test_type_errors_name_key_and_header_line(self):
        text, bad = self.edited("rated_kw = 1916.00", "rated_kw = abc")
        with pytest.raises(GridParseError) as exc:
            parse_grid(bad)
        assert exc.value.line == self.header_line(text, "[generator DG#01]")
        assert "[generator DG#01] rated_kw = 'abc': not a number" in \
            str(exc.value)

    @pytest.mark.parametrize("section, key", [
        ("[breaker CB_DG01]", "st_pickup_a"),
        ("[breaker CB_DG01]", "lt_pickup_a"),
        ("[generator DG#01]", "xd_pu"),
        ("[generator DG#01]", "td0_st_s"),
    ])
    def test_groups_are_all_or_nothing(self, section, key):
        text = serialize_grid(builtin_fixture("ac_vessel"))
        start = text.index(section)
        line_start = text.index(f"\n{key} = ", start) + 1
        bad = text[:line_start] + text[text.index("\n", line_start) + 1:]
        with pytest.raises(GridParseError) as exc:
            parse_grid(bad)
        assert exc.value.line == self.header_line(text, section)
        assert f"{section} missing required key {key!r}" in str(exc.value)

    def test_a_lone_group_key_requires_the_group(self):
        text = ("[bus D]\nkind = dc\nvoltage_v = 1000\n[converter C]\n"
                "bus = D\nkind = inverter\nrated_current_a = 1\nrated_kw = 1\n"
                "dclink_voltage_v = 1000\n")
        with pytest.raises(GridParseError,
                           match="line 4: .* 'dclink_capacitance_uf'"):
            parse_grid(text)

    def test_datasheet_constants_out_of_order_are_parse_errors(self):
        _, bad = self.edited("td0_st_s = 0.04\ntd0_t_s = 3.50",
                             "td_st_s = 0.04\ntd_t_s = 3.50")
        bad = bad.replace("xd_pu = 1.80", "xd_pu = 0.10", 1)
        with pytest.raises(GridParseError, match="need 0 < xd_st < xd_t < xd"):
            parse_grid(bad)

    def test_datasheet_constants_replace_the_open_circuit_pair(self):
        _, bad = self.edited("td0_t_s = 3.50", "td0_t_s = 3.50\ntd_t_s = 0.3")
        with pytest.raises(GridParseError, match="td_t_s and td_st_s go"):
            parse_grid(bad)

    def test_repeated_key_names_both_lines(self):
        text = "[bus B]\nkind = ac\nvoltage_v = 690\n# again\nvoltage_v = 440\n"
        with pytest.raises(GridParseError) as exc:
            parse_grid(text)
        assert exc.value.line == 5
        assert "'voltage_v' repeated from line 3" in str(exc.value)

    def test_unknown_long_time_kind_is_a_violation(self):
        _, bad = self.edited("lt_kind = definite", "lt_kind = inverted")
        found = [(v.element_id, v.rule) for v in validate(parse_grid(bad))]
        assert found == [("CB_DG01", "long-time kind")]


# ---- every dataclass field has a reader --------------------------------------

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vesselstudy"
# the parser, the serializer and the fixtures write fields; they read none
WRITERS = ("gridfile.py", "fixtures.py")
# field -> why it stays without a reader
UNREAD = {
    ("GeneratorDynamicParams", "synthetic"):
        "marks invented fixture values; the run record (ROADMAP item 4) "
        "will list them",
    ("CableBranch", "synthetic"):
        "marks invented fixture values; the run record (ROADMAP item 4) "
        "will list them",
    ("AcScTrace", "ikd_source"):
        "says whether Ikd is a datasheet value or estimated; the run record "
        "(ROADMAP item 4) will list it",
    ("AcScTrace", "tdc_source"):
        "says whether Tdc is a datasheet value or estimated; the run record "
        "(ROADMAP item 4) will list it",
    ("ValidationReport", "violations"):
        "a result, not a model field: read through ok() and iteration",
    ("FuseSpec", "i2t_total_clearing"):
        "only perfbench reads it (item 5); validate checks its domain",
}


# a field of a dataclass outside grid.py whose name another dataclass in src/
# also uses -> the function in src/ (module.name or module.Class.method) whose
# body loads it: there a `.field` read is this class's, not the other's
SHARED_READERS = {
    ("AcNetwork", "frequency"): "tdsim._Engine._build",
    ("AcScTrace", "t"): "cli._run_sc_ac",
    ("BreakerFlow", "breaker_id"): "protection.build_breaker_graph",
    ("CctFaultSpec", "avr"): "tdsim.find_cct",
    ("CctFaultSpec", "governor"): "tdsim.find_cct",
    ("CctFaultSpec", "location"): "tdsim.find_cct",
    ("CctFaultSpec", "step"): "tdsim.find_cct",
    ("CctFaultSpec", "tol"): "tdsim.find_cct",
    ("DcFaultSummary", "traces"): "cli._run_sc_dc",
    ("DcScTrace", "t"): "protection.let_through",
    ("Event", "location"): "tdsim._Engine._island_y",
    ("FaultSummary", "bus"): "protection.build_breaker_graph",
    ("FaultSummary", "traces"): "protection.build_breaker_graph",
    ("SimConfig", "avr"): "tdsim._Engine._derivatives",
    ("SimConfig", "governor"): "tdsim._Engine._derivatives",
    ("SimConfig", "step"): "tdsim._Engine.run",
    ("SteadyState", "tol"): "powerflow.solve_ac_powerflow",
    ("TimeSeries", "t"): "cli._run_tdsim",
    ("TripEvent", "breaker_id"): "report.trip_rows",
    ("TripEvent", "locked"): "protection.selectivity_check",
    ("ZsiResult", "locked"): "protection.sequence_of_operations",
    ("_Machines", "damping"): "tdsim._Engine._machine_params",
}


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _dataclasses(trees) -> list[tuple[Path, ast.ClassDef]]:
    return [(path, n) for path, tree in trees.items() for n in tree.body
            if isinstance(n, ast.ClassDef) and _is_dataclass(n)]


def _fields(cls: ast.ClassDef) -> list[str]:
    return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]


def test_every_model_field_has_a_reader():
    """A field of a dataclass in src/ counts as read where some `.field` is
    loaded in src/ outside the writers and the dataclass bodies, or in
    demos/; a field nothing reads is dead weight in every grid file and
    every result.  The load may be another class's field of the same name:
    `test_every_shared_field_name_has_its_reader` pins those."""
    trees = _trees()
    classes = [c for _, c in _dataclasses(trees)]
    fields = {(c.name, f) for c in classes for f in _fields(c)}
    in_bodies = {id(n) for c in classes for n in ast.walk(c)}
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        if path.parent == SRC and path.name in WRITERS:
            continue
        nodes = trees.get(path) or ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(nodes)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                 and id(n) not in in_bodies}
    assert len(fields) > 150
    assert sorted(f for f in fields if f[1] not in read) == sorted(UNREAD)


def test_every_shared_field_name_has_its_reader():
    """A field of a dataclass outside grid.py whose name another dataclass
    in src/ also uses counts as read only in the function SHARED_READERS
    names for it: the guard above takes a load of `.bus` on a generator
    for a read of `FaultSummary.bus`.  That function, outside the writers,
    must load `.field` in its body; every such field needs an entry, and
    every entry such a field."""
    trees = _trees()
    classes = _dataclasses(trees)
    owners: dict[str, set[str]] = {}
    for _, c in classes:
        for f in _fields(c):
            owners.setdefault(f, set()).add(c.name)
    shared = {(c.name, f) for path, c in classes if path.name != "grid.py"
              for f in _fields(c) if len(owners[f]) > 1}
    missing = sorted(shared - set(SHARED_READERS))
    stale = sorted(set(SHARED_READERS) - shared)
    assert (missing, stale) == ([], [])
    for (cls, field), where in sorted(SHARED_READERS.items()):
        module, *names = where.split(".")
        assert f"{module}.py" not in WRITERS, where
        node = trees[SRC / f"{module}.py"]
        for name in names:
            node = next((n for n in node.body if getattr(n, "name", None) == name
                         and isinstance(n, (ast.ClassDef, ast.FunctionDef))),
                        None)
            assert node is not None, f"{where}: no such function in src/"
        assert isinstance(node, ast.FunctionDef), where
        assert any(isinstance(n, ast.Attribute) and n.attr == field
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node)), \
            f"{cls}.{field}: {where} does not read .{field}"


# ---- every defaulted parameter has a setter ----------------------------------


def _call_sites() -> dict[str, list[tuple[int | None, set[str] | None]]]:
    """callee name -> (positional count, keyword names) of each call in
    src/, demos/ and perfbench/; None where a `*args` or `**kwargs` may
    pass anything.  A call of `f` or of `x.f` is a call of every def `f`."""
    calls: dict[str, list] = {}
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            npos = (None if any(isinstance(a, ast.Starred) for a in n.args)
                    else len(n.args))
            kws = (None if any(k.arg is None for k in n.keywords)
                   else {k.arg for k in n.keywords})
            calls.setdefault(name, []).append((npos, kws))
    return calls


def _defaulted_params(node, owner: str | None = None):
    """(def name as called, param, positional index or None) of every
    defaulted parameter of the defs under `node`; a method's index leaves
    out `self`, and a class's `__init__` is called by the class's name."""
    for n in ast.iter_child_nodes(node):
        if isinstance(n, ast.ClassDef):
            yield from _defaulted_params(n, n.name)
        elif isinstance(n, ast.FunctionDef):
            name = owner if owner and n.name == "__init__" else n.name
            bound = owner is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in n.decorator_list)
            a = n.args
            positional = [*a.posonlyargs, *a.args][bound:]
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield name, arg.arg, i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None
            yield from _defaulted_params(n)
        else:
            yield from _defaulted_params(n, owner)


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A defaulted parameter of a def in src/ is set where some call in
    src/, demos/ or perfbench/ of a def of that name passes it, by keyword
    or by position; one that only the tests set is a knob no study
    turns."""
    calls = _call_sites()
    unset = []
    for path, tree in sorted(_trees().items()):
        for fn, param, index in _defaulted_params(tree):
            if not any(
                    kws is None or param in kws
                    or (index is not None and (npos is None or npos > index))
                    for npos, kws in calls.get(fn, ())):
                unset.append(f"{path.stem}.{fn}({param})")
    assert unset == []
