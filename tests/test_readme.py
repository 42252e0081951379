"""README's tables of the sections each study kind reads, of the keys
each event action and controller mode reads, and of the domain of every
study value and grid value, match the tables the code keeps, so the docs
cannot drift from them."""

import re
from pathlib import Path

from vesselstudy import cli, grid, gridfile, powerflow, protection, tdsim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table under `header`."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _quoted(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)




def test_study_kind_table_matches_the_runners():
    """A row lists `[section]`s, and may take over those of a kind
    above it."""
    documented = {}
    for kinds, cell in _rows("| study kind | sections it reads |"):
        reads = set()
        for name in _quoted(cell):
            reads |= ({re.match(r"\[(\w+)", name)[1]} if name.startswith("[")
                      else documented[name])
        documented.update(dict.fromkeys(_quoted(kinds), reads))
    assert documented == {kind: set(sections)
                          for kind, (_, sections) in cli._RUNNERS.items()}


def test_event_action_table_matches_event_fields():
    documented = {}
    for actions, keys in _rows("| `action` | also reads |"):
        documented.update(dict.fromkeys(_quoted(actions), set(_quoted(keys))))
    assert documented == {action: set(names)
                          for action, names in tdsim.EVENT_FIELDS.items()}


def test_controller_mode_table_matches_controller_fields():
    documented = {}
    for modes, keys, _ in _rows(
            "| `mode` | also reads | the inverter's setpoint |"):
        documented.update(dict.fromkeys(_quoted(modes), set(_quoted(keys))))
    assert documented == {mode: set(names) for mode, names in
                          tdsim.CONTROLLER_FIELDS.items()}


def test_domain_table_matches_the_engines_tables():
    documented = {}
    for engine, keys, _, domain in _rows("| engine | key | given as | domain |"):
        (engine,), (domain,) = _quoted(engine), _quoted(domain)
        documented.update({(engine, key): domain for key in _quoted(keys)})
    assert documented == {(m.__name__.rsplit(".", 1)[1], key): domain
                          for m in (tdsim, powerflow, protection)
                          for key, domain in m.DOMAINS.items()}


def _grid_keys(kind: str, table) -> dict:
    """(class name, field) -> "[kind] key" over a section table and the
    tables nested in it."""
    keys = {(table.cls.__name__, k.field): f"[{kind}] {k.name}"
            for k in table.keys}
    for group in table.groups.values():
        keys.update(_grid_keys(kind, group))
    return keys


def test_grid_domain_table_matches_grid_domains():
    """Each row names a `Class.field`, the grid-file key that sets it and
    the field's `grid.DOMAINS` interval."""
    keys = {}
    for kind, (_, table) in gridfile._SECTIONS.items():
        keys.update(_grid_keys(kind, table))
    documented = {}
    for field, key, domain in _rows("| field | grid-file key | domain |"):
        (field,), (key,), (domain,) = _quoted(field), _quoted(key), _quoted(domain)
        cls, name = field.split(".")
        assert keys[(cls, name)] == key, field
        documented[(cls, name)] = domain
    assert documented == {(cls.__name__, name): domain
                          for cls, table in grid.DOMAINS.items()
                          for name, domain in table.items()}
