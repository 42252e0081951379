"""Which error class a failure raises decides the CLI's exit code: an
`InputError` is 2, a `NumericalError` is 3, and anything else is an
internal error that keeps its traceback."""

import ast
import builtins
import contextlib
import importlib
import io
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import vesselstudy  # noqa: E402
from vesselstudy import builtin_fixture, serialize_grid  # noqa: E402
from vesselstudy.cli import main  # noqa: E402
from vesselstudy.grid import GridError, InputError, NumericalError  # noqa: E402
from vesselstudy.gridfile import GridParseError  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "vesselstudy"
ENGINES = {"powerflow", "sc_ac", "sc_dc", "tdsim", "protection"}


def test_src_raises_no_bare_value_error():
    """Every class a `raise` in src/ names is an InputError or a
    NumericalError, so the class alone decides the exit code."""
    stray, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"vesselstudy.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                checked += 1
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                cls = (getattr(module, exc.id, None)
                       if isinstance(exc, ast.Name) else None)
                if not (isinstance(cls, type) and issubclass(
                        cls, (InputError, NumericalError))):
                    stray.append(f"{path.name}:{node.lineno}")
    assert checked and stray == []


def test_cli_imports_no_engine_error_class():
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.endswith("Error")]
    assert imported and not [m for m, _ in imported if m in ENGINES]


def test_two_base_classes():
    assert vesselstudy.InputError is InputError
    assert vesselstudy.NumericalError is NumericalError
    assert issubclass(InputError, GridError) and issubclass(InputError,
                                                            ValueError)
    assert issubclass(NumericalError, GridError)
    assert not issubclass(NumericalError, InputError)
    assert issubclass(GridParseError, InputError)


# the base, its two kinds, and GridParseError, which builds the `line N:`
# prefix of a grid file's errors and carries `.line`
KEPT = {"GridError", "InputError", "NumericalError", "GridParseError"}


def _names(node) -> list[str]:
    """The class names an `except` clause or a class's base list names."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def _error_classes(sources) -> tuple[set[str], set[str]]:
    """The exception classes that `sources` define, and the names their
    `except` clauses catch."""
    bases, caught = {}, set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [n for b in node.bases for n in _names(b)]
            elif isinstance(node, ast.ExceptHandler) and node.type:
                caught.update(_names(node.type))

    def is_error(name):
        if name in bases:
            return any(is_error(base) for base in bases[name])
        cls = getattr(builtins, name, None)
        return isinstance(cls, type) and issubclass(cls, BaseException)

    return {name for name in bases if is_error(name)}, caught


def test_src_defines_no_error_class_nothing_catches():
    """An exception class beyond KEPT earns its place only if some
    `except` in src/ catches it: the CLI maps the two kinds alone to its
    exit codes, so any other class is a name that nothing reads."""
    defined, caught = _error_classes(
        p.read_text() for p in sorted(SRC.glob("*.py")))
    assert KEPT <= defined
    assert defined - caught - KEPT == set()


def test_error_class_guard_allows_a_caught_class():
    src = ("class GridError(Exception): pass\n"
           "class Stray(GridError): pass\n"
           "class Caught(GridError): pass\n"
           "class Plain: pass\n"
           "try:\n    pass\nexcept (KeyError, Caught):\n    pass\n")
    defined, caught = _error_classes([src])
    assert defined == {"GridError", "Stray", "Caught"}
    assert defined - caught - KEPT == {"Stray"}


def test_an_internal_error_keeps_its_traceback(tmp_path, monkeypatch):
    """An exception that is neither an InputError nor a NumericalError is
    a bug: main() does not turn it into an input error's exit code."""
    def broken(*_args, **_kwargs):
        raise ValueError("an engine bug")

    monkeypatch.setattr("vesselstudy.cli.solve_ac_powerflow", broken)
    with pytest.raises(ValueError, match="an engine bug"):
        main(["powerflow", "--grid", "builtin:ac_vessel",
              "--out", str(tmp_path / "o")])


# ---- one-key defects of valid input files ----------------------------------

AC_GRID = serialize_grid(builtin_fixture("ac_vessel"))
DC_GRID = serialize_grid(builtin_fixture("dc_vessel"))
TRACE = "t_s,i_a\n" + "".join(
    f"{k * 1e-4!r},{5000.0 * (1.0 - math.exp(-k * 0.1))!r}\n"
    for k in range(40))

# name -> (kind, grid text, study text, extra argv); i2t reads a trace and
# no grid or study; the study files are small and every run is short
BASES = {
    "powerflow": ("powerflow", AC_GRID,
     "[powerflow]\ntol = 1e-8\nmax_iter = 20\n[dispatch]\nDG#01 = 1200\n"
     "[load_scale]\nLOAD440_PS = 1.1\n", []),
    "dc balance": ("powerflow", DC_GRID, "[breakers]\nCB_DCTIE = false\n", []),
    "sc-ac": ("sc-ac", AC_GRID, "[load_scale]\nLOAD440_PS = 1.1\n",
              ["--bus", "AC_PS", "--format", "text"]),
    "sc-dc": ("sc-dc", DC_GRID, "[breakers]\nCB_DCTIE = false\n",
              ["--bus", "DC_PS", "--format", "text"]),
    "protect": ("protect", AC_GRID,
     "[protect]\nfault_element = DG#01\nzsi = true\ncct_budget_s = 0.542\n"
     "failed_breakers = CB_DG01\n", []),
    "tdsim": ("tdsim", AC_GRID,
     "[sim]\nstep_s = 0.02\nend_s = 0.1\n"
     "[event up]\ntime_s = 0.03\naction = load_step\ntarget = LOAD440_PS\n"
     "scale = 1.1\nramp_s = 0.02\n"
     "[event f]\ntime_s = 0.05\naction = fault_apply\ntarget = FDR_LV_PS\n"
     "location = 0.5\n[event c]\ntime_s = 0.07\naction = fault_clear\n"
     "[controller ps]\nmode = peak_shave\ninverter = INV_PS\nwatched = DG#01\n"
     "p_threshold_kw = 1500\np_rating_kw = 1500\nq_rating_kvar = 1500\n", []),
    "cct": ("cct", AC_GRID,
     "[cct]\nmachine = DG#01\nloading = 0.9\nlocation = 0\nt_lo_s = 0\n"
     "t_hi_s = 0.4\ntol_s = 0.1\nwindow_s = 0.5\nstep_s = 0.02\n"
     "governor = on\navr = on\n", []),
    "i2t": ("i2t", None, None, ["--fuse-i2t", "5000"]),
}
# keys whose value sets how long a run goes on: made out of range, they make
# a valid study that runs for hours, not a defect
RUN_LENGTH = ("end_s", "window_s", "t_hi_s", "max_iter", "time_s")
# ops that set a number, to one near each end of the float range
EXTREMES = ("1e300", "1e-300")


def _numbers(line: str) -> bool:
    """Whether every value of a `key = value` line or trace row is a number."""
    try:
        [float(v) for v in line.split("=", 1)[1:] or line.split(",")]
    except ValueError:
        return False
    return True


def _mutate(text: str, k: int, op: str) -> str:
    """`text` with line k (counted among its mutable lines, or for EXTREMES
    among its numeric ones) changed by `op`: its key dropped or misspelled,
    its value made non-numeric, negative, zero, out of range, 1e300 or
    1e-300.  In a trace, a row's k % 2 cell changes."""
    lines = text.splitlines()
    rows = [j for j, line in enumerate(lines) if "=" in line or "," in line]
    if op in EXTREMES:
        rows = [j for j in rows if _numbers(lines[j])] or rows
    j = rows[k % len(rows)]
    if "=" in lines[j]:
        key, value = (s.strip() for s in lines[j].split("=", 1))
    else:
        cells = lines[j].split(",")
        key, value = "", cells[k % 2]
    if op == "out of range" and key in RUN_LENGTH:
        op = "negative"
    new = {"non-numeric": "abc",
           "negative": value[1:] if value.startswith("-") else "-" + value,
           "zero": "0", "out of range": "1e12"}.get(op, op)
    if op == "drop":
        del lines[j]
    elif op == "misspell":
        lines[j] = (f"{key}x = {value}" if key
                    else lines[j].replace(",", ";", 1))
    elif key:
        lines[j] = f"{key} = {new}"
    else:
        cells[k % 2] = new
        lines[j] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _run(base: str, tmp: str, edit=None) -> tuple[int, list[str]]:
    """main() on BASES[base], its files written to `tmp` after `edit`
    changed their {option: text}; the exit code and the stderr lines."""
    kind, grid, study, extra = BASES[base]
    files = {"grid": grid, "study": study} if grid else {"trace": TRACE}
    if edit:
        edit(files)
    argv = [kind] + extra + ["--out", f"{tmp}/o"]
    for name, text in files.items():
        Path(tmp, name).write_text(text)
        argv += [f"--{name}", f"{tmp}/{name}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_base_run_succeeds(tmp_path, base):
    assert _run(base, str(tmp_path)) == (0, [])


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.sampled_from(sorted(BASES)),
       st.sampled_from(("grid", "study")),
       st.integers(0, 10_000),
       st.sampled_from(("drop", "misspell", "non-numeric", "negative",
                        "zero", "out of range") + EXTREMES))
def test_one_key_defects_exit_with_one_error_line(base, which, k, op):
    """A valid run with one key of its grid, study or trace file dropped,
    misspelled, non-numeric, negative, zero, out of range, 1e300 or 1e-300
    exits 0, 2 or 3, with `error:` lines only on failure (one, or one per
    violation of an invalid grid) and no traceback."""
    def edit(files):
        name = "trace" if "trace" in files else which
        files[name] = _mutate(files[name], k, op)

    with tempfile.TemporaryDirectory() as tmp:
        rc, lines = _run(base, tmp, edit)
    assert rc in (0, 2, 3)
    if rc == 0:
        assert lines == []
    else:
        assert lines and all(line.startswith("error: ") for line in lines)
