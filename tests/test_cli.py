import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from vesselstudy import (
    CctFaultSpec,
    ControllerConfig,
    Event,
    SimConfig,
    SteadyState,
    builtin_fixture,
    cli,
    dc_fault_summary,
    parse_grid,
    serialize_grid,
    solve_ac_powerflow,
    tdsim,
)
from vesselstudy.cli import main

from helpers import (PS_ISLAND_OPEN, cap_probes, smib_grid,
                     split_frequency_grid)

PEAK_STUDY = """
[breakers]
{breakers}

[sim]
step_s = 0.02
end_s = 2.0

[event up]
time_s = 0.5
action = load_step
target = LOAD440_PS
scale = 1.3
ramp_s = 0.5

[controller ps]
mode = peak_shave
inverter = INV_PS
watched = DG#01
p_threshold_kw = 1500
q_threshold_kvar = 1000
p_rating_kw = 1500
q_rating_kvar = 1500
""".format(breakers="\n".join(f"{b} = false" for b in PS_ISLAND_OPEN))

TDSIM_HEAD = "[sim]\nstep_s = 0.02\nend_s = 0.1\n"
PROTECT_STUDY = """
[protect]
fault_element = DG#01
zsi = {zsi}
cct_budget_s = 0.542
"""


def _dir_hash(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_missing_grid_file_is_input_error(tmp_path, capsys):
    rc = main(["powerflow", "--grid", "missing.grid",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_binary_grid_file_is_input_error(tmp_path, capsys):
    """Its decoding error used to pass as an input error without naming
    the file."""
    bad = tmp_path / "bad.grid"
    bad.write_bytes(b"\xff\xfe[bus B1]\n")
    rc = main(["powerflow", "--grid", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: {bad}: not a text file" in capsys.readouterr().err


def test_invalid_grid_is_input_error(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text("[bus B1]\nkind = ac\nvoltage_v = 690\nfrequency_hz = 47\n")
    rc = main(["powerflow", "--grid", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_numerical_failure_exit_code(tmp_path):
    study = tmp_path / "s.study"
    study.write_text("[load_scale]\nLOAD440_PS = 400\nLOAD440_SB = 400\n")
    rc = main(["powerflow", "--grid", "builtin:ac_vessel",
               "--study", str(study), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_sc_dc_summary_lists_sustained_total(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
               "--out", str(out)])
    assert rc == 0
    assert "16.175" in capsys.readouterr().out
    rows = _read_csv(out / "summary.csv")
    total = next(r for r in rows if r["contributor"] == "TOTAL")
    assert float(total["sustained_a"]) == 16175.0
    assert (out / "trace_BAT_PS.csv").exists()
    assert (out / "total.csv").exists()


def test_cli_matches_library_results(tmp_path):
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    rows = _read_csv(out / "summary.csv")
    summ = dc_fault_summary(builtin_fixture("dc_vessel"), "DC_PS")
    for row in rows:
        if row["contributor"] == "TOTAL":
            continue
        tr = summ.traces[row["contributor"]]
        assert float(row["peak_a"]) == tr.peak_current
        assert float(row["sustained_a"]) == tr.sustained

    out2 = tmp_path / "pf"
    main(["powerflow", "--grid", "builtin:ac_vessel", "--out", str(out2)])
    sol = solve_ac_powerflow(builtin_fixture("ac_vessel"))
    for row in _read_csv(out2 / "buses.csv"):
        assert float(row["v_pu"]) == sol.v_pu[row["bus_id"]]


def test_i2t_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(out / "trace_BAT_PS.csv"),
               "--fuse-i2t", "9350"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("t_clear_s = ")
    assert float(line.split("=")[1]) == pytest.approx(1.94017e-4, rel=0.005)


@pytest.mark.parametrize("rating, message", [
    # these used to clear at t = 0.0 (exit 0)
    ("-5", "need fuse_i2t in (0, inf), got fuse_i2t = -5.0"),
    ("0", "need fuse_i2t in (0, inf), got fuse_i2t = 0.0"),
    # and these to report a let-through still rising "of nan A^2s"
    ("nan", "need fuse_i2t in (0, inf), got fuse_i2t = nan"),
    ("inf", "need fuse_i2t in (0, inf), got fuse_i2t = inf"),
    # a finite rating the trace cannot reach is a trace too short; both
    # energies print as repr, not every digit of the rating's binary value
    ("1e30", "let-through still rising at trace end "
             "(1056767.599999977 of 1e+30 A^2s)"),
])
def test_i2t_refuses_a_bad_fuse_rating(tmp_path, capsys, rating, message):
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(out / "trace_BAT_PS.csv"),
               "--fuse-i2t", rating, "--out", str(tmp_path / "i2t")])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "i2t").exists()


def test_i2t_not_cleared_fails_only_under_strict(tmp_path, capsys):
    # a pulse that decays to zero long before reaching the rating
    trace = tmp_path / "pulse.csv"
    trace.write_text("t_s,i_a\n0,100\n0.001,0\n")
    argv = ["i2t", "--trace", str(trace), "--fuse-i2t", "9350"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == "t_clear_s = NOT_CLEARED\n"
    assert (tmp_path / "o" / "i2t.csv").read_text().splitlines()[1] \
        == "fuse,9350.0,NOT_CLEARED"
    assert main(argv + ["--strict"]) == 4
    assert capsys.readouterr().out == "t_clear_s = NOT_CLEARED\n"


@pytest.mark.parametrize("fault", [None, "fault_bus = AC_PS"])
def test_protect_strict_exit_code(tmp_path, fault):
    study = PROTECT_STUDY
    if fault is not None:
        study = study.replace("fault_element = DG#01", fault)
    ok = tmp_path / "ok.study"
    ok.write_text(study.format(zsi="true"))
    assert main(["protect", "--grid", "builtin:ac_vessel", "--study", str(ok),
                 "--out", str(tmp_path / "a"), "--strict"]) == 0
    # without lock signals every detecting breaker opens together: the study
    # is not selective, which --strict reports as exit 4
    bad = tmp_path / "bad.study"
    bad.write_text(study.format(zsi="false"))
    assert main(["protect", "--grid", "builtin:ac_vessel", "--study", str(bad),
                 "--out", str(tmp_path / "b"), "--strict"]) == 4
    assert main(["protect", "--grid", "builtin:ac_vessel", "--study", str(bad),
                 "--out", str(tmp_path / "c")]) == 0


def test_tdsim_study_runs(tmp_path):
    study = tmp_path / "peak.study"
    study.write_text(PEAK_STUDY)
    out = tmp_path / "out"
    rc = main(["tdsim", "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_s"
    # shape rule: t_s plus one column per channel, all rows equal width
    assert all(len(line.split(",")) == len(header) for line in lines[1:])
    rows = _read_csv(out / "timeseries.csv")
    assert "DG#01.p_kw" in rows[0]
    assert float(rows[0]["t_s"]) == 0.0


def test_sc_ac_summary_schema(tmp_path):
    out = tmp_path / "out"
    rc = main(["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS",
               "--out", str(out)])
    assert rc == 0
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "contributor,ikd_st_a,ikd_t_a,ikd_a,iac_half_a,idc_half_a,ip_a"


TIE_CLOSED = "[breaker CB_TIE_PS_MID]\nclosed = true\n"


def _vessel_grid_file(tmp_path) -> Path:
    path = tmp_path / "vessel.grid"
    path.write_text(serialize_grid(builtin_fixture("ac_vessel")))
    return path


def test_grid_file_path_accepted(tmp_path):
    path = _vessel_grid_file(tmp_path)
    rc = main(["powerflow", "--grid", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0


def _cold_run_hash(argv, out: Path) -> str:
    """The artifacts of `argv` run with no parsed grid kept."""
    cli._parsed.cache_clear()
    assert main(argv + ["--out", str(out)]) == 0
    return _dir_hash(out)


@pytest.fixture
def parsed_texts(monkeypatch) -> list[str]:
    """The grid texts `cli` parses, from an empty cache on."""
    texts = []

    def counting(text):
        texts.append(text)
        return parse_grid(text)

    monkeypatch.setattr(cli, "parse_grid", counting)
    cli._parsed.cache_clear()
    return texts


def test_a_grid_text_is_parsed_once_per_process(tmp_path, parsed_texts):
    grid = str(_vessel_grid_file(tmp_path))
    assert main(["powerflow", "--grid", grid,
                 "--out", str(tmp_path / "pf")]) == 0
    assert main(["sc-ac", "--grid", grid, "--bus", "AC_PS",
                 "--out", str(tmp_path / "sc")]) == 0
    assert len(parsed_texts) == 1


def test_an_edited_grid_file_is_parsed_afresh(tmp_path):
    path = _vessel_grid_file(tmp_path)
    argv = ["powerflow", "--grid", str(path)]
    before = _cold_run_hash(argv, tmp_path / "before")
    text = path.read_text()
    assert TIE_CLOSED in text
    path.write_text(text.replace(TIE_CLOSED, TIE_CLOSED.replace("true",
                                                                "false")))
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    warm = _dir_hash(tmp_path / "warm")
    assert warm != before
    assert warm == _cold_run_hash(argv, tmp_path / "cold")


def test_a_study_breaker_state_does_not_reach_the_kept_grid(tmp_path):
    study = tmp_path / "open.study"
    study.write_text("[breakers]\nCB_TIE_PS_MID = false\n")
    argv = ["powerflow", "--grid", str(_vessel_grid_file(tmp_path))]
    opened = _cold_run_hash(argv + ["--study", str(study)], tmp_path / "open")
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    warm = _dir_hash(tmp_path / "warm")
    assert warm != opened
    assert warm == _cold_run_hash(argv, tmp_path / "cold")


def test_a_bad_grid_file_is_refused_on_every_call(tmp_path, capsys,
                                                  parsed_texts):
    bad = _vessel_grid_file(tmp_path)
    bad.write_text(bad.read_text().replace(TIE_CLOSED, TIE_CLOSED.replace(
        "true", "open")))
    argv = ["powerflow", "--grid", str(bad), "--out", str(tmp_path / "o")]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "closed = " in errors[0]
    assert len(parsed_texts) == 2
    assert not (tmp_path / "o").exists()


def test_protect_and_text_sc_ac_sample_no_trace(tmp_path, samples):
    study = tmp_path / "p.study"
    study.write_text(PROTECT_STUDY.format(zsi="true"))
    assert main(["protect", "--grid", "builtin:ac_vessel", "--study",
                 str(study), "--out", str(tmp_path / "p")]) == 0
    assert main(["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS",
                 "--out", str(tmp_path / "t"), "--format", "text"]) == 0
    assert samples == []
    assert [p.name for p in tmp_path.rglob("trace_*")] == []


def test_sc_ac_traces_equal_a_fresh_process_run(tmp_path, samples):
    """Traces written after other studies in one process are the bytes of
    a run in a fresh process."""
    argv = ["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS"]
    scaled = tmp_path / "scaled.study"
    scaled.write_text("[load_scale]\nLOAD440_PS = 0.5\n")
    assert main(argv + ["--out", str(tmp_path / "text"),
                        "--format", "text"]) == 0
    assert main(argv + ["--study", str(scaled),
                        "--out", str(tmp_path / "scaled")]) == 0
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    assert samples and len(list((tmp_path / "warm").glob("trace_*.csv"))) > 1
    src = Path(cli.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-m", "vesselstudy.cli", *argv,
                    "--out", str(tmp_path / "cold")], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)},
                   stdout=subprocess.DEVNULL)
    warm = _dir_hash(tmp_path / "warm")
    assert warm != _dir_hash(tmp_path / "scaled")
    assert warm == _dir_hash(tmp_path / "cold")


def test_text_format(tmp_path):
    out = tmp_path / "out"
    rc = main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
               "--out", str(out), "--format", "text"])
    assert rc == 0
    text = (out / "summary.txt").read_text()
    assert "TOTAL" in text and "16175.0" in text


def test_repeated_runs_are_byte_identical(tmp_path):
    study = tmp_path / "peak.study"
    study.write_text(PEAK_STUDY)
    cases = [
        ["powerflow", "--grid", "builtin:ac_vessel"],
        ["sc-ac", "--grid", "builtin:ac_vessel", "--bus", "AC_PS"],
        ["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS"],
        ["tdsim", "--grid", "builtin:ac_vessel", "--study", str(study)],
    ]
    for k, argv in enumerate(cases):
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"{k}{run}"
            assert main(argv + ["--out", str(out)]) == 0
            hashes.append(_dir_hash(out))
        assert hashes[0] == hashes[1], argv[0]


SHORT_CCT = "[cct]\nmachine = DG#01\nt_hi_s = 0.1\nwindow_s = 0.3\nstep_s = 0.01\n"


@pytest.mark.parametrize("kind, study_text, key", [
    ("powerflow", "[breakers]\nCB_TIE_PS_MID = open\n", "CB_TIE_PS_MID"),
    ("powerflow", "[breakers]\nCB_TIE_PS_MID = 0\n", "CB_TIE_PS_MID"),
    ("protect", PROTECT_STUDY.format(zsi="off"), "zsi"),
    # on/off switches: anything else used to leave the controller on
    ("cct", SHORT_CCT + "governor = false\n", "governor = 'false': not on or off"),
    ("cct", SHORT_CCT + "avr = of\n", "avr = 'of': not on or off"),
])
def test_study_booleans_are_strict(tmp_path, capsys, kind, study_text, key):
    study = tmp_path / "s.study"
    study.write_text(study_text)
    rc = main([kind, "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind, study_text, key", [
    ("tdsim", "[sim]\nstep_s = 0.02\nend_s = 0.1\nnetwork_interval = 4\n",
     "network_interval"),
    ("tdsim", "[sim]\nstep = 0.02\nend_s = 0.1\n", "step"),
    # RK4 is the one integrator, so [sim] has no integrator key
    ("tdsim", TDSIM_HEAD + "integrator = rk4\n", "integrator"),
    ("cct", "[cct]\nmachine = DG#01\ntol = 0.01\n", "tol"),
])
def test_unknown_sim_and_cct_keys_are_input_errors(tmp_path, capsys, kind,
                                                   study_text, key):
    study = tmp_path / "s.study"
    study.write_text(study_text)
    rc = main([kind, "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown key(s): {key}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, study_text, key", [
    ("protect", "[protect]\nfault_element = DG#01\ncct_budget = 0.2\n",
     "cct_budget"),
    ("powerflow", "[powerflow]\ntolerance = 1e-6\n", "tolerance"),
    ("sc-ac --bus AC_PS", "[powerflow]\nbus_id = AC_PS\n", "bus_id"),
    ("tdsim", "[sim]\nstep_s = 0.02\nend_s = 0.1\n[event up]\ntime_s = 0.05\n"
     "action = load_step\ntarget = LOAD440_PS\nscale = 1.1\nramp = 0.1\n",
     "ramp"),
    ("tdsim", "[sim]\nstep_s = 0.02\nend_s = 0.1\n[controller ps]\n"
     "mode = peak_shave\ninverter = INV_PS\nwatched = DG#01\n"
     "p_rating_kw = 1500\nq_rating_kvar = 1500\np_threshold = 1000\n",
     "p_threshold"),
])
def test_unknown_study_keys_are_input_errors(tmp_path, capsys, kind,
                                             study_text, key):
    study = tmp_path / "s.study"
    study.write_text(study_text)
    rc = main([*kind.split(), "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown key(s): {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_inputs_are_input_errors(tmp_path, capsys):
    text = serialize_grid(builtin_fixture("ac_vessel"))
    bad = tmp_path / "nan.grid"
    bad.write_text(text.replace("rated_kva = 2395.00", "rated_kva = nan", 1))
    assert main(["powerflow", "--grid", str(bad),
                 "--out", str(tmp_path / "a")]) == 2
    assert "non-finite number 'nan'" in capsys.readouterr().err
    study = tmp_path / "s.study"
    study.write_text(PROTECT_STUDY.format(zsi="true").replace(
        "cct_budget_s = 0.542", "cct_budget_s = inf"))
    assert main(["protect", "--grid", "builtin:ac_vessel", "--study",
                 str(study), "--out", str(tmp_path / "b")]) == 2
    assert "non-finite number 'inf'" in capsys.readouterr().err


def test_i2t_rejects_a_truncated_trace_row(tmp_path, capsys):
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    trace = out / "trace_BAT_PS.csv"
    lines = trace.read_text().splitlines()
    lines[50] = lines[50].split(",")[0]          # line 51: time cell only
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(trace) in err and "line 51" in err


@pytest.mark.parametrize("column, value", [
    (1, "nan"), (1, "inf"), (1, "-inf"), (0, "nan"), (0, "inf")])
def test_i2t_rejects_a_non_finite_trace_value(tmp_path, capsys, column, value):
    """A nan current beside 5000 A samples read NOT_CLEARED and an inf one
    cleared at 0.0, both with exit 0."""
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    trace = out / "trace_BAT_PS.csv"
    lines = trace.read_text().splitlines()
    cells = lines[50].split(",")
    cells[column] = value                        # line 51
    lines[50] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(trace) in err and "line 51" in err and "non-finite" in err


@pytest.mark.parametrize("column", [0, 1])
def test_i2t_rejects_a_non_numeric_trace_value(tmp_path, capsys, column):
    """The error used to be float()'s, naming neither file nor line."""
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    trace = out / "trace_BAT_PS.csv"
    lines = trace.read_text().splitlines()
    cells = lines[50].split(",")
    cells[column] = "abc"                        # line 51
    lines[50] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {trace}: line 51: expected a time and a current" in err


def test_i2t_rejects_a_time_column_that_goes_backwards(tmp_path, capsys):
    """The trace in reverse row order read NOT_CLEARED with exit 0; a
    repeated time is still accepted."""
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    trace = out / "trace_BAT_PS.csv"
    header, *rows = trace.read_text().splitlines()
    trace.write_text("\n".join([header] + rows[::-1]) + "\n")
    capsys.readouterr()
    rc = main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(trace) in err and "line 3" in err
    trace.write_text("\n".join([header] + rows[:50] + rows[49:]) + "\n")
    assert main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"]) == 0


def test_i2t_rejects_a_trace_without_rows(tmp_path, capsys):
    """A header with no rows used to crash in let_through."""
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,i_a\n")
    rc = main(["i2t", "--trace", str(trace), "--fuse-i2t", "9350"])
    assert rc == 2
    assert f"{trace}: no rows after the header" in capsys.readouterr().err


def test_grid_inverter_without_ac_bus_is_a_violation(tmp_path, capsys):
    """On a DC bus with no ac_bus it used to fail as 'unknown bus None'."""
    text = serialize_grid(builtin_fixture("dc_vessel"))
    edited = text.replace("[converter GINV_PS]\nac_bus = LV_PS\n",
                          "[converter GINV_PS]\n")
    assert edited != text
    grid = tmp_path / "g.grid"
    grid.write_text(edited)
    rc = main(["powerflow", "--grid", str(grid), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("error: GINV_PS: ac bus: a grid_inverter on a DC bus needs an "
            "ac_bus") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, fixture, section, twin, bus", [
    ("sc-ac", "ac_vessel", "load", "LOAD440", "AC_PS"),
    ("sc-dc", "dc_vessel", "battery", "BAT", "DC_PS"),
])
def test_trace_file_name_collision_is_input_error(tmp_path, capsys, kind,
                                                  fixture, section, twin, bus):
    """`#` and `_` both map to `_` in a trace file name, so `<twin>#PS` and
    `<twin>_PS` would write one file and one trace would be lost."""
    text = serialize_grid(builtin_fixture(fixture))
    start = text.index(f"[{section} {twin}_PS]")
    block = text[start:text.index("\n\n", start) + 2]
    grid = tmp_path / "g.grid"
    grid.write_text(text + "\n" + block.replace(f"{twin}_PS]", f"{twin}#PS]"))
    out = tmp_path / "out"
    rc = main([kind, "--grid", str(grid), "--bus", bus, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{twin}#PS'" in err and f"'{twin}_PS'" in err
    assert not out.exists() or not any(out.iterdir())
    # text format writes no trace files, so the ids do not collide
    assert main([kind, "--grid", str(grid), "--bus", bus, "--out", str(out),
                 "--format", "text"]) == 0


def _protect_study(tmp_path) -> str:
    study = tmp_path / "p.study"
    study.write_text(PROTECT_STUDY.format(zsi="true"))
    return str(study)


def _breaker_header_line(text: str, breaker: str) -> int:
    return text.splitlines().index(f"[breaker {breaker}]") + 1


@pytest.mark.parametrize("old, new, key", [
    ("[breaker CB_DG01]\n", "[breaker CB_DG01]\nst_delay = 0.05\n", "st_delay"),
    ("[breaker CB_DG01]\n", "[breaker CB_DG01]\ndirectional = true\n",
     "directional"),
    ("[breaker CB_DG01]\n", "[breaker CB_DG01]\nst_directional = true\n",
     "st_directional"),
])
def test_undeclared_grid_keys_are_input_errors(tmp_path, capsys, old, new, key):
    text = serialize_grid(builtin_fixture("ac_vessel"))
    bad = tmp_path / "bad.grid"
    bad.write_text(text.replace(old, new, 1))
    rc = main(["protect", "--grid", str(bad), "--study", _protect_study(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    line = _breaker_header_line(text, "CB_DG01")
    assert f"line {line}: [breaker CB_DG01] unknown key(s): {key}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["open", "1", "yes"])
def test_grid_booleans_are_strict(tmp_path, capsys, value):
    text = serialize_grid(builtin_fixture("ac_vessel"))
    old = "[breaker CB_TIE_PS_MID]\nclosed = true\n"
    assert old in text
    bad = tmp_path / "bad.grid"
    bad.write_text(text.replace(old, old.replace("true", value)))
    rc = main(["powerflow", "--grid", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    line = _breaker_header_line(text, "CB_TIE_PS_MID")
    assert (f"line {line}: [breaker CB_TIE_PS_MID] closed = "
            in capsys.readouterr().err)


def test_misspelled_study_section_is_input_error(tmp_path, capsys):
    study = tmp_path / "s.study"
    study.write_text("[load_scal]\nLOAD440_PS = 400\n")
    rc = main(["powerflow", "--grid", "builtin:ac_vessel", "--study",
               str(study), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 1: unknown study section kind 'load_scal'" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the study sections each study kind reads, 23 (kind, section) pairs; any
# other of the 9 section kinds is refused
STEADY = {"breakers", "dispatch", "load_scale", "powerflow"}
READS = {"powerflow": STEADY, "sc-ac": STEADY, "protect": STEADY | {"protect"},
         "tdsim": STEADY | {"sim", "event", "controller"},
         "sc-dc": {"breakers"}, "cct": {"breakers", "cct"}}
HEADERS = {kind: f"[{kind}]" for kind in set().union(*READS.values())}
HEADERS.update(event="[event a]", controller="[controller c]")
# the grid and the extra argv of each study kind
RUNS = {kind: ("builtin:ac_vessel", []) for kind in READS}
RUNS.update({"sc-ac": ("builtin:ac_vessel", ["--bus", "AC_PS"]),
             "sc-dc": ("builtin:dc_vessel", ["--bus", "DC_PS"])})


@pytest.mark.parametrize("kind, section", [
    (kind, section) for kind in sorted(READS) for section in sorted(HEADERS)
    if section not in READS[kind]])
def test_a_section_the_study_does_not_read_is_refused(tmp_path, capsys, kind,
                                                      section):
    """Such a section used to parse and be dropped without a word."""
    study = tmp_path / "s.study"
    study.write_text(f"[breakers]\n{HEADERS[section]}\n")
    grid, extra = RUNS[kind]
    rc = main([kind, "--grid", grid, "--study", str(study),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 2
    assert (f"line 2: {HEADERS[section]} is not read by a {kind} study"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["sc-ac", "protect", "tdsim"])
def test_fault_studies_honour_the_powerflow_section(tmp_path, kind):
    """sc-ac and protect used to read only its slack, and tdsim dropped its
    tol and max_iter."""
    study = tmp_path / "s.study"
    study.write_text("[powerflow]\nmax_iter = 0\n"
                     + PROTECT_STUDY.format(zsi="true") * (kind == "protect")
                     + TDSIM_HEAD * (kind == "tdsim"))
    extra = ["--bus", "AC_PS"] if kind == "sc-ac" else []
    rc = main([kind, "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 3


def test_every_kind_starts_from_one_steady_state(tmp_path, monkeypatch):
    """powerflow, sc-ac, protect and tdsim hand their power flow the one
    SteadyState that the study's [powerflow], [dispatch] and [load_scale]
    give."""
    specs = {}

    def recording(grid, steady, *args, **kwargs):
        specs.setdefault(kind, []).append(steady)
        return solve_ac_powerflow(grid, steady, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_ac_powerflow", recording)
    monkeypatch.setattr(tdsim, "solve_ac_powerflow", recording)
    steady = ("[dispatch]\nDG#01 = 500\n[load_scale]\nLOAD440_PS = 0.8\n"
              "[powerflow]\nslack = DG#02\ntol = 1e-9\nmax_iter = 15\n")
    for kind, extra in (("powerflow", ""), ("sc-ac", ""),
                        ("protect", PROTECT_STUDY.format(zsi="true")),
                        ("tdsim", TDSIM_HEAD)):
        study = tmp_path / f"{kind}.study"
        study.write_text(steady + extra)
        argv = [kind, "--grid", "builtin:ac_vessel", "--study", str(study),
                "--out", str(tmp_path / kind)]
        assert main(argv + ["--bus", "AC_PS"] * (kind == "sc-ac")) == 0
    assert specs == dict.fromkeys(
        ("powerflow", "sc-ac", "protect", "tdsim"),
        [SteadyState("DG#02", 1e-9, 15, {"DG#01": 500.0},
                     {"LOAD440_PS": 0.8})])


@pytest.mark.parametrize("argv", [
    ["i2t", "--trace", "t.csv", "--fuse-i2t", "9350", "--study", "s.study"],
    ["sc-ac", "--grid", "builtin:ac_vessel", "--out", "o"],
    ["sc-dc", "--grid", "builtin:dc_vessel", "--out", "o"],
    ["powerflow", "--grid", "builtin:ac_vessel"],
])
def test_one_spelling_per_input(argv, capsys):
    """i2t read no study, a fault bus could come from [study] bus and the
    output directory from VESSEL_STUDY_OUT."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trace", "--fuse-i2t"])
def test_i2t_requires_its_trace_and_rating(capsys, flag):
    argv = ["i2t", "--trace", "t.csv", "--fuse-i2t", "9350"]
    del argv[argv.index(flag):argv.index(flag) + 2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"the following arguments are required: {flag}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kind, flag", [
    *[(kind, "--strict") for kind in
      ("powerflow", "sc-ac", "sc-dc", "tdsim", "cct")],
    ("tdsim", "--format text"),
])
def test_a_flag_the_study_kind_ignores_is_refused(tmp_path, capsys, kind,
                                                  flag):
    """Only protect and i2t have a verdict --strict can fail, and tdsim
    wrote its CSV whatever --format said; each used to exit 0."""
    grid = "builtin:dc_vessel" if kind == "sc-dc" else "builtin:ac_vessel"
    extra = {"sc-ac": ["--bus", "AC_PS"], "sc-dc": ["--bus", "DC_PS"]}
    with pytest.raises(SystemExit) as exc:
        main([kind, "--grid", grid, "--out", str(tmp_path / "o"),
              *extra.get(kind, []), *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_i2t_format_without_out_is_refused(tmp_path, capsys, fmt):
    """--format formats the i2t.csv artifact; with no --out it used to
    change nothing and exit 0."""
    out = tmp_path / "out"
    main(["sc-dc", "--grid", "builtin:dc_vessel", "--bus", "DC_PS",
          "--out", str(out)])
    capsys.readouterr()
    trace = str(out / "trace_BAT_PS.csv")
    rc = main(["i2t", "--trace", trace, "--fuse-i2t", "9350",
               "--format", fmt])
    assert rc == 2
    assert "i2t --format formats the --out artifact" in capsys.readouterr().err
    rc = main(["i2t", "--trace", trace, "--fuse-i2t", "9350",
               "--format", fmt, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / f"i2t.{'txt' if fmt == 'text' else 'csv'}").exists()


@pytest.mark.parametrize("study_text", [
    # the grid used to be validated before the study closed the tie
    "[breakers]\nCB_TIE_MID_SB = true\n",
    # and closing it mid-run used to pull the 50 Hz island to 60 Hz
    TDSIM_HEAD + "[event c]\ntime_s = 0.05\naction = breaker_close\n"
    "target = CB_TIE_MID_SB\n",
])
def test_joining_islands_of_two_frequencies_is_an_input_error(
        tmp_path, capsys, study_text):
    grid = tmp_path / "split.grid"
    grid.write_text(serialize_grid(split_frequency_grid(
        builtin_fixture("ac_vessel"))))
    study = tmp_path / "s.study"
    study.write_text(study_text)
    kind = "tdsim" if "[sim]" in study_text else "powerflow"
    assert main([kind, "--grid", str(grid), "--out", str(tmp_path / "a")]) == 0
    rc = main([kind, "--grid", str(grid), "--study", str(study),
               "--out", str(tmp_path / "b")])
    assert rc == 2
    assert ("island at AC_MID mixes frequencies [50.0, 60.0]"
            in capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("kind, extra", [
    ("powerflow", []), ("sc-ac", ["--bus", "AC_PS"]), ("tdsim", []),
    ("protect", []),
])
@pytest.mark.parametrize("section, bad_id", [
    ("[load_scale]\nLOAD440_PX = 400\n", "LOAD440_PX"),
    ("[dispatch]\nDG#99 = 5\n", "DG#99"),
    ("[powerflow]\nslack = DG#77\n", "DG#77"),
])
def test_unknown_steady_state_ids_are_input_errors(tmp_path, capsys, kind,
                                                   extra, section, bad_id):
    study = tmp_path / "s.study"
    body = {"tdsim": "[sim]\nstep_s = 0.02\nend_s = 0.1\n",
            "protect": PROTECT_STUDY.format(zsi="true")}.get(kind, "")
    study.write_text(body + section)
    rc = main([kind, "--grid", "builtin:ac_vessel", "--study", str(study),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 2
    assert repr(bad_id) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# DG#01's serialized keys from its first dynamics key to its last, and the
# same span without the dynamics block
DG01_SPAN = ("damping_pu = 2.00\nfrequency_hz = 60.00\ninertia_h_s = 1.20\n"
             "pf = 0.80\nrated_kva = 2395.00\nrated_kw = 1916.00\nrpm = 720.00\n"
             "synthetic_dynamics = true\ntd0_st_s = 0.04\ntd0_t_s = 3.50\n"
             "tdc_s = 0.15\nvoltage_v = 690.00\nwinding_resistance_mohm = 1.02\n"
             "xd_pu = 1.80\nxd_st_pu = 0.18\nxd_t_pu = 0.28\n")
NO_DG01_DYNAMICS = (DG01_SPAN, "frequency_hz = 60.00\npf = 0.80\n"
                    "rated_kva = 2395.00\nrated_kw = 1916.00\nrpm = 720.00\n"
                    "voltage_v = 690.00\nwinding_resistance_mohm = 1.02\n")
SECOND_PS_CABLE = ("[branch FDR_LV_SB]", "[branch FDR_LV_PS2]\nfrom = AC_PS\n"
                   "reactance_ohm = 0.03\nresistance_ohm = 0.005\nto = LV_PS\n\n"
                   "[branch FDR_LV_SB]")
CONTROLLER = ("[controller ps]\nmode = peak_shave\ninverter = INV_PS\n"
              "watched = DG#01\np_rating_kw = 1500\nq_rating_kvar = 1500\n")
DP_CONTROLLER = ("[controller {}]\nmode = dp_failover\ninverter = INV_PS\n"
                 "watched = DG#02\np_rating_kw = 1500\nq_rating_kvar = 1500\n")


@pytest.mark.parametrize("kind, grid_edit, study_text, message", [
    ("powerflow", ("rated_kw = 1916.00", "rated_kw = abc"), "",
     "[generator DG#01] rated_kw = 'abc': not a number"),
    # keys of fields no study read used to be parsed and ignored
    ("powerflow", ("rpm = 720.00", "rpm = 720.00\npoles = 4"), "",
     "[generator DG#01] unknown key(s): poles"),
    ("powerflow", ("[battery BAT_PS]", "[battery BAT_PS]\ncapacity_kwh = 1500"),
     "", "[battery BAT_PS] unknown key(s): capacity_kwh"),
    ("powerflow", ("[battery BAT_PS]", "[battery BAT_PS]\nmin_soc = 0.2"), "",
     "[battery BAT_PS] unknown key(s): min_soc"),
    ("powerflow", ("[load CRANE_PS]", "[load CRANE_PS]\nstatic_fraction = 0.2"),
     "", "[load CRANE_PS] unknown key(s): static_fraction"),
    ("powerflow", ("[branch FDR_LV_PS]", "[fuse F]\nelement = BAT_PS\n"
                   "i2t_total_clearing = 9350\nrated_current_a = 400\n\n"
                   "[branch FDR_LV_PS]"),
     "", "[fuse F] unknown key(s): rated_current_a"),
    ("powerflow", ("motor_fraction = 0.80", "motor_fraction = 1.20"), "",
     "error: CRANE_PS: domain: need motor_fraction in [0, 1], got "
     "motor_fraction = 1.2"),
    # a 50 Hz machine on a 60 Hz bus used to run at 60 Hz
    ("powerflow", ("damping_pu = 2.00\nfrequency_hz = 60.00",
                   "damping_pu = 2.00\nfrequency_hz = 50.00"), "",
     "DG#01: frequency: frequency 50.0 Hz differs from bus AC_PS at 60.0 Hz"),
    ("powerflow", ("st_pickup_a = 5000.00\n", ""), "",
     "missing required key 'st_pickup_a'"),
    ("powerflow", ("xd_pu = 1.80\n", ""), "", "missing required key 'xd_pu'"),
    ("powerflow", ("lt_kind = definite", "lt_kind = inverted"), "",
     "long-time kind: unknown kind 'inverted'"),
    ("powerflow", ("voltage_v = 690.00", "voltage_v = 690.00\nvoltage_v = 440"),
     "", "'voltage_v' repeated from line"),
    ("powerflow", None, "[powerflow]\nmax_iter = 2.7\n",
     "[powerflow] max_iter = '2.7': not an integer"),
    ("powerflow", None, "[powerflow]\ntol = 1e-6\ntol = 1e-7\n",
     "'tol' repeated from line 2"),
    ("powerflow", None, "[breakers]\nCB_DG01 = false\n[powerflow]\nslack = DG#01\n",
     "slack generator 'DG#01' is offline"),
    # a dispatch the power flow cannot honour used to be dropped: the flow
    # sets the slack's P, and an offline generator never comes online
    ("powerflow", None, "[dispatch]\nDG#03 = 100\n",
     "dispatch generator 'DG#03' is its island's slack, whose P the flow sets"),
    ("powerflow", None, "[breakers]\nCB_DG01 = false\n[dispatch]\nDG#01 = 500\n",
     "dispatch generator 'DG#01' is offline"),
    ("protect", None, PROTECT_STUDY.format(zsi="true") + "failed_breakers = CB_NOPE\n",
     "unknown breaker 'CB_NOPE'"),
    # a fault_bus beside a fault_element used to be dropped
    ("protect", None, PROTECT_STUDY.format(zsi="true") + "fault_bus = AC_SB\n",
     "[protect] needs exactly one of fault_element and fault_bus"),
    ("protect", None, "[protect]\nzsi = true\n",
     "[protect] needs exactly one of fault_element and fault_bus"),
    # a negative budget used to exit 0 with within_cct=false
    ("protect", None, PROTECT_STUDY.format(zsi="true").replace(
        "0.542", "-1"), "need cct_budget_s in (0, inf), got cct_budget_s = -1.0"),
    ("tdsim", None, TDSIM_HEAD + CONTROLLER.replace("mode = peak_shave\n", ""),
     "[controller ps] missing required key 'mode'"),
    # a controller that watched no generator never acted
    ("tdsim", None, TDSIM_HEAD + CONTROLLER.replace("watched = DG#01\n", ""),
     "line 4: [controller ps] missing required key 'watched'"),
    ("tdsim", None, TDSIM_HEAD + CONTROLLER.replace("INV_PS", "NOPE"),
     "unknown converter 'NOPE'"),
    # a misspelled mode used to leave the inverter idle
    ("tdsim", None, TDSIM_HEAD + CONTROLLER.replace("peak_shave", "peak_shaving"),
     "unknown mode 'peak_shaving'"),
    # a second controller on one inverter used to overwrite the first's
    # setpoint, in either order ([controller dp] runs before [controller ps])
    ("tdsim", None, TDSIM_HEAD + CONTROLLER + DP_CONTROLLER.format("dp"),
     "two controllers on inverter 'INV_PS'"),
    ("tdsim", None, TDSIM_HEAD + CONTROLLER + DP_CONTROLLER.format("z"),
     "two controllers on inverter 'INV_PS'"),
    ("tdsim", None, TDSIM_HEAD + CONTROLLER.replace("DG#01", "DG#99"),
     "unknown generator 'DG#99'"),
    ("tdsim", None, TDSIM_HEAD + "[event up]\ntime_s = 0.05\naction = load_stp\n"
     "target = LOAD440_PS\nscale = 1.1\n", "unknown event action 'load_stp'"),
    ("tdsim", None, TDSIM_HEAD + "[event up]\ntime_s = 0.05\naction = load_step\n"
     "target = LOAD440_PS\n", "load_step LOAD440_PS: scale required"),
    # a negative ramp used to run as a step
    ("tdsim", None, TDSIM_HEAD + "[event up]\ntime_s = 0.05\naction = load_step\n"
     "target = LOAD440_PS\nscale = 1.1\nramp_s = -0.2\n",
     "need ramp_s in [0, inf), got ramp_s = -0.2"),
    # a second section of the same kind and id used to replace the first
    ("tdsim", None, TDSIM_HEAD + "[event up]\ntime_s = 0.05\naction = fault_clear\n"
     "[event up]\ntime_s = 0.08\naction = fault_clear\n", "line 7: [event up] repeated"),
    ("tdsim", None, TDSIM_HEAD + "[sim]\nend_s = 0.2\n", "line 4: [sim] repeated"),
    # and a second section of a kind without ids was dropped
    ("powerflow", None, "[dispatch]\nDG#01 = 1200\n[dispatch extra]\n"
     "DG#02 = 900\n", "line 3: [dispatch extra] takes no id"),
    ("powerflow", None, "[powerflow]\n[powerflow two]\nmax_iter = 0\n",
     "line 2: [powerflow two] takes no id"),
    ("tdsim", None, TDSIM_HEAD + "[event]\ntime_s = 0.05\naction = fault_clear\n",
     "line 4: [event] needs an id"),
    ("tdsim", None, TDSIM_HEAD + "[controller]\nmode = peak_shave\n",
     "line 4: [controller] needs an id"),
    ("cct", None, SHORT_CCT.replace("window_s", "location = 0.5\nbranch = NOPE\n"
                                    "window_s"), "unknown branch 'NOPE'"),
    # tol_s = 0 used to bisect forever once lo and hi were adjacent floats
    ("cct", None, SHORT_CCT + "tol_s = 0\n", "need tol_s in (0, inf), got tol_s = 0.0"),
    ("cct", None, SHORT_CCT + "t_lo_s = 0.1\n",
     "need t_hi_s > t_lo_s = 0.1, got t_hi_s = 0.1"),
    # a negative t_lo_s used to count as a stable clearing time
    ("cct", None, SHORT_CCT + "t_lo_s = -0.1\n",
     "need t_lo_s in [0, inf), got t_lo_s = -0.1"),
    # a negative loading used to simulate a motoring machine
    ("cct", None, SHORT_CCT + "loading = -0.5\n",
     "need loading in (0, 1], got loading = -0.5"),
    # a loading above 1 dispatched the machine above its rating
    ("cct", None, SHORT_CCT + "loading = 1.5\n",
     "need loading in (0, 1], got loading = 1.5"),
    # a dispatch of 1e308 converged, with the slack motoring at -1e308 kW
    ("powerflow", None, "[dispatch]\nDG#02 = 1e308\n",
     "need dispatch DG#02 <= its rated_kw = 2570.0, got dispatch DG#02 = "
     "1e+308"),
    # a negative window used to fail in numpy with an empty reduction
    ("cct", None, SHORT_CCT.replace("0.3", "-0.2"),
     "need window_s in (0, inf), got window_s = -0.2"),
    # a window below half a step can end a probe before its clearing
    ("cct", None, SHORT_CCT.replace("0.3", "0.004"),
     "need window_s >= step_s, got window_s = 0.004"),
    # a fault location outside the cable used to fault its far end
    ("tdsim", None, TDSIM_HEAD + "[event f]\ntime_s = 0.05\naction = fault_apply\n"
     "target = FDR_LV_PS\nlocation = 7.5\n", "need location in [0, 1], got location = 7.5"),
    ("cct", None, SHORT_CCT + "location = -0.5\n",
     "need location in [0, 1], got location = -0.5"),
    # a missing dynamics block used to be a numerical failure (exit 3)
    ("tdsim", NO_DG01_DYNAMICS, TDSIM_HEAD, "DG#01: no dynamics block"),
    ("cct", NO_DG01_DYNAMICS, SHORT_CCT, "DG#01: no dynamics block"),
    ("sc-ac --bus AC_PS", NO_DG01_DYNAMICS, "", "DG#01: no dynamics block"),
    # a machine that feeds its own swing, or has no rotor, used to validate
    ("tdsim", ("damping_pu = 2.00", "damping_pu = -5.00"), TDSIM_HEAD,
     "error: DG#01: domain: need dynamics.damping in [0, inf), got "
     "dynamics.damping = -5.0"),
    ("cct", ("inertia_h_s = 1.20", "inertia_h_s = 0.00"), SHORT_CCT,
     "error: DG#01: domain: need dynamics.inertia_h in (0, inf), got "
     "dynamics.inertia_h = 0.0"),
    # such an id parsed, but no key could name it
    ("powerflow", ("[bus AC_PS]", "[bus Inf]"), "", "non-finite number 'Inf' as id"),
    # a cable away from the machine's bus used to be faulted, its location
    # measured from its own from-bus
    ("cct", None, SHORT_CCT + "location = 0.5\nbranch = FDR_LV_SB\n",
     "DG#01: need one cable at AC_PS named 'FDR_LV_SB' to fault, found 0"),
    # and a bus fault used to ignore its branch, known or not
    ("cct", None, SHORT_CCT + "location = 0\nbranch = NOPE\n",
     "unknown branch 'NOPE'"),
    ("cct", None, SHORT_CCT + "location = 0\nbranch = FDR_LV_SB\n",
     "DG#01: need one cable at AC_PS named 'FDR_LV_SB' to fault, found 0"),
    # two cables at the machine's bus and none named used to be exit 3
    ("cct", SECOND_PS_CABLE, SHORT_CCT + "location = 0.5\n",
     "DG#01: need one cable at AC_PS to fault, found 2"),
    # a repeated [branch FDR_LV_PS] used to run, and tdsim kept the last one
    ("powerflow", ("[branch FDR_LV_SB]", SECOND_PS_CABLE[1].replace(
        "FDR_LV_PS2", "FDR_LV_PS")), "",
     "error: FDR_LV_PS: duplicate id: id declared twice"),
    # a location on a bus fault, or on any other event, used to be ignored
    ("tdsim", None, TDSIM_HEAD + "[event f]\ntime_s = 0.05\naction = fault_apply\n"
     "target = AC_PS\nlocation = 0.5\n",
     "fault_apply AC_PS: location applies only to a cable"),
    ("tdsim", None, TDSIM_HEAD + "[event c]\ntime_s = 0.05\naction = fault_clear\n"
     "location = 0.5\n", "fault_clear: location applies only to fault_apply"),
    # so were the other keys an action does not read
    ("tdsim", None, TDSIM_HEAD + "[event c]\ntime_s = 0.05\naction = fault_clear\n"
     "scale = 2\n", "fault_clear: scale applies only to load_step"),
    ("tdsim", None, TDSIM_HEAD + "[event c]\ntime_s = 0.05\naction = fault_clear\n"
     "ramp_s = 0.5\n", "fault_clear: ramp_s applies only to load_step"),
    ("tdsim", None, TDSIM_HEAD + "[event c]\ntime_s = 0.05\naction = fault_clear\n"
     "target = AC_PS\n", "fault_clear: target applies only to load_step, "
     "breaker_open, breaker_close, fault_apply"),
    ("tdsim", None, TDSIM_HEAD + "[event o]\ntime_s = 0.05\naction = breaker_open\n"
     "target = CB_DG02\nscale = 0.5\n", "breaker_open: scale applies only to "
     "load_step"),
    # an offline machine used to read stable at both bracket ends: exit 3
    ("cct", None, "[breakers]\nCB_DG01 = false\n" + SHORT_CCT,
     "cct machine 'DG#01' is offline"),
    # a machine alone in its island used to be the power flow's slack, and
    # its loading was ignored
    ("cct", None, "[breakers]\n" + "".join(f"{b} = false\n"
                                           for b in PS_ISLAND_OPEN) + SHORT_CCT,
     "cct machine 'DG#01': no other online generator in its island"),
    # a negative iteration limit used to crash the solver with a traceback
    ("powerflow", None, "[powerflow]\nmax_iter = -1\n",
     "need max_iter in [0, inf), got max_iter = -1"),
    # a negative tolerance used to run every iteration: exit 3
    ("powerflow", None, "[powerflow]\ntol = -1e-8\n",
     "need tol in [0, inf), got tol = -1e-08"),
    # so did closing a generator's breaker mid-run
    ("tdsim", None, TDSIM_HEAD + "[breakers]\nCB_DG01 = false\n[event c]\n"
     "time_s = 0.05\naction = breaker_close\ntarget = CB_DG01\n",
     "DG#01: bringing a generator online mid-run is not supported"),
    # a key of the other controller mode used to be accepted and ignored
    ("tdsim", None, TDSIM_HEAD + DP_CONTROLLER.format("dp")
     + "p_threshold_kw = 1200\n",
     "dp_failover: p_threshold_kw applies only to peak_shave"),
    ("tdsim", None, TDSIM_HEAD + CONTROLLER + "dp_delay_s = 0.2\n",
     "peak_shave: dp_delay_s applies only to dp_failover"),
    # a study kind that needs its section, run without it
    ("cct", None, "", "cct study requires a [cct] section"),
    ("protect", None, "", "protect study requires a [protect] section"),
    ("powerflow", ("[bus AC_MID]", "[bus]"), "",
     "line 9: [bus] section requires an id"),
    ("powerflow", ("kind = ac", "kind = hvdc"), "",
     "AC_PS: bus kind: unknown bus kind 'hvdc'"),
    ("tdsim", None, TDSIM_HEAD + DP_CONTROLLER.format("dp") + "dp_delay_s = 0\n",
     "need dp_delay_s in (0, inf), got dp_delay_s = 0.0"),
    # a datasheet Ikd above the machine's own I'kd
    ("sc-ac --bus AC_PS", ("td0_t_s = 3.50", "ikd_a = 100000\ntd0_t_s = 3.50"),
     "", "DG#01: decrement ordering violated"),
    # and a DP-failover trip before dp_delay_s of output was recorded
    ("tdsim", None, TDSIM_HEAD + DP_CONTROLLER.format("dp").replace(
        "DG#02", "DG#01") + "dp_delay_s = 0.1\n[event o]\ntime_s = 0.05\n"
     "action = breaker_open\ntarget = CB_DG01\n",
     "dp_failover controller on INV_PS: DG#01 lost at t=0.050 s, before "
     "dp_delay_s = 0.1"),
    # a negative load scale used to turn the load into a generator
    ("tdsim", None, TDSIM_HEAD + "[event s]\ntime_s = 0.05\naction = load_step\n"
     "target = LOAD440_PS\nscale = -2.0\n",
     "need scale in [0, inf), got scale = -2.0"),
    ("powerflow", None, "[load_scale]\nLOAD440_PS = -1.0\n",
     "need load_scale in [0, inf), got load_scale LOAD440_PS = -1.0"),
    ("sc-ac --bus AC_PS", None, "[load_scale]\nLOAD440_PS = -1.0\n",
     "need load_scale in [0, inf), got load_scale LOAD440_PS = -1.0"),
    # and a negative dispatch to run a diesel as a motor, on reverse power
    ("powerflow", None, "[dispatch]\nDG#01 = -300.0\n",
     "need dispatch in [0, inf), got dispatch DG#01 = -300.0"),
    ("tdsim", None, TDSIM_HEAD + "[dispatch]\nDG#01 = -300.0\n",
     "need dispatch in [0, inf), got dispatch DG#01 = -300.0"),
    # an event after the end was never applied, and one before 0 was
    # applied at 0
    ("tdsim", None, TDSIM_HEAD + "[event s]\ntime_s = 0.5\naction = load_step\n"
     "target = LOAD440_PS\nscale = 1.2\n",
     "load_step at time_s = 0.5: need time_s <= end_s = 0.1"),
    ("tdsim", None, TDSIM_HEAD + "[event s]\ntime_s = -0.5\naction = load_step\n"
     "target = LOAD440_PS\nscale = 1.2\n",
     "need time_s in [0, inf), got time_s = -0.5"),
    # an end that is not a whole number of steps stopped at 0.09 s, and
    # never applied this event
    ("tdsim", None, "[sim]\nstep_s = 0.03\nend_s = 0.1\n[event s]\n"
     "time_s = 0.095\naction = load_step\ntarget = LOAD440_PS\nscale = 1.2\n",
     "end_s = 0.1 is not a whole number of steps of step_s = 0.03"),
    # a step count numpy cannot index used to end in numpy's ValueError
    ("tdsim", None, "[sim]\nstep_s = 1e-300\nend_s = 0.1\n",
     "step_s = 1e-300 cuts end_s = 0.1 into more steps than an array can "
     "index"),
    ("cct", None, SHORT_CCT.replace("0.01", "1e-300"),
     "step_s = 1e-300 cuts t_hi_s = 0.1 plus window_s = 0.3 into more steps "
     "than an array can index"),
    ("tdsim", None, "[sim]\nstep_s = 0.1\nend_s = 0.1\n",
     "need end_s > step_s = 0.1, got end_s = 0.1"),
    # breakers that engines read differently, or not at all, used to run
    ("powerflow", ("[breaker CB_TIE_MID_SB]", "[breaker CB_X]\nfrom = DG#01\n"
                   "to = DG#02\n\n[breaker CB_TIE_MID_SB]"), "",
     "error: CB_X: breaker ends: neither DG#01 nor DG#02 is a bus"),
    ("powerflow", ("[breaker CB_TIE_MID_SB]", "[breaker CB_X]\nfrom = AC_PS\n"
                   "to = AC_PS\n\n[breaker CB_TIE_MID_SB]"), "",
     "error: CB_X: breaker ends: both ends are bus AC_PS"),
    ("powerflow", ("to = AC_PS\nzsi", "to = AC_SB\nzsi"), "",
     "error: CB_DG01: breaker ends: DG#01 does not sit on bus AC_SB"),
    ("powerflow", ("[breaker CB_TIE_MID_SB]", "[breaker CB_DG01B]\n"
                   "from = DG#01\nto = AC_PS\n\n[breaker CB_TIE_MID_SB]"), "",
     "error: CB_DG01B: breaker ends: DG#01 already has breaker CB_DG01"),
    # and so did inputs no engine read
    ("powerflow", ("[bus BATDC_PS]\nkind = dc",
                   "[bus BATDC_PS]\nfrequency_hz = 60\nkind = dc"), "",
     "error: BATDC_PS: frequency: DC bus with a frequency of 60.0 Hz"),
    ("powerflow", ("kind = inverter\np_set_kw = 0.00",
                   "kind = grid_inverter\np_set_kw = 50"), "",
     "error: INV_PS: set-point: a grid_inverter draws nothing, got "
     "p_set_kw = 50.0"),
    # grid values that validated and then crashed an engine with a
    # ZeroDivisionError traceback
    ("sc-ac --bus AC_PS", ("xr_ratio = 10.00", "xr_ratio = 0"), "",
     "error: CRANE_PS: domain: need xr_ratio in (0, inf), got xr_ratio = 0.0"),
    ("sc-ac --bus AC_PS", ("tdc_s = 0.15\nvoltage_v = 690.00\n"
                           "winding_resistance_mohm = 1.02",
                           "voltage_v = 690.00\nwinding_resistance_mohm = 0"), "",
     "error: DG#01: domain: need winding_resistance_mohm in (0, inf), got "
     "winding_resistance_mohm = 0.0"),
    ("powerflow", ("from = AC_PS\nreactance_ohm = 0.03\nresistance_ohm = 0.005",
                   "from = AC_PS\nreactance_ohm = 0\nresistance_ohm = 0"), "",
     "error: FDR_LV_PS: domain: need reactance_ohm in (0, inf), got "
     "reactance_ohm = 0.0"),
    # and a negative ZSI delay tripped every locked backup before the
    # intended breakers
    ("protect", ("zsi_delay_s = 0.10", "zsi_delay_s = -0.2"),
     PROTECT_STUDY.format(zsi="true"),
     "error: CB_DG01: domain: need tcc.zsi_extended_delay in [0, inf), got "
     "tcc.zsi_extended_delay = -0.2"),
])
def test_input_defects_are_input_errors(tmp_path, capsys, kind, grid_edit,
                                        study_text, message):
    grid = "builtin:ac_vessel"
    if grid_edit:
        text = serialize_grid(builtin_fixture("ac_vessel"))
        assert grid_edit[0] in text
        grid = tmp_path / "bad.grid"
        grid.write_text(text.replace(grid_edit[0], grid_edit[1], 1))
    study = tmp_path / "s.study"
    study.write_text(study_text)
    rc = main([*kind.split(), "--grid", str(grid), "--study", str(study),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, study_text, message", [
    ("tdsim", "[sim]\nstep_s = 0.03\nend_s = 0.1\n",
     "end_s = 0.1 is not a whole number of steps of step_s = 0.03"),
    ("cct", SHORT_CCT + "t_lo_s = 0.2\n",
     "need t_hi_s > t_lo_s = 0.2, got t_hi_s = 0.1"),
    ("protect", "[protect]\nfault_element = DG#01\nfault_bus = AC_SB\n",
     "[protect] needs exactly one of fault_element and fault_bus"),
    ("tdsim", "[event e]\ntime_s = 0.05\naction = explode\n",
     "unknown event action 'explode'"),
    ("tdsim", CONTROLLER.replace("peak_shave", "shave"),
     "controller on INV_PS: unknown mode 'shave'"),
    ("powerflow", "[powerflow]\nmax_iter = 2.5\n",
     "line 3: [powerflow] max_iter = '2.5': not an integer"),
])
def test_a_section_is_refused_as_the_study_is_read(
        tmp_path, capsys, monkeypatch, kind, study_text, message):
    """Each keyed section is its spec once read, so its own defect is
    reported before the breaker states apply and the grid is validated,
    and no engine runs."""
    def never(*args, **kwargs):
        raise AssertionError("called after a refused study")
    for name in ("validate", "solve_ac_powerflow", "simulate", "find_cct"):
        monkeypatch.setattr(cli, name, never)
    study = tmp_path / "s.study"
    study.write_text("[breakers]\nCB_NOPE = false\n" + study_text)
    assert main([kind, "--grid", "builtin:ac_vessel", "--study", str(study),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numeric_ids_are_ids(tmp_path):
    grid = builtin_fixture("dc_vessel")
    text = serialize_grid(grid).replace("DC_PS", "12").replace("DC_SB", "007")
    path = tmp_path / "numeric.grid"
    path.write_text(text)
    rc = main(["sc-dc", "--grid", str(path), "--bus", "12",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    total = _read_csv(tmp_path / "o" / "summary.csv")[-1]
    assert float(total["sustained_a"]) == 16175.0


@pytest.mark.parametrize("kind, study_text, rc, message", [
    # a loading above 1 is refused before it can overflow the solve
    ("cct", "[cct]\nmachine = DG#01\nloading = 1e300\n", 2,
     "need loading in (0, 1], got loading = 1e+300"),
    ("tdsim", "[sim]\nend_s = 0.05\nstep_s = 0.01\n[event a]\ntime_s = 0\n"
     "action = load_step\ntarget = LOAD440_PS\nscale = 1e300\n", 3,
     "network fixed point not converged at t=0.0000 s"),
    ("i2t", "t_s,i_a\n0,1e200\n1,1e200\n", 2,
     "let-through inf A^2s of the trace is not finite"),
])
def test_an_overflow_is_an_error_line_not_a_warning(tmp_path, capsys, kind,
                                                    study_text, rc, message):
    """Values this large used to overflow in numpy: a RuntimeWarning, or an
    exit 1 when warnings are errors, and i2t cleared its fuse at 0 s."""
    path = tmp_path / "input"
    path.write_text(study_text)
    argv = (["i2t", "--trace", str(path), "--fuse-i2t", "5000"]
            if kind == "i2t" else
            [kind, "--grid", "builtin:ac_vessel", "--study", str(path)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cct_tolerance_below_the_float_spacing(tmp_path, monkeypatch, capsys):
    """The search ends once its bracket is two adjacent floats."""
    grid = tmp_path / "smib.grid"
    grid.write_text(serialize_grid(smib_grid()))
    study = tmp_path / "s.study"
    study.write_text("[cct]\nmachine = G1\nloading = 0.8\nlocation = 0\n"
                     "t_hi_s = 0.4\ntol_s = 1e-300\nwindow_s = 1.0\n"
                     "step_s = 0.02\ngovernor = off\navr = off\n")
    cap_probes(monkeypatch, 100)
    assert main(["cct", "--grid", str(grid), "--study", str(study),
                 "--out", str(tmp_path / "o")]) == 0
    rows = _read_csv(tmp_path / "o" / "cct.csv")
    lo = max(float(r["t_clear_s"]) for r in rows if r["stable"] == "true")
    hi = min(float(r["t_clear_s"]) for r in rows if r["stable"] == "false")
    assert hi == math.nextafter(lo, math.inf)
    assert capsys.readouterr().out == f"cct_s = {lo!r}\n"


# a probe's length used to be checked only by the SimConfig of each probe:
# an OverflowError traceback (exit 1), or an input error naming end_s,
# which no [cct] section sets
@pytest.mark.parametrize("keys, rc, message", [
    ("step_s = 1e-310\n", 2, "step_s = 1e-310 cuts t_hi_s = 0.5 plus "
     "window_s = 3.0 into more steps than an array can index"),
    ("t_hi_s = 1e308\n", 2, "step_s = 0.002 cuts t_hi_s = 1e+308 plus "
     "window_s = 3.0 into more steps than an array can index"),
    ("window_s = 1e308\n", 2, "step_s = 0.002 cuts t_hi_s = 0.5 plus "
     "window_s = 1e+308 into more steps than an array can index"),
    # the t_hi probe's end rounded to one step, and now runs two
    ("step_s = 0.01\nwindow_s = 0.01\nt_hi_s = 0.004\n", 3,
     "invalid bracket: stable(0.0)=True, stable(0.004)=True"),
    # SimConfig's default end_s = 10 used to refuse any step above it
    ("step_s = 15\nwindow_s = 20\nt_hi_s = 30\n", 3,
     "integration diverged: speed deviation beyond sanity bound at "
     "t=0.0000 s"),
])
def test_a_cct_probe_length_is_checked_with_the_search_keys(
        tmp_path, capsys, monkeypatch, keys, rc, message):
    """A refused search builds no engine, and so allocates no array."""
    if rc == 2:
        monkeypatch.setattr(tdsim, "_Engine", None)
    study = tmp_path / "s.study"
    study.write_text("[cct]\nmachine = DG#01\n" + keys)
    assert main(["cct", "--grid", "builtin:ac_vessel", "--study", str(study),
                 "--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == f"error: {message}\n"


# each section that builds a library class -> that class
SECTION_CLASSES = {"sim": SimConfig, "event": Event,
                   "controller": ControllerConfig, "cct": CctFaultSpec,
                   "powerflow": SteadyState}
# the fields of a class that another section sets, or none
UNKEYED = {SimConfig: {"governor", "avr"},
           SteadyState: {"dispatch", "load_scale"}}


@pytest.mark.parametrize("kind", SECTION_CLASSES)
def test_every_section_key_names_a_field_of_its_class(kind):
    """`tdsim.FIELD_KEYS` is the one map between a field and its study
    key, and the keys it names are distinct, so the CLI finds a key's field
    by its inverse: the section's table builds the class, so a missing key
    takes that field's default, every key fills the field it names, and
    every field is a key but those another section sets ([cct] sets
    SimConfig's governor and avr, and [dispatch] and [load_scale]
    SteadyState's maps)."""
    cls = SECTION_CLASSES[kind]
    field_of = {key: name for name, key in tdsim.FIELD_KEYS.items()}
    assert len(field_of) == len(tdsim.FIELD_KEYS)
    table = cli._STUDY_SECTIONS[kind]
    assert table.cls is cls and not table.groups
    assert all(k.field == field_of.get(k.name, k.name) and k.scale is None
               for k in table.keys)
    assert {k.field for k in table.keys} == (
        {f.name for f in dataclasses.fields(cls)} - UNKEYED.get(cls, set()))
    assert set(tdsim.FIELD_KEYS) <= {f.name for c in SECTION_CLASSES.values()
                                     for f in dataclasses.fields(c)}


@pytest.mark.xfail(strict=True, reason="known defect: solve_dc_balance "
                   "takes no load scale, so a grid inverter draws the DC "
                   "power of its AC island's load at scale 1")
def test_dc_balance_honours_the_load_scale(tmp_path):
    study = tmp_path / "s.study"
    study.write_text("[load_scale]\nLOAD400_PS = 0.5\n")
    assert main(["powerflow", "--grid", "builtin:dc_vessel", "--study",
                 str(study), "--out", str(tmp_path / "o")]) == 0
    sol = solve_ac_powerflow(builtin_fixture("dc_vessel"),
                             SteadyState(load_scale={"LOAD400_PS": 0.5}))
    assert sol.injections_kw["GINV_PS"][0] == pytest.approx(170.0)
    rows = {r["element"]: float(r["p_kw"])
            for r in _read_csv(tmp_path / "o" / "dcbalance.csv")}
    assert rows["GINV_PS:ac"] == pytest.approx(170.0)
