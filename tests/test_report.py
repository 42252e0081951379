"""Artifact rendering against a cell-by-cell reference.

The renderers format whole columns at once; every artifact they write must
equal, byte for byte, what applying `fmt` to each cell and joining the rows
gives.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from vesselstudy import report
from vesselstudy.report import fmt
from vesselstudy.tdsim import TimeSeries

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_table(header, rows):
    cells = [header] + [[fmt(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    return "\n".join("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip()
                     for r in cells) + "\n"


# values where the shortest repr changes form: signed zero, subnormals, the
# switch to exponent notation below 1e-4 and from 1e16, non-finite values
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1e-5, 9.999999999999999e-06, 1.0000000000000001e-05, 1e-4,
               9.999999999999998e15, 1e16, 1.0000000000000002e16, -1e16, 0.1]

floats64 = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
floats32 = st.one_of(
    st.sampled_from([v for v in EDGE_FLOATS
                     if not math.isfinite(v) or v == float(np.float32(v))]),
    st.floats(width=32))

# lengths around the renderer's blocks (256 rows of 4 columns, 512 of 2)
# and arbitrary ones
lengths = st.one_of(st.sampled_from([0, 1, 255, 256, 257, 511, 512, 513, 1025]),
                    st.integers(0, 40))


@st.composite
def float_columns(draw, count):
    """`count` equal-length float64 or float32 arrays."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    elements = floats64 if dtype is np.float64 else floats32
    n = draw(lengths)
    cols = []
    for _ in range(count):
        values = draw(st.lists(elements, min_size=1, max_size=30))
        cols.append(np.resize(np.array(values, dtype=dtype), n))
    return cols


cells = st.one_of(
    floats64,
    floats64.map(np.float64),
    floats32.map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-10**20, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(st.characters(blacklist_characters=",\n\r"), max_size=8),
    st.none(),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 6))
    header = draw(st.lists(st.text(min_size=1, max_size=6),
                           min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=25))
    return header, rows


@settings(deadline=None)
@given(tables())
def test_tables_match_reference(table):
    header, rows = table
    assert report.render_csv(header, rows) == reference_csv(header, rows)
    assert report.render_table(header, rows) == reference_table(header, rows)


@settings(deadline=None)
@given(float_columns(4))
def test_ac_trace_matches_reference(cols):
    trace = SimpleNamespace(t=cols[0], iac=cols[1], idc=cols[2],
                            envelope=cols[3])
    expected = reference_csv(["t_s", "iac_a", "idc_a", "envelope_a"],
                             list(zip(*cols)))
    assert report.ac_trace_csv(trace) == expected
    t_cells = report.format_column(trace.t)
    assert report.ac_trace_csv(trace, t_cells) == expected


@settings(deadline=None)
@given(float_columns(2), st.booleans())
def test_dc_trace_matches_reference(cols, total):
    trace = SimpleNamespace(t=cols[0], i=cols[1])
    expected = reference_csv(["t_s", "i_total_a" if total else "i_a"],
                             list(zip(*cols)))
    assert report.dc_trace_csv(trace, total=total) == expected
    t_cells = report.format_column(trace.t)
    assert report.dc_trace_csv(trace, total=total, t_cells=t_cells) == expected


@settings(deadline=None)
@given(float_columns(4))
def test_timeseries_matches_reference(cols):
    names = ["b.v_pu", "a.p_kw", "sys.p_loss_kw"]
    ts = TimeSeries(t=cols[0], channels=dict(zip(names, cols[1:])))
    ordered = sorted(names)
    rows = list(zip(cols[0], *(ts.channels[n] for n in ordered)))
    expected = reference_csv(["t_s"] + ordered, rows)
    assert report.timeseries_csv(ts) == expected


def test_fmt_numpy_bool_matches_python_bool():
    assert fmt(np.bool_(True)) == fmt(True) == "true"
    assert fmt(np.bool_(False)) == fmt(False) == "false"


def test_shared_time_column_must_match_length():
    trace = SimpleNamespace(t=np.arange(3.0), i=np.ones(3))
    with pytest.raises(ValueError):
        report.dc_trace_csv(trace, t_cells=["0.0", "1.0"])


@pytest.mark.parametrize("values", [
    np.zeros(300),                                  # constant
    np.full(300, -0.0),                             # constant -0.0
    np.full(300, math.nan),
    np.array([], dtype=np.float64),
    np.array([], dtype=np.float32),
    np.array([2.5]),
    np.full(300, 0.1, dtype=np.float32),
    np.full(300, 0.1, dtype=">f8"),                 # non-native byte order
    np.r_[-0.0, np.zeros(299)],                     # first element differs
    np.r_[np.zeros(299), -0.0],                     # last element differs
    np.r_[np.zeros(150), -0.0, np.zeros(149)],      # only an inner one
    np.r_[1.0, np.ones(298), np.nextafter(1.0, 2.0)],
    np.r_[math.nan, np.ones(299)],
    np.arange(600.0)[::2],                          # strided view
], ids=lambda v: f"{v.dtype}-{len(v)}")
def test_format_column_matches_repr(values):
    assert report.format_column(values) == list(map(repr, values.tolist()))


@st.composite
def near_constant(draw):
    """A constant block, or one with a single different element anywhere."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    elements = floats64 if dtype is np.float64 else floats32
    values = np.full(draw(st.integers(0, 40)), draw(elements), dtype=dtype)
    k = draw(st.integers(0, 40))
    if k < len(values):
        values[k] = draw(elements)
    return values


@settings(deadline=None)
@given(near_constant())
def test_format_column_near_constant(values):
    assert report.format_column(values) == list(map(repr, values.tolist()))
