"""The closed-form solve of demand-free islands against the fixed point."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vesselstudy import SimConfig, SteadyState, tdsim  # noqa: E402
from vesselstudy.tdsim import Event  # noqa: E402

from helpers import reference_solve, smib_grid  # noqa: E402

BARE_SMIB = SimConfig(step=0.005, governor=False, avr=False)


def bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a float or complex array (0.0 and -0.0 differ)."""
    return np.ascontiguousarray(a).view(np.uint64)


faults = (st.just(None)
          | st.builds(Event, st.just(0.25), st.just("fault_apply"),
                      st.sampled_from(["B_M", "B_INF"]))
          | st.builds(Event, st.just(0.25), st.just("fault_apply"),
                      st.just("LINE"), location=st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=200)
@given(loading=st.floats(0.7, 1.0),
       fault=faults,
       delta=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
       speed=st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=2),
       emf=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
       warm=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3,
                     max_size=3))
def test_smib_closed_form_matches_fixed_point(loading, fault, delta, speed,
                                              emf, warm):
    """On the SMIB grid (no demands) the closed form gives the fixed
    point's (pe, qe, vt) and voltages bit for bit, at any machine state,
    warm start and fault, a line fault at a splice node included."""
    eng = tdsim._Engine(smib_grid(), (), BARE_SMIB,
                        SteadyState(dispatch={"G1": loading * 900.0}))
    eng.fault = fault
    eng._factor()
    (isl,) = eng.islands
    assert isl.linear
    x = np.column_stack((delta, speed, emf, [0.8, 0.0]))
    v0 = np.array(warm[:len(isl.v)], dtype=complex)

    isl.v = v0.copy()
    got = eng._solve(x.ravel().tolist(), 0.3)
    v_got = isl.v
    isl.v = v0.copy()
    ref = reference_solve(eng, x, 0.3)
    for a, b in zip(got + (v_got,), ref + (isl.v,)):
        np.testing.assert_array_equal(bits(a), bits(b))
