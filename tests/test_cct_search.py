"""The CCT search against a reference bisection of full probes."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vesselstudy import SimConfig, find_cct  # noqa: E402
from vesselstudy.tdsim import CctFaultSpec  # noqa: E402

from helpers import reference_cct, smib_grid  # noqa: E402

BARE_SMIB = SimConfig(step=0.005, governor=False, avr=False)


@settings(deadline=None, max_examples=6)
@given(st.floats(0.7, 1.0),
       st.just(0.0) | st.floats(0.2, 0.8))
def test_search_matches_reference_bisection(loading, location):
    """Probes branched from one shared trajectory and stopped at their
    verdict give the same CctResult as probes run from t = 0 over the
    whole window, for a bus fault or a line fault."""
    grid = smib_grid()
    spec = CctFaultSpec("G1", loading=loading, location=location)
    res = find_cct(grid, spec, 0.0, 0.4, 5e-3, BARE_SMIB, window=1.0)
    assert res == reference_cct(grid, spec, 0.0, 0.4, 5e-3, BARE_SMIB, 1.0)
