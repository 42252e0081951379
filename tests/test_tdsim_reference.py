"""The time-domain engine against recorded reference channels.

The reference (``data/tdsim_reference.npz``, written by
``tdsim_reference.py``) comes from an engine that re-assembled and solved
the network at every integration stage.  Network data kept across stages
must reproduce it through every fault, clearing and trip.
"""

import numpy as np
import pytest

from tdsim_reference import DECIMATE, REFERENCE, SCENARIOS, run


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_channels_match_reference(reference, name):
    expected = {key.split("::", 1)[1]: values
                for key, values in reference.items()
                if key.startswith(f"{name}::")}
    ts = run(name)
    assert sorted(ts.channels) == sorted(set(expected) - {"t"})
    np.testing.assert_array_equal(ts.t[::DECIMATE], expected["t"])
    for channel, values in ts.channels.items():
        np.testing.assert_allclose(values[::DECIMATE], expected[channel],
                                   rtol=0.0, atol=1e-8, err_msg=channel)
