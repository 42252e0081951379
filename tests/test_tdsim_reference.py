"""The time-domain engine against recorded reference channels.

The reference (``data/tdsim_reference.npz``, written by
``tdsim_reference.py``) comes from an engine that re-assembled and solved
the network at every integration stage.  Network data kept across stages
must reproduce it through every fault, clearing and trip, and give the
bits of `helpers.reference_solve`, which assembles and sweeps afresh at
every solve.
"""

from dataclasses import replace

import numpy as np
import pytest

from vesselstudy import Event, EventSchedule, simulate, tdsim

from helpers import reference_solve
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


def _ramp_ends_mid_run():
    """The peak-shave scenario with a shorter ramp that ends between two
    stages, well before the end, while the set-point still moves."""
    grid, _, controllers, cfg = SCENARIOS["peak_shave"]
    events = (Event(0.2, "load_step", "LOAD440_PS", scale=1.45, ramp=0.3037),)
    return grid, events, controllers, replace(cfg, end=1.2)


PARITY = {**SCENARIOS, "ramp_ends_mid_run": _ramp_ends_mid_run()}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_kept_network_data_gives_the_bits_of_rebuilding_it(monkeypatch, name):
    """Each island's epoch and load-state data, kept across stages, give
    the channels of assembling M and sweeping afresh at every solve, bit
    for bit."""
    grid, events, controllers, cfg = PARITY[name]

    def run_it():
        return simulate(grid, EventSchedule(events), controllers, cfg)

    kept = run_it()
    monkeypatch.setattr(tdsim._Engine, "_solve", reference_solve)
    rebuilt = run_it()
    np.testing.assert_array_equal(kept.t, rebuilt.t)
    assert kept.channels.keys() == rebuilt.channels.keys()
    for channel, values in kept.channels.items():
        np.testing.assert_array_equal(values, rebuilt[channel],
                                      err_msg=channel)
