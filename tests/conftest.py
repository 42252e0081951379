import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# hypothesis imports this module to report a failing example; through libcst
# it raises a DeprecationWarning, which under -W error::DeprecationWarning
# turns the report into an INTERNALERROR that ends the whole run, so it is
# imported here, with that warning ignored (it is absent without libcst)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from vesselstudy import builtin_fixture, sc_ac


@pytest.fixture(scope="session")
def ac_vessel():
    return builtin_fixture("ac_vessel")


@pytest.fixture(scope="session")
def dc_vessel():
    return builtin_fixture("dc_vessel")


@pytest.fixture
def samples(monkeypatch) -> list:
    """The AC traces whose arrays `sc_ac` samples, one entry per sampling."""
    sampled = []
    original = sc_ac._sample

    def counting(trace):
        sampled.append(trace)
        return original(trace)

    monkeypatch.setattr(sc_ac, "_sample", counting)
    return sampled
