"""Shared test configuration: ensure all EVEREST dialects are registered.

Importing :mod:`repro.dialects` populates the global dialect registry that
the IR verifier consults; production entry points (basecamp, the lowering
helpers) import it the same way.
"""

import pytest

import repro.dialects  # noqa: F401 (import for registration side effect)


@pytest.fixture(scope="session")
def rrtmg_inputs():
    """Fig. 3 kernel inputs — the same dict the oracle gates' fixture
    builds (one shared source, repro.apps.wrf.rrtmg)."""
    from repro.apps.wrf.rrtmg import sample_inputs

    return sample_inputs()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden IR snapshots in tests/ir/golden/ instead "
             "of comparing against them",
    )


@pytest.fixture
def tracer():
    """A recording tracer installed for one test; the null one after."""
    from repro.telemetry.trace import disable, enable

    recording = enable()
    yield recording
    disable()
