"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def _restore_solver_backend():
    """Put ``REPRO_SOLVER_BACKEND`` back the way each test found it.

    ``repro ... --solver-backend NAME`` exports the name process-wide,
    so a CLI test that passes it would otherwise change the backend of
    every later test in the session.
    """
    prior = os.environ.get("REPRO_SOLVER_BACKEND")
    yield
    if prior is None:
        os.environ.pop("REPRO_SOLVER_BACKEND", None)
    else:
        os.environ["REPRO_SOLVER_BACKEND"] = prior
