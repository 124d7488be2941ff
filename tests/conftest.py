"""Shared fixtures: thermal configs and the lattice windows.

The eigensolves of a window are the expensive step of the brute-force
checks (the field Hamiltonian, plus the reservoir block for each initial
state), and a window caches them, so every (M, lam) pair used by more than
one test lives here with session scope.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from nesslab import ModelParams, ThermalConfig
from nesslab.oracle import build_truncation

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def th12():
    return ThermalConfig(1.0, 2.0)


@pytest.fixture(scope="session")
def sys_m1000_lam0():
    return build_truncation(1000, ModelParams(0.0))


@pytest.fixture(scope="session")
def sys_m1000_lam02():
    return build_truncation(1000, ModelParams(0.2))


@pytest.fixture(scope="session")
def sys_m1000_lam05():
    return build_truncation(1000, ModelParams(0.5))


@pytest.fixture(scope="session")
def sys_m1000_lam075():
    return build_truncation(1000, ModelParams(0.75))


@pytest.fixture(scope="session")
def sys_m1500_lam02():
    return build_truncation(1500, ModelParams(0.2))


@pytest.fixture(scope="session")
def repo_schema():
    """Validator against the shipped CLI output schema."""
    import jsonschema

    path = Path(__file__).resolve().parents[1] / "schemas" / "cli_output.schema.json"
    schema = json.loads(path.read_text())
    validator = jsonschema.Draft202012Validator(schema)

    def check(document):
        validator.validate(document)

    return check
