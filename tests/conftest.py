"""Shared fixtures: the bundled example models."""

import pytest

from reference import FIXTURES


@pytest.fixture(scope="session")
def m1():
    from elas.semantics import load_model
    return load_model(str(FIXTURES / "m1.json"))


@pytest.fixture(scope="session")
def m2():
    from elas.semantics import load_model
    return load_model(str(FIXTURES / "m2.json"))
