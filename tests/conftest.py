import random

import pytest

# keep the helpers' own asserts under python -O, as pytest does for test modules
pytest.register_assert_rewrite("helpers")

from spanpoly.finact import regular_gset, terminal_gset, unique_to_terminal
from spanpoly.groups import cyclic_group, symmetric_group, trivial_group


@pytest.fixture(scope="session")
def triv():
    return trivial_group()


@pytest.fixture(scope="session")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def c3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def f2(c2):
    """The free two-point C2-set."""
    return regular_gset(c2)


@pytest.fixture(scope="session")
def pt2(c2):
    return terminal_gset(c2)


@pytest.fixture(scope="session")
def u2(f2):
    """The unique map from the free C2-set to the point."""
    return unique_to_terminal(f2)


@pytest.fixture
def rng():
    return random.Random(20260808)
