import pytest
from hypothesis import settings

from eightblocks.varieties import catalog

# property tests draw the same examples on every run, with no per-example
# time limit and no example database carried between runs, so neither a
# slow machine nor an earlier run can change what they test
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def cat():
    return catalog()
