import pytest

from abclab import run_verify_suite


@pytest.fixture(scope="session")
def verify_seed42():
    """The seed-42 verify report, run once per session.  Tests only read it."""
    return run_verify_suite(seed=42)
