import pytest
from hypothesis import settings

# Property tests run the same examples on every run, and no example fails on
# time: a slow spell on a shared machine must not turn into a test failure.
settings.register_profile("genderbeam", deadline=None, derandomize=True)
settings.load_profile("genderbeam")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory shared by the examples of a module's property tests."""
    return tmp_path_factory.mktemp("properties")
