import pytest


@pytest.fixture(autouse=True)
def _empty_log_memo():
    # rigor keeps the interval log of each base per process; emptying it
    # before each test keeps the tests that count iv.log calls independent
    # of the tests that ran before them
    from rnlab.rigor import _iv_log
    _iv_log.cache_clear()
