from fractions import Fraction

import pytest


@pytest.fixture(autouse=True)
def _empty_log_memo():
    # rigor keeps the integer log ends of each base per process; emptying
    # the memo before each test keeps the tests that count logs independent
    # of the tests that ran before them
    from rnlab.rigor import _iv_log
    _iv_log.cache_clear()


@pytest.fixture
def logged(monkeypatch) -> list:
    """(base, precision in bits) of each log that rigor computes from here
    on, in order: _fraction_ends is the first step of every integer log
    that the memo does not hold."""
    from rnlab import rigor
    calls = []
    real = rigor._fraction_ends

    def counting(n, d, prec):
        calls.append((Fraction(n, d), prec))
        return real(n, d, prec)

    monkeypatch.setattr(rigor, "_fraction_ends", counting)
    return calls
