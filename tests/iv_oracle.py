"""mpmath's interval arithmetic as the tests' oracle for rnlab's integer ends.

rnlab computes every enclosure in integers; the tests keep mpmath as an
independent reference.  iv_fraction encloses a rational as iv.mpf(n) /
iv.mpf(d): iv.mpf rounds each integer down and up to iv's precision, and
the quotient is rounded outward.  at_working_prec sets iv's precision to
rigor's working precision, so that a builder run on rigor's ladder makes
its interval at each rung's precision, and integer_ends reads such an
interval as rigor.decide reads enclosures: as integer ends over 2**(prec
+ G), prec = rigor.working_prec(), each rounded outward.
"""

import contextlib
import math
from fractions import Fraction

from mpmath import iv

from rnlab import rigor


def iv_fraction(fr: Fraction):
    """An enclosure of fr at iv's precision: iv.mpf(n) / iv.mpf(d)."""
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


@contextlib.contextmanager
def at_working_prec():
    """iv's precision set to rigor's working precision, and restored."""
    saved = iv.prec
    iv.prec = rigor.working_prec()
    try:
        yield
    finally:
        iv.prec = saved


def integer_ends(x) -> tuple[int, int]:
    """The ends of the finite mpmath interval x rounded outward to
    integers over 2**(rigor.working_prec() + G)."""
    scale = 2 ** (rigor.working_prec() + rigor._GUARD_BITS)
    ends = []
    for sign, man, exp, bc in x._mpi_:
        if not man and bc:
            raise ValueError(f"an end of {x} is not finite")
        ends.append((-1) ** sign * man * Fraction(2) ** exp * scale)
    return math.floor(ends[0]), math.ceil(ends[1])


def built(make, *args):
    """A rigor.decide builder: the integer ends of make(*args), an mpmath
    interval made at rigor's working precision."""
    def build():
        with at_working_prec():
            return integer_ends(make(*args))

    return build
