"""Certified real comparisons via outward-rounded interval enclosures.

rigor is the one module that evaluates on mpmath's interval context, and
_ladder the one place that sets its working precision: every certified
verdict tries 30 digits, then doubles up to the cap, the cap itself last.
The caller's precision is restored on return.  The cap is read from
RNLAB_PRECISION_CAP (decimal digits) by precision_cap, and only once 30
digits have not decided; no argument sets it.  Purely rational expressions
short-circuit to an exact Fraction comparison, so a PASS on rational data
never depends on floating point at all.

Power products are compared in the log domain: log is strictly increasing
on positive reals, so disjoint enclosures of log(lhs) = sum e_i log b_i
and log(rhs) prove the order of lhs and rhs.  This takes one interval log
per base and precision and no exp, and everything after the logs is exact
integer arithmetic: at a working precision of prec bits, each log's
enclosure is read as two integers over 2**(prec + G), the lower end
rounded down and the upper rounded up, and PowProd.log_enclosure returns
the sum of the terms e_i log b_i as two such integers (each term rounded
outward by _times).  Every verdict then compares integers: two log
enclosures by their ends (_separate), and the grid cell where an affine
form in two of them changes sign by floor divisions (sign_change).
decide reads mpmath intervals' ends exactly too (_exact_ends).

G = _GUARD_BITS = 16.  Where |log b| >= 1/2, an interval log at prec bits
is at least 2**-prec wide, one unit in its last place.  Rounding its ends
outward to multiples of 2**-(prec + G) widens it by less than 2**-(G-1) of
its width, a ratio that the exponent's product keeps, and the product's
own outward rounding adds under two multiples more.  So the integer sum is
as tight as the interval terms to a few parts in 2**G, and more guard bits
would buy nothing.  Every base that certify and max_sigma read has
|log b| >= log 2 > 1/2 (p >= 2, C > 7, D >= 2; D = 1 has log exactly 0).
A base nearer to 1 keeps only the absolute precision 2**-(prec + G): still
sound, and a verdict that needs more climbs the ladder.

_iv_log memoizes the integer log ends of a rational base per process,
keyed by numerator, denominator and working precision in bits, 256 at a
time: a certify or max_sigma call reads at most 3 bases at each of at most
9 ladder precisions, the benchmark's certify sweep 101 logs in 303 calls,
and 256 at 4000 digits take about 1 MB (tracemalloc).  A report prints
the exp of the ends at 30 digits, rounded outward (enclosure_str).
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import iv
from mpmath.libmp import (from_int, from_man_exp, mpf_exp, mpi_div,
                          round_ceiling, round_floor, to_rational)

DEFAULT_PRECISION_CAP = 4000  # decimal digits
_START_DPS = 30
_REPORT_DIGITS = 20  # significant digits of each printed enclosure end
_GUARD_BITS = 16  # below the working precision, in each integer log end
_ONE = Fraction(1)


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDABLE = "undecidable"


def precision_cap() -> int:
    """The last working precision of the ladder, in decimal digits, from
    RNLAB_PRECISION_CAP; anything but a positive integer means the default.
    The ladder always tries 30 digits first, so a cap below 30 means 30."""
    raw = os.environ.get("RNLAB_PRECISION_CAP", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    return cap if cap > 0 else DEFAULT_PRECISION_CAP


def iv_fraction(fr: Fraction):
    """Enclosure of an exact rational at the current iv precision.

    The same bits as iv.mpf(numerator) / iv.mpf(denominator): iv.mpf
    rounds an integer down and up by from_int, and iv's division is
    mpi_div at the working precision; only iv's type dispatch is skipped.
    Rounding n/d once per endpoint (from_rational) is not the same: it
    differs once n or d is wider than the precision.
    """
    prec = iv.prec
    ends = _int_ends(fr.numerator, prec)
    if fr.denominator != 1:  # dividing by an exact 1 moves neither end
        ends = mpi_div(ends, _int_ends(fr.denominator, prec), prec)
    return iv.make_mpf(ends)


def _int_ends(k: int, prec: int) -> tuple:
    """k rounded down and up to prec bits; one rounding if k fits."""
    lo = from_int(k, prec, round_floor)
    return lo, lo if k.bit_length() <= prec else from_int(k, prec, round_ceiling)


@functools.lru_cache(maxsize=256)
def _iv_log(numerator: int, denominator: int, prec: int) -> tuple[int, int]:
    """The ends of an enclosure of log(numerator/denominator) as integers
    over 2**(prec + _GUARD_BITS), rounded outward; prec must be the current
    iv precision in bits.  Memoized."""
    if numerator <= 0:
        raise ValueError("a power product needs positive bases, got "
                         f"{Fraction(numerator, denominator)}")
    x = iv.log(iv_fraction(Fraction(numerator, denominator)))
    (a, b), (c, d) = (to_rational(end) for end in x._mpi_)
    scale = 1 << (prec + _GUARD_BITS)
    return a * scale // b, -(-c * scale // d)


def _times(lo: int, hi: int, u: int, v: int) -> tuple[int, int]:
    """The ends of (u/v) * [lo, hi] rounded outward to integers; v > 0."""
    if u < 0:
        lo, hi = hi, lo
    return lo * u // v, -(-hi * u // v)


@dataclass(frozen=True)
class PowProd:
    """coeff * prod(base_i ** exp_i) with rational coeff, bases, exponents."""

    coeff: Fraction
    factors: tuple[tuple[Fraction, Fraction], ...] = ()

    @classmethod
    def of(cls, coeff, *factors) -> PowProd:
        fs = tuple((Fraction(b), Fraction(e)) for b, e in factors)
        return cls(Fraction(coeff), fs)

    def as_fraction(self) -> Fraction | None:
        """Exact rational value, or None if some exponent is non-integral."""
        value = self.coeff
        for base, exp in self.factors:
            if exp.denominator != 1:
                return None
            value *= base ** exp.numerator
        return value

    def log_enclosure(self) -> tuple[int, int]:
        """Integer ends of an enclosure of log(coeff) + sum(exp_i *
        log(base_i)) over 2**(iv.prec + _GUARD_BITS): each term is its
        memoized log's ends (_iv_log) times the exponent, rounded outward
        (_times), and the terms are summed exactly."""
        if self.coeff <= 0:
            raise ValueError(
                f"log_enclosure needs a positive coefficient, got {self.coeff}")
        # log 1 is exactly 0: leaving out a coefficient of 1 changes nothing
        factors = self.factors
        if self.coeff != 1:
            factors = ((self.coeff, _ONE), *factors)
        prec = iv.prec
        lo = hi = 0
        for base, exp in factors:
            b_lo, b_hi = _iv_log(base.numerator, base.denominator, prec)
            t_lo, t_hi = _times(b_lo, b_hi, exp.numerator, exp.denominator)
            lo += t_lo
            hi += t_hi
        return lo, hi


def _exact_ends(pair: tuple) -> list[int] | None:
    """The four ends of a pair of enclosures as integers over one power of
    two, or None if one of them is not finite.  Two integer end pairs of
    log_enclosure, made at one precision, are that already; the ends of
    two mpmath intervals are read exactly (_dyadic) and shifted to the
    least exponent among them."""
    x, y = pair
    if type(x) is tuple:
        return [*x, *y]
    ends = [_dyadic(end) for z in pair for end in z._mpi_]
    if None in ends:
        return None
    least = min(e for _, e in ends)
    return [m << (e - least) for m, e in ends]


def _separate(lhs, rhs) -> Comparison | None:
    ends = _exact_ends((lhs, rhs))
    if ends is None:
        return None
    l_lo, l_hi, r_lo, r_hi = ends
    if l_hi < r_lo:
        return Comparison.LESS
    if l_lo > r_hi:
        return Comparison.GREATER
    return None


def _precisions():
    """The working precisions of one decision: 30 digits, doubled up to the
    cap (the cap itself is the last one tried; a cap below 30 leaves 30)."""
    dps = _START_DPS
    yield dps
    # read only when the first precision did not decide, as it mostly does
    cap = precision_cap()
    while dps < cap:
        dps = min(2 * dps, cap)
        yield dps


def _ladder(verdict: Callable[[], object]):
    """The first verdict() that is not None, with iv.dps set to each of
    _precisions() in turn; UNDECIDABLE if none decides.  The
    caller's iv.dps is restored on return, and when verdict() raises."""
    saved = iv.dps
    try:
        for dps in _precisions():
            iv.dps = dps
            result = verdict()
            if result is not None:
                return result
        return Comparison.UNDECIDABLE
    finally:
        iv.dps = saved


def decide(build_lhs: Callable[[], object], build_rhs: Callable[[], object]
           ) -> Comparison:
    """Compare two real expressions given as enclosure builders.

    The builders are re-invoked at each precision of the ladder; they must
    read the ambient iv context (iv.dps) when constructing their enclosures.
    Both return mpmath intervals, or both integer end pairs of
    log_enclosure; either way the ends are compared as exact integers
    (_exact_ends), and an end that is not finite decides nothing.
    """
    return _ladder(lambda: _separate(build_lhs(), build_rhs()))


def rigorous_compare(lhs: PowProd, rhs: PowProd) -> Comparison:
    """Certified comparison of two power products.

    Exact-rational operands are compared exactly (so equal rationals report
    EQUAL rather than exhausting precision).  Otherwise both must be
    positive, and their log enclosures are compared.
    """
    lf, rf = lhs.as_fraction(), rhs.as_fraction()
    if lf is not None and rf is not None:
        if lf < rf:
            return Comparison.LESS
        if lf > rf:
            return Comparison.GREATER
        return Comparison.EQUAL
    return decide(lhs.log_enclosure, rhs.log_enclosure)


def _dyadic(x) -> tuple[int, int] | None:
    """An mpf endpoint as exact (m, e) with value m * 2**e, or None for an
    infinity or a nan."""
    sign, man, exp, bc = x
    if not man:
        return (0, 0) if bc == 0 else None
    return (-int(man) if sign else int(man)), exp


def sign_change(build: Callable[[], tuple], first: int, step: int,
                den: int, n: int) -> tuple[int, int]:
    """Where alpha + gamma*s changes sign on the grid s_t = (first +
    t*step)/den, t = 0..n, for integers first, step, den, n > 0, when the
    caller has proven that the form is positive on an initial segment of
    the grid.

    build returns integer end pairs of log_enclosure for the fixed reals
    (alpha, gamma) at the ambient iv precision; it is called once per
    precision of the ladder.  The result is (i, j), i < j: at the deciding
    precision, the form is proven positive at every t <= i and, its
    positive set being an initial segment, not positive at any t >= j.  It
    is decided when j = i + 1: (-1, 0) if the form is negative at s_0 and
    (n, n + 1) if it is positive at s_n.  After the cap it is the bounds of
    the last precision, (-1, n + 1) while s_0 is undecided and (0, n + 1)
    while s_n is.

    With den*(alpha + gamma*s_t) = alpha*den + gamma*(first + t*step), the
    lower ends (a_lo, g_lo) give a lower bound f_lo(t) on it and the upper
    ends an upper bound f_hi(t), as den and first + t*step are positive.
    Once f_lo(0) > 0 and f_hi(n) < 0, g_hi < 0 follows:
        g_hi*(first + n*step) < -a_hi*den <= -a_lo*den < g_lo*first
        <= g_hi*first,
    so g_hi*n*step < 0, and g_lo <= g_hi < 0.  Then f_lo and f_hi decrease
    in t, so f_lo(t) > 0 exactly for t <= i = (f_lo(0) - 1) // (-g_lo*step),
    and f_hi(t) < 0 exactly for t >= j = f_hi(0) // (-g_hi*step) + 1.
    """
    if min(first, step, den, n) <= 0:
        raise ValueError(f"sign_change needs a positive grid, got first = "
                         f"{first}, step = {step}, den = {den}, n = {n}")
    bounds = (-1, n + 1)

    def at_this_precision() -> tuple[int, int] | None:
        nonlocal bounds
        (a_lo, a_hi), (g_lo, g_hi) = build()
        lo0, hi0 = a_lo * den + g_lo * first, a_hi * den + g_hi * first
        last = first + n * step
        if hi0 < 0:
            bounds = (-1, 0)
        elif lo0 <= 0:
            bounds = (-1, n + 1)
        elif a_lo * den + g_lo * last > 0:
            bounds = (n, n + 1)
        elif a_hi * den + g_hi * last >= 0:
            bounds = (0, n + 1)
        else:
            bounds = ((lo0 - 1) // (-g_lo * step),
                      hi0 // (-g_hi * step) + 1)
        return bounds if bounds[1] == bounds[0] + 1 else None

    _ladder(at_this_precision)
    return bounds


def round_scaled(x: Fraction, scale: int, up: bool) -> int:
    """x * 10**scale rounded down to an integer, or up if up."""
    return (math.ceil if up else math.floor)(x * Fraction(10) ** scale)


def _decimal(x: Fraction, up: bool) -> str:
    """x > 0 rounded down, or up if up, to _REPORT_DIGITS significant
    digits in mp.nstr's notation: fixed point for a decimal exponent e with
    -6 < e < _REPORT_DIGITS, else d.ddde+N; trailing zeros stripped."""
    if x <= 0:
        raise ValueError(f"a printed enclosure end must be positive, got {x}")
    n = _REPORT_DIGITS
    # x * 10**s >= 1 has e + 1 + s digits: the bit lengths put log10(x) in
    # ((b - 1) log10(2), (b + 1) log10(2)), and 0.30103 > log10(2)
    b = x.numerator.bit_length() - x.denominator.bit_length()
    s = n - b * 30103 // 10 ** 5
    e = len(str(round_scaled(x, s, False))) - 1 - s
    digits = str(round_scaled(x, n - 1 - e, up))
    if len(digits) > n:  # rounded up to 10**(e + 1)
        digits, e = digits[:n], e + 1
    if -6 < e < n:
        digits, split, suffix = "0" * -e + digits, max(e, 0) + 1, ""
    else:
        split, suffix = 1, f"e{e:+d}"
    return f"{digits[:split]}.{digits[split:].rstrip('0') or '0'}{suffix}"


def enclosure_str(pp: PowProd) -> tuple[str, str]:
    """Decimal ends of an enclosure of pp for reports, each rounded outward
    (_decimal): pp's value where it is rational, else the exp of the
    integer ends of pp.log_enclosure() in the ladder's first round (the
    logs that a verdict made there), the lower rounded down, the upper up."""
    lo = hi = pp.as_fraction()
    if lo is None:
        prec, ends = _ladder(lambda: (iv.prec, pp.log_enclosure()))
        lo, hi = (Fraction(*to_rational(mpf_exp(
            from_man_exp(end, -prec - _GUARD_BITS), prec, rnd)))
            for end, rnd in zip(ends, (round_floor, round_ceiling)))
    return _decimal(lo, False), _decimal(hi, True)
