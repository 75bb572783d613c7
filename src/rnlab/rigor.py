"""Certified real comparisons via outward-rounded interval enclosures.

rigor is the one module that evaluates on mpmath's interval context, and
_ladder the one place that sets its working precision: every certified
verdict tries 30 digits, then doubles up to the cap, the cap itself last,
and a report's enclosure (enclosure_str) is made in the first round.  The
caller's precision is restored on return.  The cap is read from
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
enclosures by their ends (_separate), the affine forms of affine_sign by
the sign of an integer combination of them.  Enclosures that other
modules build as mpmath intervals are read exactly too (_exact_ends).

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

The log of a rational base is memoized per process (_iv_log), keyed by its
numerator, denominator and the working precision in bits, of which both
the interval log and its integer ends are pure functions.  The memo keeps
the 256 most recent logs: one certify or max_sigma call reads at most 3
bases at each of at most 9 ladder precisions (30, 60, ..., 3840, then the
cap of 4000 digits), 27 logs, and the benchmark's certify sweep reads 101
distinct logs across 303 calls, so repeated calls in one process find
theirs.  256 logs at 4000 digits take about 2 MB (tracemalloc), half of it
the integer ends.

affine_sign decides the sign of alpha + gamma*u/v at many integer pairs
(u, v) from one enclosure of the reals (alpha, gamma) per precision: the
sign of alpha*v + gamma*u at the ends is an integer computation.
max_sigma's bisection uses it.
"""

from __future__ import annotations

import enum
import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import iv, mp, mpf
from mpmath.libmp import from_int, mpi_div, round_ceiling, round_floor

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
def _iv_log(numerator: int, denominator: int, prec: int
            ) -> tuple[object, int, int]:
    """log(numerator/denominator), memoized: its interval enclosure, and
    that enclosure's ends as integers over 2**(prec + _GUARD_BITS), the
    lower rounded down and the upper rounded up.  prec must be the current
    iv precision in bits: it keys the memo and sets the integers' scale,
    and the enclosure, made at the current precision, depends on nothing
    else."""
    if numerator <= 0:
        raise ValueError("iv_pow needs a positive base, got "
                         f"{Fraction(numerator, denominator)}")
    x = iv.log(iv_fraction(Fraction(numerator, denominator)))
    (m_lo, e_lo), (m_hi, e_hi) = (_dyadic(end) for end in x._mpi_)
    scale = prec + _GUARD_BITS
    return (x, _shift_floor(m_lo, e_lo + scale),
            -_shift_floor(-m_hi, e_hi + scale))


def _shift_floor(m: int, k: int) -> int:
    """floor(m * 2**k)."""
    return m << k if k >= 0 else m >> -k


def _times(lo: int, hi: int, u: int, v: int) -> tuple[int, int]:
    """The ends of (u/v) * [lo, hi] rounded outward to integers; v > 0."""
    if u < 0:
        lo, hi = hi, lo
    return lo * u // v, -(-hi * u // v)


def iv_pow(base: Fraction, exp: Fraction):
    """Enclosure of base**exp for base > 0 and rational exp.

    Integer exponents are applied to the exact rational first; half-integer
    exponents go through one square root; everything else uses exp(log),
    with log(base) from the memo of _iv_log.
    """
    if base <= 0:
        raise ValueError(f"iv_pow needs a positive base, got {base}")
    if exp.denominator == 1:
        return iv_fraction(base ** exp.numerator)
    if exp.denominator == 2:
        return iv.sqrt(iv_fraction(base ** exp.numerator))
    log, _, _ = _iv_log(base.numerator, base.denominator, iv.prec)
    return iv.exp(iv_fraction(exp) * log)


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

    def enclosure(self):
        """Enclosure of the product at the current iv precision; an
        irrational power reads the log(base) that log_enclosure made."""
        acc = iv_fraction(self.coeff)
        for base, exp in self.factors:
            acc = acc * iv_pow(base, exp)
        return acc

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
            _, b_lo, b_hi = _iv_log(base.numerator, base.denominator, prec)
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


def _affine_verdict(ends: list | None, u: int, v: int) -> Comparison | None:
    """The sign of alpha*v + gamma*u that the exact integer ends (alpha lo,
    alpha hi, gamma lo, gamma hi) over one power of two prove, or None;
    u, v > 0."""
    if ends is None:
        return None
    a_lo, a_hi, g_lo, g_hi = ends
    if a_lo * v + g_lo * u > 0:
        return Comparison.GREATER
    if a_hi * v + g_hi * u < 0:
        return Comparison.LESS
    return None


def affine_sign(build: Callable[[], tuple]
                ) -> Callable[[int, int], Comparison]:
    """The sign of alpha + gamma*s at s = u/v, as a function of integers
    u, v > 0.

    build returns enclosures of the fixed reals (alpha, gamma) at the
    ambient iv precision, as two integer end pairs of log_enclosure or as
    two mpmath intervals; the returned function calls it at most once per
    precision of the ladder, however often it is called itself.
    alpha*v + gamma*u increases in alpha and gamma, so its value at the
    lower (upper) ends, exact integers over one power of two
    (_exact_ends), proves GREATER when positive (LESS when negative).
    Otherwise the next precision is tried, and UNDECIDABLE is returned
    after the cap.  A call that the cached ends of the first round decide
    returns their verdict without entering the ladder.
    """
    # iv.dps -> exact (alpha lo, alpha hi, gamma lo, gamma hi), or None
    enclosures: dict[int, list | None] = {}

    def at_this_precision(u: int, v: int) -> Comparison | None:
        dps = iv.dps
        if dps not in enclosures:
            enclosures[dps] = _exact_ends(build())
        return _affine_verdict(enclosures[dps], u, v)

    def sign(u: int, v: int) -> Comparison:
        if u <= 0 or v <= 0:
            raise ValueError(f"affine_sign needs s > 0, got {u}/{v}")
        # the ends cached by the ladder's first round settle most calls,
        # with no change of precision
        verdict = _affine_verdict(enclosures.get(_START_DPS), u, v)
        if verdict is not None:
            return verdict
        return _ladder(lambda: at_this_precision(u, v))

    return sign


def enclosure_str(pp: PowProd) -> tuple[str, str]:
    """Decimal endpoint strings of pp's enclosure, for reports.  It is made
    in the ladder's first round, which never returns None, so it reads the
    memoized logs that a verdict made there."""
    x = _ladder(pp.enclosure)
    with mp.workdps(_REPORT_DIGITS):
        return (mp.nstr(mpf(x.a.a), _REPORT_DIGITS),
                mp.nstr(mpf(x.b.b), _REPORT_DIGITS))
