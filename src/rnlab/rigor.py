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
per base and precision and no exp.

The log of a rational base is memoized per process (_iv_log), keyed by its
numerator, denominator and the working precision in bits, of which the
enclosure is a pure function.  The memo keeps the 256 most recent logs: one
certify or max_sigma call reads at most 3 bases at each of at most 9 ladder
precisions (30, 60, ..., 3840, then the cap of 4000 digits), 27 logs, and
the benchmark's certify sweep reads 101 distinct logs across 303 calls, so
repeated calls in one process find theirs.  256 logs at 4000 digits take
about 1 MB.

affine_sign decides the sign of alpha + gamma*s at many rationals s from
one enclosure of the reals (alpha, gamma) per precision: the endpoints are
read exactly as integers times powers of two, so each sign is an integer
computation.  max_sigma's bisection uses it.
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
def _iv_log(numerator: int, denominator: int, prec: int):
    """Enclosure of log(numerator/denominator), memoized.  prec must be the
    current iv precision in bits: it keys the memo, and the enclosure, made
    at the current precision, depends on nothing else."""
    if numerator <= 0:
        raise ValueError("iv_pow needs a positive base, got "
                         f"{Fraction(numerator, denominator)}")
    return iv.log(iv_fraction(Fraction(numerator, denominator)))


def _log_term(base: Fraction, exp: Fraction):
    """Enclosure of exp * log(base) at the current iv precision."""
    return iv_fraction(exp) * _iv_log(base.numerator, base.denominator, iv.prec)


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
    return iv.exp(_log_term(base, exp))


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

    def log_enclosure(self):
        """Enclosure of log(coeff) + sum(exp_i * log(base_i)) at the current
        iv precision, one memoized log per base (_iv_log)."""
        if self.coeff <= 0:
            raise ValueError(
                f"log_enclosure needs a positive coefficient, got {self.coeff}")
        # log 1 encloses to exactly [0, 0]: leaving out a coefficient of 1,
        # and starting the sum at its first term, changes no bit
        factors = self.factors
        if self.coeff != 1:
            factors = ((self.coeff, _ONE), *factors)
        terms = [_log_term(base, exp) for base, exp in factors]
        return sum(terms[1:], terms[0]) if terms else iv.mpf(0)


def _separate(lhs, rhs) -> Comparison | None:
    if lhs.b < rhs.a:
        return Comparison.LESS
    if lhs.a > rhs.b:
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
    """Compare two positive real expressions given as enclosure builders.

    The builders are re-invoked at each precision of the ladder; they must
    read the ambient iv context (iv.dps) when constructing their enclosures.
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


def _scaled_value(alpha: tuple[int, int], gamma: tuple[int, int],
                  u: int, v: int) -> int:
    """alpha*v + gamma*u for dyadics alpha and gamma, times a power of two
    that makes it an integer (so its sign is exact)."""
    (ma, ea), (mg, eg) = alpha, gamma
    e = min(ea, eg)
    return (ma * v << (ea - e)) + (mg * u << (eg - e))


def _affine_verdict(ends: list | None, u: int, v: int) -> Comparison | None:
    """The sign of alpha*v + gamma*u that the exact dyadic ends (alpha lo,
    alpha hi, gamma lo, gamma hi) prove, or None; u, v > 0."""
    if ends is None:
        return None
    a_lo, a_hi, g_lo, g_hi = ends
    if _scaled_value(a_lo, g_lo, u, v) > 0:
        return Comparison.GREATER
    if _scaled_value(a_hi, g_hi, u, v) < 0:
        return Comparison.LESS
    return None


def affine_sign(build: Callable[[], tuple]
                ) -> Callable[[Fraction], Comparison]:
    """The sign of alpha + gamma*s, as a function of a rational s > 0.

    build returns enclosures of the fixed reals (alpha, gamma) at the
    ambient iv precision; the returned function calls it at most once per
    precision of the ladder, however often it is called itself.  At
    s = u/v, alpha*v + gamma*u increases in alpha and gamma (u, v > 0), so
    its value at the lower (upper) endpoints, an exact integer after
    scaling, proves GREATER when positive (LESS when negative).  Otherwise
    the next precision is tried, and UNDECIDABLE is returned after the cap.
    A call that the cached ends of the first round decide returns their
    verdict without entering the ladder.
    """
    # iv.dps -> exact (alpha lo, alpha hi, gamma lo, gamma hi), or None
    enclosures: dict[int, list | None] = {}

    def at_this_precision(u: int, v: int) -> Comparison | None:
        dps = iv.dps
        if dps not in enclosures:
            ends = [_dyadic(e) for x in build() for e in x._mpi_]
            enclosures[dps] = None if None in ends else ends
        return _affine_verdict(enclosures[dps], u, v)

    def sign(s: Fraction) -> Comparison:
        if s <= 0:
            raise ValueError(f"affine_sign needs s > 0, got {s}")
        u, v = s.numerator, s.denominator
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
