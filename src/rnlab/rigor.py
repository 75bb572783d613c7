"""Certified real comparisons via outward-rounded interval enclosures.

Strict inequalities between expressions built from integers, rationals and
rational powers are decided by evaluating both sides as mpmath intervals,
doubling the working precision until the enclosures separate.  Purely
rational expressions short-circuit to an exact Fraction comparison, so a
PASS on rational data never depends on floating point at all.

Power products are compared in the log domain: log is strictly increasing
on positive reals, so disjoint enclosures of log(lhs) = sum e_i log b_i
and log(rhs) prove the order of lhs and rhs.  This takes one interval log
per base and precision and no exp.  The logs live in a dict keyed by
(base, iv.dps) that the caller owns and may pass to several comparisons:
max_sigma passes one dict to every comparison of its bisection, so log p,
log C and log D are computed once per precision for the whole call, and
nothing is kept past it.

The precision cap is read from RNLAB_PRECISION_CAP (decimal digits).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import iv

DEFAULT_PRECISION_CAP = 4000  # decimal digits
_START_DPS = 30


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDABLE = "undecidable"


def precision_cap() -> int:
    raw = os.environ.get("RNLAB_PRECISION_CAP", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    return cap if cap > 0 else DEFAULT_PRECISION_CAP


def iv_fraction(fr: Fraction):
    """Enclosure of an exact rational at the current iv precision."""
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


def iv_pow(base: Fraction, exp: Fraction):
    """Enclosure of base**exp for base > 0 and rational exp.

    Integer exponents are applied to the exact rational first; half-integer
    exponents go through one square root; everything else uses exp(log).
    """
    if base <= 0:
        raise ValueError(f"iv_pow needs a positive base, got {base}")
    if exp.denominator == 1:
        return iv_fraction(base ** exp.numerator)
    if exp.denominator == 2:
        return iv.sqrt(iv_fraction(base ** exp.numerator))
    return iv.exp(iv_fraction(exp) * iv.log(iv_fraction(base)))


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
        acc = iv_fraction(self.coeff)
        for base, exp in self.factors:
            acc = acc * iv_pow(base, exp)
        return acc

    def log_enclosure(self, logs: dict):
        """Enclosure of log(coeff) + sum(exp_i * log(base_i)) at the current
        iv precision; logs maps (base, iv.dps) to an enclosure of log(base)
        and is filled on demand."""
        if self.coeff <= 0:
            raise ValueError(
                f"log_enclosure needs a positive coefficient, got {self.coeff}")
        acc = iv.mpf(0)
        for base, exp in ((self.coeff, Fraction(1)), *self.factors):
            key = (base, iv.dps)
            log_base = logs.get(key)
            if log_base is None:
                if base <= 0:
                    raise ValueError(f"iv_pow needs a positive base, got {base}")
                log_base = logs[key] = iv.log(iv_fraction(base))
            acc += iv_fraction(exp) * log_base
        return acc

    def scaled(self, factor) -> PowProd:
        return PowProd(self.coeff * Fraction(factor), self.factors)


def _separate(lhs, rhs) -> Comparison | None:
    if lhs.b < rhs.a:
        return Comparison.LESS
    if lhs.a > rhs.b:
        return Comparison.GREATER
    return None


def decide(build_lhs: Callable[[], object], build_rhs: Callable[[], object],
           cap_digits: int | None = None) -> Comparison:
    """Compare two positive real expressions given as enclosure builders.

    The builders are re-invoked at each precision level; they must read the
    ambient iv context (iv.dps) when constructing their enclosures.
    """
    cap = cap_digits if cap_digits is not None else precision_cap()
    saved = iv.dps
    dps = _START_DPS
    try:
        while True:
            iv.dps = dps
            verdict = _separate(build_lhs(), build_rhs())
            if verdict is not None:
                return verdict
            if dps >= cap:
                return Comparison.UNDECIDABLE
            dps = min(2 * dps, cap)
    finally:
        iv.dps = saved


def rigorous_compare(lhs: PowProd, rhs: PowProd,
                     cap_digits: int | None = None,
                     logs: dict | None = None) -> Comparison:
    """Certified comparison of two power products.

    Exact-rational operands are compared exactly (so equal rationals report
    EQUAL rather than exhausting precision).  Otherwise both must be
    positive, and their log enclosures are compared; logs is the caller's
    (base, iv.dps) -> log(base) dict, a fresh one when omitted.
    """
    lf, rf = lhs.as_fraction(), rhs.as_fraction()
    if lf is not None and rf is not None:
        if lf < rf:
            return Comparison.LESS
        if lf > rf:
            return Comparison.GREATER
        return Comparison.EQUAL
    if logs is None:
        logs = {}
    return decide(lambda: lhs.log_enclosure(logs),
                  lambda: rhs.log_enclosure(logs), cap_digits)


def enclosure_str(x, digits: int = 20) -> tuple[str, str]:
    """Decimal endpoint strings of an interval, for reports."""
    from mpmath import mp, mpf

    saved = mp.dps
    try:
        mp.dps = digits
        lo = mpf(x.a.a)
        hi = mpf(x.b.b)
        return mp.nstr(lo, digits), mp.nstr(hi, digits)
    finally:
        mp.dps = saved
