"""Certified real comparisons via outward-rounded enclosures.

_ladder is the one place that sets rigor's working precision: every
certified verdict tries 30 digits, then doubles up to the cap, the cap
itself last.  Each rung of d digits is a precision of prec = max(1,
round((d + 1) * 3.3219280948873626)) bits, mpmath's dps_to_prec (103 bits
at 30 digits), read by working_prec(); the caller's precision is restored
on return.  The cap is read from RNLAB_PRECISION_CAP (decimal digits) by
precision_cap, and only once 30 digits have not decided; no argument sets
it.  Purely rational expressions short-circuit to an exact Fraction
comparison, so a PASS on rational data never depends on floating point at
all.  This module is CPython integers alone: it imports no mpmath.

Power products are compared in the log domain: log is strictly increasing
on positive reals, so disjoint enclosures of log(lhs) = sum e_i log b_i
and log(rhs) prove the order of lhs and rhs.  This takes one log per base
and precision and no exp, and everything after the logs is exact integer
arithmetic: at a working precision of prec bits, each log's enclosure is
read as two integers over 2**(prec + G), the lower end rounded down and
the upper rounded up, and PowProd.log_enclosure returns the sum of the
terms e_i log b_i as two such integers (each term rounded outward by
_times).  Every verdict then compares integers: two log enclosures by
their ends (_separate), and the grid cell where an affine form in two of
them changes sign by floor divisions (sign_change).

G = _GUARD_BITS = 16.  Where |log b| >= 1/2, a log rounded to prec bits is
at least 2**-prec wide, one unit in its last place.  Rounding its ends
outward to multiples of 2**-(prec + G) widens it by less than 2**-(G-1) of
its width, a ratio that the exponent's product keeps, and the product's
own outward rounding adds under two multiples more.  So the integer sum is
as tight as the terms to a few parts in 2**G, and more guard bits would
buy nothing.  Every base that certify and max_sigma read has |log b| >=
log 2 > 1/2 (p >= 2, C > 7, D >= 2; D = 1 has log exactly 0).  A base
nearer to 1 keeps only the absolute precision 2**-(prec + G): still
sound, and a verdict that needs more climbs the ladder.

The ends of log(n/d) (_iv_log) are made in four steps, and they are the
ends of an interval log at prec bits: n and d are rounded down and up to
prec bits, and the quotient of the outer pairs rounded outward
(_fraction_ends); the log of each end is enclosed by integers over 2**W
(_log_fixed); each end of that enclosure is rounded to prec bits and then
to a multiple of 2**-(prec + G), down for the lower end of the log and up
for the upper (_log_round); and the result is taken only when both ends
of the enclosure round to the same integer.  Otherwise the enclosure is
made again with _ZIV_BITS = 32 more bits, and so on (Ziv's rounding test,
_ziv).  log is monotone and both roundings are, so agreeing ends give the
rounding of the log itself, and the retry ends: the log of a dyadic other
than 1 is irrational (Lindemann), so it lies on no boundary; log 1 = 0
is returned as such.  A certificate prints exp of each integer log end
rounded to prec bits, down for the lower and up for the upper (_exp_end),
by the same test.

_log_fixed writes y = 2**k t with sqrt(2)/2 <= t < sqrt(2), takes r square
roots of t, r = isqrt(w) // 4 (measured: r root steps against the series'
terms), then log t = 2**r * 2 atanh(z), z = (t' - 1)/(t' + 1), |z| <=
0.172, plus k ln 2.  Units below are 2**-W.  The root chain T_(i+1) =
isqrt(T_i 2**W) from T_0 = t 2**W exact falls short of the exact root
u_(i+1) by e_(i+1) < e_i / (2 sqrt(0.7)) + 1 < 0.6 e_i + 1, so e_i < 2.5
and log u_r - log T_r < 2.5 / T_r: the upper end adds 5 * 2**W // T_r + 1.
With Z = floor(|z| 2**W), Q = floor(Z**2 / 2**W), P_0 = Z, P_i =
floor(P_(i-1) Q / 2**W) and S = sum floor(P_i / (2i + 1)) over the N
terms before the first P_N = 0, the exact powers a_i = |z|**(2i+1) 2**W of
Z's value satisfy a_i - P_i < (a_(i-1) - P_(i-1)) z**2 + P_(i-1)/2**W + 1
< (a_(i-1) - P_(i-1))/32 + 1.2, so a_i - P_i < 1.3; each term of S is
short by under 2, the tail after term N by under 1.3 * 1.04 / 3 < 1, and Z
by under 1.04 units of atanh.  So atanh(|z|) 2**W lies in [S, S + 2N +
3), log t' in [2S, 2S + 4N + 6] (negated for t' < 1).  ln 2 =
18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), each sum of exact
floors floor(2**x / ((2i + 1) q**(2i + 1))) short by under N + 2 in all,
at x = W + 20 bits, rounded outward to W and memoized per W (_ln2).
rnlab.bounds reads pi = 16 atan(1/5) - 4 atan(1/239) by the same sums
with alternating signs, each within N + 1 of its value either way
(_acoth), at W + 20 bits rounded outward to W (pi_ends, not memoized:
a verdict reads it once per rung).

_exp_fixed writes x = k ln 2 + s with s >= 0 (k = floor(x / ln 2's end
that keeps s's lower end nonnegative)), halves s r times, r =
isqrt(w) * 3 // 4, and squares exp(s / 2**r) r times, rounding each
lower square down and each upper up.  The Taylor terms T_0 = 2**W, T_i =
floor(T_(i-1) R / 2**W) // i of s / 2**r = R / 2**W <= 1/2 fall short of
the exact terms by e_i < e_(i-1)/2 + 1 < 2, and the tail after the first
T_N = 0 is under 4: exp(R / 2**W) 2**W lies in [S, S + 2N + 4), and exp
of the upper end R + D is at most (1 + 2D / 2**W) times that.

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
from fractions import Fraction
from typing import Callable, NamedTuple

DEFAULT_PRECISION_CAP = 4000  # decimal digits
_START_DPS = 30
_REPORT_DIGITS = 20  # significant digits of each printed enclosure end
_GUARD_BITS = 16  # below the working precision, in each integer log end
_ZIV_BITS = 32  # added to an enclosure's precision at each Ziv round
_ONE = Fraction(1)


def _bits(dps: int) -> int:
    """The working precision in bits of dps decimal digits (mpmath's
    dps_to_prec)."""
    return max(1, round((dps + 1) * 3.3219280948873626))


_prec = _bits(15)  # rigor's working precision in bits; _ladder sets it


def working_prec() -> int:
    """rigor's working precision in bits: the ladder's current rung while
    a verdict runs, else 53 (15 digits)."""
    return _prec


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


def _round_int(k: int, prec: int, up: bool) -> tuple[int, int]:
    """k > 0 rounded down, or up if up, to prec bits, as (m, e) with value
    m * 2**e."""
    shift = k.bit_length() - prec
    if shift <= 0:
        return k, 0
    m = k >> shift
    return (m + 1 if up and m << shift != k else m), shift


def _quotient(a: int, b: int, prec: int, up: bool) -> tuple[int, int]:
    """a/b > 0 rounded down, or up if up, to prec bits, as (m, e)."""
    # a * 2**s / b lies in (2**(prec - 1), 2**(prec + 1))
    s = prec + b.bit_length() - a.bit_length()
    q, rem = divmod(a << s, b) if s >= 0 else divmod(a, b << -s)
    if q.bit_length() > prec:
        q, rem, s = q >> 1, rem or q & 1, s - 1
    return (q + 1 if up and rem else q), -s


def _fraction_ends(n: int, d: int, prec: int
                   ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of an enclosure of n/d > 0 at prec bits as (m, e) pairs: n
    and d rounded down and up, the quotients of the outer pairs rounded
    outward.  These are the ends of mpmath's iv.mpf(n) / iv.mpf(d), whose
    roundings are each correct."""
    (n_lo, e_lo), (n_hi, e_hi) = (_round_int(n, prec, up)
                                  for up in (False, True))
    if d == 1:  # dividing by an exact 1 moves neither end
        return (n_lo, e_lo), (n_hi, e_hi)
    (d_lo, f_lo), (d_hi, f_hi) = (_round_int(d, prec, up)
                                  for up in (False, True))
    lo, g_lo = _quotient(n_lo, d_hi, prec, False)
    hi, g_hi = _quotient(n_hi, d_lo, prec, True)
    return (lo, g_lo + e_lo - f_hi), (hi, g_hi + e_hi - f_lo)


def _acoth(q: int, x: int, sign: int = 1) -> tuple[int, int]:
    """atanh(1/q) * 2**x, or atan(1/q) * 2**x if sign = -1, enclosed by
    integers, q >= 2: S = the sum of sign**i times the exact floors of
    a_i = 2**x / ((2i + 1) q**(2i + 1)) over the N terms before the first
    zero power, each short of a_i by under 1.  The a_i after the first
    zero power, under 1, fall by q**2 >= 4, so atanh's tail is under 2 and
    it lies in [S, S + N + 2).  atan's tail alternates and falls, so it is
    under its first term, under 1; each floor moves S by under 1 either
    way, and atan lies in (S - N - 1, S + N + 1)."""
    p, q2 = (1 << x) // q, q * q
    s = i = 0
    while p:
        s += sign ** i * (p // (2 * i + 1))
        p //= q2
        i += 1
    return (s, s + i + 2) if sign == 1 else (s - i - 1, s + i + 1)


@functools.lru_cache(maxsize=64)
def _ln2(w: int) -> tuple[int, int]:
    """ln 2 * 2**w enclosed by integers, memoized per w: 18 atanh(1/26) -
    2 atanh(1/4801) + 8 atanh(1/8749) at w + 20 bits, rounded outward."""
    (a, b), (c, d), (e, f) = (_acoth(q, w + 20) for q in (26, 4801, 8749))
    return (18 * a - 2 * d + 8 * e) >> 20, -(-(18 * b - 2 * c + 8 * f) >> 20)


def pi_ends(w: int) -> tuple[int, int]:
    """pi * 2**w enclosed by integers: 16 atan(1/5) - 4 atan(1/239) at
    w + 20 bits, rounded outward."""
    (a, b), (c, d) = (_acoth(q, w + 20, -1) for q in (5, 239))
    return (16 * a - 4 * d) >> 20, -(-(16 * b - 4 * c) >> 20)


def _log_fixed(m: int, e: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, W), W >= w, with lo <= log(m * 2**e) * 2**W <= hi, for
    m > 0 of at most w bits (module docstring)."""
    bl = m.bit_length()
    k = e + bl - 1  # m * 2**e = 2**k * t, t = m / 2**(bl - 1) in [1, 2)
    r = math.isqrt(w) // 4
    W = w + r + 4
    t = m << (W - bl + 1)
    if m * m >= 1 << (2 * bl - 1):  # t >= sqrt(2)
        k, t = k + 1, t >> 1
    for _ in range(r):
        t = math.isqrt(t << W)
    num = t - (1 << W)
    z = (abs(num) << W) // (t + (1 << W))
    z2 = z * z >> W
    p, s, i = z, 0, 0
    while p:
        s += p // (2 * i + 1)
        p = p * z2 >> W
        i += 1
    lo, hi = 2 * s, 2 * s + 4 * i + 6
    if num < 0:
        lo, hi = -hi, -lo
    hi += (5 << W) // t + 1
    l_lo, l_hi = _ln2(W)
    if k < 0:
        l_lo, l_hi = l_hi, l_lo
    return (lo << r) + k * l_lo, (hi << r) + k * l_hi, W


def _exp_fixed(x: int, scale: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, W) with lo <= exp(x / 2**scale) * 2**W <= hi, for w >=
    scale (module docstring); W may be negative."""
    r = math.isqrt(w) * 3 // 4
    W = w + r
    X = x << (W - scale)
    l_lo, l_hi = _ln2(W)
    a, b = (l_hi, l_lo) if X >= 0 else (l_lo, l_hi)
    k = X // a  # X - k * a >= 0
    R = (X - k * a) >> r
    D = -(-(X - k * b) >> r) - R
    t, s, i = 1 << W, 0, 0
    while t:
        s += t
        i += 1
        t = (t * R >> W) // i
    lo, hi = s, s + 2 * i + 4
    hi += -(-hi * 2 * D >> W)
    for _ in range(r):
        lo, hi = lo * lo >> W, -(-hi * hi >> W)
    return lo, hi, W - k


def _ziv(enclose: Callable[[int], tuple[int, int, int]],
         rnd: Callable[[int, int, bool], object], w: int,
         ups: tuple[bool, ...]) -> list:
    """rnd(v, W, up) of a real y for each up in ups, where enclose(w)
    returns (lo, hi, W) with lo <= y * 2**W <= hi; w grows by _ZIV_BITS
    until both ends of the enclosure round alike in every direction."""
    while True:
        w += _ZIV_BITS
        lo, hi, W = enclose(w)
        ends = [(rnd(lo, W, up), rnd(hi, W, up)) for up in ups]
        if all(a == b for a, b in ends):
            return [a for a, _ in ends]


def _floor_bits(v: int, prec: int) -> int:
    """v rounded down to prec significant bits."""
    shift = v.bit_length() - prec  # the bit length of |v|
    return v >> shift << shift if shift > 0 else v


def _log_round(v: int, W: int, prec: int, up: bool) -> int:
    """v / 2**W rounded down to prec bits and then to an integer over
    2**(prec + G), or both up if up."""
    if up:
        return -_log_round(-v, W, prec, False)
    return _floor_bits(v, prec) >> (W - prec - _GUARD_BITS)


def _log_ends(m: int, e: int, prec: int, ups: tuple[bool, ...]) -> list[int]:
    """log(m * 2**e) rounded as _log_round does, for each up in ups."""
    if m == 1 << (m.bit_length() - 1) and e == 1 - m.bit_length():  # y = 1
        return [0] * len(ups)
    return _ziv(lambda w: _log_fixed(m, e, w),
                lambda v, W, up: _log_round(v, W, prec, up),
                prec + _GUARD_BITS, ups)


@functools.lru_cache(maxsize=256)
def _iv_log(numerator: int, denominator: int, prec: int) -> tuple[int, int]:
    """The ends of an enclosure of log(numerator/denominator) as integers
    over 2**(prec + _GUARD_BITS), rounded outward, as an interval log at
    prec bits rounds them.  Memoized."""
    if numerator <= 0:
        raise ValueError("a power product needs positive bases, got "
                         f"{Fraction(numerator, denominator)}")
    lo, hi = _fraction_ends(numerator, denominator, prec)
    if lo == hi:
        return tuple(_log_ends(*lo, prec, (False, True)))
    return _log_ends(*lo, prec, (False,))[0], _log_ends(*hi, prec, (True,))[0]


def _exp_end(x: int, prec: int, up: bool) -> tuple[int, int]:
    """exp(x / 2**(prec + G)) rounded down, or up if up, to prec bits, as
    (m, e) with value m * 2**e."""
    if x == 0:
        return 1, 0
    scale = prec + _GUARD_BITS
    return _ziv(lambda w: _exp_fixed(x, scale, w),
                lambda v, W, up: (_floor_bits(v, prec) if not up
                                  else -_floor_bits(-v, prec), -W),
                scale, (up,))[0]


def _times(lo: int, hi: int, u: int, v: int) -> tuple[int, int]:
    """The ends of (u/v) * [lo, hi] rounded outward to integers; v > 0."""
    if u < 0:
        lo, hi = hi, lo
    return lo * u // v, -(-hi * u // v)


class PowProd(NamedTuple):
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
        log(base_i)) over 2**(working_prec() + _GUARD_BITS): each term is
        its memoized log's ends (_iv_log) times the exponent, rounded
        outward (_times), and the terms are summed exactly."""
        if self.coeff <= 0:
            raise ValueError(
                f"log_enclosure needs a positive coefficient, got {self.coeff}")
        # log 1 is exactly 0: leaving out a coefficient of 1 changes nothing
        factors = self.factors
        if self.coeff != 1:
            factors = ((self.coeff, _ONE), *factors)
        prec = _prec
        lo = hi = 0
        for base, exp in factors:
            b_lo, b_hi = _iv_log(base.numerator, base.denominator, prec)
            t_lo, t_hi = _times(b_lo, b_hi, exp.numerator, exp.denominator)
            lo += t_lo
            hi += t_hi
        return lo, hi


def _separate(lhs: tuple[int, int], rhs: tuple[int, int]
              ) -> Comparison | None:
    (l_lo, l_hi), (r_lo, r_hi) = lhs, rhs
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
    """The first verdict() that is not None, with the working precision
    set to each of _precisions() in turn; UNDECIDABLE if none decides.
    The caller's precision is restored on return, and when verdict()
    raises."""
    global _prec
    saved = _prec
    try:
        for dps in _precisions():
            _prec = _bits(dps)
            result = verdict()
            if result is not None:
                return result
        return Comparison.UNDECIDABLE
    finally:
        _prec = saved


def decide(build_lhs: Callable[[], tuple[int, int]],
           build_rhs: Callable[[], tuple[int, int]]) -> Comparison:
    """Compare two real expressions given as enclosure builders.

    The builders are re-invoked at each precision of the ladder; they must
    read the working precision (working_prec()) when constructing their
    enclosures.  Both return the integer ends (lo, hi) of an enclosure
    over one power of two, such as those of log_enclosure.
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


def sign_change(build: Callable[[], tuple], first: int, step: int,
                den: int, n: int) -> tuple[int, int]:
    """Where alpha + gamma*s changes sign on the grid s_t = (first +
    t*step)/den, t = 0..n, for integers first, step, den, n > 0, when the
    caller has proven that the form is positive on an initial segment of
    the grid.

    build returns integer end pairs of log_enclosure for the fixed reals
    (alpha, gamma) at the working precision; it is called once per
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


def round_scaled(num: int, den: int, scale: int, up: bool) -> int:
    """num/den * 10**scale rounded down to an integer, or up if up; den > 0."""
    if scale >= 0:
        num *= 10 ** scale
    else:
        den *= 10 ** -scale
    q, rem = divmod(num, den)
    return q + 1 if up and rem else q


def _decimal(num: int, den: int, up: bool) -> str:
    """num/den > 0 rounded down, or up if up, to _REPORT_DIGITS significant
    digits in mp.nstr's notation: fixed point for a decimal exponent e with
    -6 < e < _REPORT_DIGITS, else d.ddde+N; trailing zeros stripped."""
    if num <= 0:
        raise ValueError("a printed enclosure end must be positive, got "
                         f"{Fraction(num, den)}")
    n = _REPORT_DIGITS
    # x * 10**s >= 1 has e + 1 + s digits: the bit lengths put log10(x) in
    # ((b - 1) log10(2), (b + 1) log10(2)), and 0.30103 > log10(2)
    b = num.bit_length() - den.bit_length()
    s = n - b * 30103 // 10 ** 5
    e = len(str(round_scaled(num, den, s, False))) - 1 - s
    digits = str(round_scaled(num, den, n - 1 - e, up))
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
    x = pp.as_fraction()
    if x is not None:
        lo = hi = x.numerator, x.denominator
    else:
        prec, ends = _ladder(lambda: (_prec, pp.log_enclosure()))
        lo, hi = ((m << e, 1) if e >= 0 else (m, 1 << -e)
                  for m, e in (_exp_end(end, prec, up)
                               for end, up in zip(ends, (False, True))))
    return _decimal(*lo, False), _decimal(*hi, True)
