"""The directed-rounding kernel against the four helpers it replaced.

survey._round and rigor's _round_int, _quotient and _floor_bits, kept
verbatim below, are the differential oracle; Fraction floor and ceil on
the binade of the value are the ground truth.  Each result must have the
oracle's value, a normalized mantissa, and lie on the stated side of the
value it rounds.
"""

import math
import random
from fractions import Fraction as F

import pytest

from rnlab.dyadic import round_bits, round_quotient

KS = (1, 2, 3, 53, 64, 103, 200)


# --- the removed helpers, verbatim -------------------------------------------

def _round(u: int, s: int, k: int, up: bool) -> tuple[int, int]:
    """u 2^s, u >= 1, as (exponent, mantissa of k bits), rounded down, or
    up if up."""
    shift = u.bit_length() - k
    if shift <= 0:
        return s + shift, u << -shift
    v = u >> shift
    if up and u & ((1 << shift) - 1):
        v += 1
        if v >> k:  # 2^k: one bit more
            v >>= 1
            shift += 1
    return s + shift, v


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


def _floor_bits(v: int, prec: int) -> int:
    """v rounded down to prec significant bits."""
    shift = v.bit_length() - prec  # the bit length of |v|
    return v >> shift << shift if shift > 0 else v


# --- ground truth -------------------------------------------------------------

def _value(m: int, e: int) -> F:
    return F(m) * F(2) ** e


def _directed(x: F, k: int, up: bool) -> F:
    """x rounded toward -inf, or +inf if up, to k bits: floor or ceil of x
    in units of 2**(j + 1 - k), 2**j <= |x| < 2**(j + 1)."""
    if x == 0:
        return x
    j = abs(x.numerator).bit_length() - x.denominator.bit_length()
    if F(2) ** j > abs(x):
        j -= 1
    unit = F(2) ** (j + 1 - k)
    return (math.ceil(x / unit) if up else math.floor(x / unit)) * unit


def _edges() -> list:
    # 1, 2^j and 2^j +- 1 across every k's boundary and at 1000 and 4000 bits
    js = sorted({*range(1, 12), *(k + d for k in KS for d in (-1, 0, 1, 2)),
                 1000, 4000})
    return sorted({1} | {2 ** j + d for j in js for d in (-1, 0, 1)} - {0})


def _values() -> list:
    # the edges, then seeded values of up to 4000 bits
    rng = random.Random(38)
    out = _edges()
    out += [rng.getrandbits(rng.randrange(1, 4001)) | 1 for _ in range(60)]
    out += [rng.getrandbits(rng.randrange(1, 300)) + 1 for _ in range(40)]
    return sorted(set(out))


_VALUES = _values()


def _check(got: tuple[int, int], x: F, k: int, up: bool) -> F:
    m, e = got
    assert 2 ** (k - 1) <= abs(m) < 2 ** k, (got, x, k, up)
    value = _value(m, e)
    assert (value >= x) if up else (value <= x), (got, x, k, up)
    assert value == _directed(x, k, up), (got, x, k, up)
    return value


def test_round_bits_of_zero_is_zero():
    for k in KS:
        for up in (False, True):
            assert round_bits(0, k, up)[0] == _floor_bits(0, k) == 0


@pytest.mark.parametrize("k", KS)
def test_round_bits_matches_the_removed_helpers(k):
    for v in _VALUES:
        for up in (False, True):
            value = _check(round_bits(v, k, up), F(v), k, up)
            assert value == _value(*_round_int(v, k, up))
            s, u = _round(v, 0, k, up)
            assert (u, s) == round_bits(v, k, up)
            assert value == (-_floor_bits(-v, k) if up else _floor_bits(v, k))
            # toward -inf for -v is toward +inf for v, negated
            low = _check(round_bits(-v, k, up), F(-v), k, up)
            assert low == -_value(*round_bits(v, k, not up))
            assert low == (-_floor_bits(v, k) if up else _floor_bits(-v, k))


def _pairs() -> list:
    # every pair of edges up to 12 bits, every edge over 1 and over every
    # third edge, and seeded pairs of all values
    rng = random.Random(83)
    edges = _edges()
    small = [v for v in edges if v.bit_length() <= 12]
    out = [(a, b) for a in small for b in small]
    out += [(a, b) for a in edges for b in [1] + edges[::3]]
    out += [(rng.choice(_VALUES), rng.choice(_VALUES)) for _ in range(400)]
    return out


@pytest.mark.parametrize("k", KS)
def test_round_quotient_matches_the_removed_quotient(k):
    for a, b in _pairs():
        for up in (False, True):
            got = round_quotient(a, b, k, up)
            value = _check(got, F(a, b), k, up)
            assert value == _value(*_quotient(a, b, k, up)), (a, b, k, up)
