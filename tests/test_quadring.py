import pytest
from hypothesis import given, strategies as st

from rnlab.quadring import (MixedDError, ParityViolationError, QuadInt,
                            SquareDError)

NONSQUARE_D = [2, 3, 5, 6, 7, 11, 15, 23, 47, 76, 763]


def test_make_integral_roundtrip():
    a = QuadInt(2 * 1015, 2, 76)
    assert a == QuadInt.of(1015, 1, 76)
    assert str(a) == "1015+1√-76"


def test_make_halved():
    a = QuadInt.half(181, 1, 7)
    assert a.u % 2 == 1
    assert a.norm() == 8192
    assert 181 ** 2 + 7 == 2 ** 15  # cross-check of the halving convention


def test_make_parity_violation():
    with pytest.raises(ParityViolationError):
        QuadInt.half(1, 1, 76)  # -76 = 0 (mod 4)
    with pytest.raises(ParityViolationError):
        QuadInt.half(2, 1, 7)  # mixed parity never represents


def test_square_d_rejected():
    with pytest.raises(SquareDError):
        QuadInt.of(1, 1, 49)
    with pytest.raises(SquareDError):
        QuadInt.of(1, 1, 0)


def test_mul_example():
    a = QuadInt.of(1, 1, 76)
    assert a * a == QuadInt.of(-75, 2, 76)


def test_conj_example():
    assert QuadInt.of(1015, 1, 76).conj() == QuadInt.of(1015, -1, 76)


def test_halved_product_is_norm():
    b = QuadInt.half(181, 1, 7)
    assert b * b.conj() == 8192


def test_norm_examples():
    assert QuadInt.of(1015, 1, 76).norm() == 1030301 == 101 ** 3
    assert QuadInt.of(5, 1, 76).norm() == 101
    assert QuadInt.half(181, 1, 7).norm() == 2 ** 13


def test_pow_examples():
    beta = QuadInt.of(1015, 1, 76)
    assert beta ** 2 == QuadInt.of(1030149, 2030, 76)
    assert beta ** 0 == 1
    assert (beta ** 5).norm() == 101 ** 15


def test_exact_div_examples():
    beta = QuadInt.of(1015, 1, 76)
    n = QuadInt.from_int(1030301, 76)
    assert n.exact_div(beta) == beta.conj()
    assert QuadInt.of(1, 1, 76).exact_div(QuadInt.from_int(2, 76)) is None
    assert (beta ** 3).exact_div(beta ** 2) == beta


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadInt.of(1, 1, 76).exact_div(QuadInt.from_int(0, 76))


def test_mixed_d_rejected():
    with pytest.raises(MixedDError):
        QuadInt.of(1, 1, 76) * QuadInt.of(1, 1, 7)


def _elements(d):
    if d % 4 == 3:
        return st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
            lambda t: QuadInt(2 * t[0] + (t[1] % 2), t[1], d))
    return st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
        lambda t: QuadInt.of(t[0], t[1], d))


@given(st.sampled_from(NONSQUARE_D).flatmap(
    lambda d: st.tuples(_elements(d), _elements(d))))
def test_norm_multiplicative(pair):
    a, b = pair
    assert (a * b).norm() == a.norm() * b.norm()


@given(st.sampled_from(NONSQUARE_D).flatmap(
    lambda d: st.tuples(_elements(d), _elements(d))))
def test_conj_is_ring_homomorphism(pair):
    a, b = pair
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(st.sampled_from(NONSQUARE_D).flatmap(_elements))
def test_self_minus_conj_is_pure_imaginary(a):
    # a - conj(a) = v * sqrt(-D) where v is a's imaginary numerator
    diff = a - a.conj()
    assert diff.u == 0 and diff.v == 2 * a.v


@given(st.sampled_from(NONSQUARE_D).flatmap(
    lambda d: st.tuples(_elements(d), _elements(d))))
def test_exact_div_roundtrip(pair):
    a, b = pair
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@given(st.sampled_from(NONSQUARE_D).flatmap(
    lambda d: st.tuples(_elements(d), _elements(d))))
def test_parity_closure(pair):
    a, b = pair
    for value in (a + b, a - b, a * b, -a, a.conj()):
        # the constructor revalidates, so reconstructing must succeed
        QuadInt(value.u, value.v, value.D)
