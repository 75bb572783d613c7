import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from iv_oracle import built, iv_fraction
from rnlab import rigor
from rnlab.bounds import (BOutOfRangeError, _compare_pi, _sturm_chain,
                          _sturm_remainder, _variations,
                          beta_moment_identity_holds,
                          check_e_bound, check_q_bound, factorial_ratio_bounds,
                          kernel_extrema, q_prefactor_bound)
from rnlab.pade import (BOUNDS, IntPolynomial, NotMonomialError, ONE_MINUS_Z,
                        binom, build_diagonal, build_general, content,
                        cross_constant, eval_at_z0, assembled_identity_holds,
                        normalize, one_minus_z_pow, starred_at_z0)
from rnlab import bounds, pade
from rnlab.quadring import QuadInt

F = Fraction

# ---------------------------------------------------------------------------
# independent oracle: build the triple from the defining integrals by pure
# bivariate polynomial expansion (polynomials in t whose coefficients are
# polynomials in z) and exact term-by-term quadrature over [0, 1]


def _zp_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _zp_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _tp_mul(a, b):
    out = [[F(0)] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _zp_add(out[i + j], _zp_mul(x, y))
    return out


def _tp_pow(base, e):
    acc = [[F(1)]]
    for _ in range(e):
        acc = _tp_mul(acc, base)
    return acc


def _integrate_t(tp):
    acc = [F(0)]
    for m, zp in enumerate(tp):
        acc = _zp_add(acc, [c / (m + 1) for c in zp])
    return acc


def _oracle_general(A, B, C):
    scale = F(math.factorial(A + B + C + 1),
              math.factorial(A) * math.factorial(B) * math.factorial(C))
    t = [[F(0)], [F(1)]]
    one_minus_t = [[F(1)], [F(-1)]]
    z_minus_t = [[F(0), F(1)], [F(-1)]]
    one_minus_t_plus_zt = [[F(1)], [F(-1), F(1)]]
    one_minus_zt = [[F(1)], [F(0), F(-1)]]
    p = _integrate_t(_tp_mul(_tp_pow(t, A),
                             _tp_mul(_tp_pow(one_minus_t, B),
                                     _tp_pow(z_minus_t, C))))
    q = _integrate_t(_tp_mul(_tp_pow(t, B),
                             _tp_mul(_tp_pow(one_minus_t, C),
                                     _tp_pow(one_minus_t_plus_zt, A))))
    e = _integrate_t(_tp_mul(_tp_pow(t, A),
                             _tp_mul(_tp_pow(one_minus_t, C),
                                     _tp_pow(one_minus_zt, B))))
    sign_c = F(-1) ** C
    p = [scale * c for c in p]
    q = [sign_c * scale * c for c in q]
    e = [scale * c for c in e]
    return p, q, e


def _raw(sys):
    """The raw (P, Q, E) of a built system: content times the stored one."""
    return tuple(IntPolynomial([sys.content * c for c in poly.coeffs])
                 for poly in (sys.P, sys.Q, sys.E))


def _raw_system(sys):
    """sys with its raw triple stored, at content 1."""
    P, Q, E = _raw(sys)
    return sys._replace(P=P, Q=Q, E=E, content=1)


def _as_fractions(poly):
    return [F(c) for c in poly.coeffs]


@pytest.mark.parametrize("A,B,C", [(1, 1, 1), (2, 1, 3), (3, 3, 3),
                                   (1, 4, 2), (4, 2, 1)])
def test_general_matches_integral_oracle(A, B, C):
    P, Q, E = _raw(build_general(A, B, C))
    op, oq, oe = _oracle_general(A, B, C)
    assert _as_fractions(P) == op[:P.degree + 1]
    assert _as_fractions(Q) == oq[:Q.degree + 1]
    assert _as_fractions(E) == oe[:E.degree + 1]


@pytest.mark.parametrize("j,g", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_diagonal_matches_integral_oracle(j, g):
    # diagonal triple = (-1)^r * general triple at A = C = r, B = k - r - 1
    # on P and Q; E agrees directly
    sys = build_diagonal(j, g)
    P, Q, E = _raw(sys)
    r, b = sys.r, sys.k - sys.r - 1
    op, oq, oe = _oracle_general(r, b, r)
    sign = F(-1) ** r
    assert _as_fractions(P) == [sign * c for c in op]
    assert _as_fractions(Q) == [sign * c for c in oq]
    got_e = _as_fractions(E)
    assert got_e == oe[:len(got_e)]
    assert all(c == 0 for c in oe[len(got_e):])


@pytest.mark.parametrize("j", [*range(1, 25), 40, 60])
@pytest.mark.parametrize("g", (0, 1))
def test_unverified_diagonal_matches_build_diagonal(j, g):
    # the audit's builder skips only the identity product: its starred
    # systems are those of the verified builder
    assert pade._unverified_diagonal(j, g) == build_diagonal(j, g)


def test_unverified_diagonal_checks_deg_e(monkeypatch):
    real = pade._general_triple

    def longer_e(*params):
        P, Q, E = real(*params)
        return P, Q, E + IntPolynomial.monomial(1, E.degree + 1)

    monkeypatch.setattr(pade, "_general_triple", longer_e)
    with pytest.raises(pade.IdentityViolationError, match="deg E = 1 != B"):
        pade._unverified_diagonal(1, 0)


# ---------------------------------------------------------------------------
# the Kronecker product against the schoolbook product it replaced


def _schoolbook(a, b):
    if a.is_zero() or b.is_zero():
        return IntPolynomial.zero()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial(out)


@st.composite
def _polys(draw, max_len=24, max_bits=2000):
    """Signed polynomials whose coefficients share one size of 0 to
    max_bits bits, with zeros and the extreme values +-2^bits drawn often."""
    bits = draw(st.integers(0, max_bits))
    top = 2 ** bits
    coeff = st.one_of(st.integers(-top, top), st.just(0),
                      st.sampled_from((top, -top, top - 1, 1 - top)))
    return IntPolynomial(draw(st.lists(coeff, min_size=1, max_size=max_len)))


@given(_polys(), _polys())
@example(IntPolynomial([5]), IntPolynomial([-3]))
@example(IntPolynomial([1, 0, 0, -2 ** 2000]), IntPolynomial([-2 ** 1999, 0, 7]))
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook(a, b):
    assert a * b == _schoolbook(a, b) == b * a


@given(_polys(max_len=300), _polys(max_len=3))
@settings(max_examples=100, deadline=None)
def test_mul_matches_schoolbook_unequal_lengths(a, b):
    assert a * b == _schoolbook(a, b) == b * a


@pytest.mark.parametrize("bits", (0, 1, 7, 8, 9, 63, 64, 200))
@pytest.mark.parametrize("n", (1, 3, 127, 255))
@pytest.mark.parametrize("sign", (1, -1))
def test_mul_worst_case_carries(bits, n, sign):
    # equal-signed maximal coefficients: the middle product coefficient,
    # n * top^2, is the largest any slot has to hold; at (bits, n) = (7, 3)
    # and (8, 255) with top = 2^bits - 1 it needs all the slot's bits
    for top in (2 ** bits, 2 ** bits - 1 or 1):
        a = IntPolynomial([sign * top] * n)
        b = IntPolynomial([top] * n)
        assert a * b == _schoolbook(a, b)


# the four-point product above pade._FOUR_POINT_BITS against the one-point
# product below it, kept here as the oracle


def _one_point(a, b):
    """a * b by one Kronecker product at 2^(8*width), whatever the size."""
    if a.is_zero() or b.is_zero():
        return IntPolynomial.zero()
    a, b = a.coeffs, b.coeffs
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 2)
    width = (bits + 7) // 8
    n = len(a) + len(b) - 1
    packed = pade._pack(a, width) * pade._pack(b, width)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (packed + bias).to_bytes(n * width, "little")
    return IntPolynomial([int.from_bytes(raw[i:i + width], "little") - half
                          for i in range(0, n * width, width)])


@pytest.fixture
def four_point_calls(monkeypatch):
    """The number of products that took the four-point path, as a list
    that grows by one per call."""
    calls = []
    real = pade._four_point

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(pade, "_four_point", spy)
    return calls


def _pair(rng, la, lb, bits, zeros=False):
    """Two polynomials of la and lb signed coefficients in [-2^bits, 2^bits],
    each led by 2^bits (so that the slot width is known), with extreme
    values and zeros drawn often when asked."""
    top = 2 ** bits

    def poly(n):
        cs = [rng.choice((top, -top, top - 1, 1 - top, 0))
              if zeros and rng.random() < 0.3 else rng.randint(-top, top)
              for _ in range(n - 1)]
        return IntPolynomial(cs + [top])

    return poly(la), poly(lb)


@given(_polys(max_len=300, max_bits=300), _polys(max_len=300, max_bits=300))
@example(IntPolynomial([2 ** 300] * 300), IntPolynomial([-2 ** 300] * 300))
@settings(max_examples=40, deadline=None)
def test_mul_matches_schoolbook_across_the_cutoff(a, b):
    assert a * b == _schoolbook(a, b) == b * a


@pytest.mark.parametrize("la", (1, 2, 3, 4, 5, 97, 98, 99, 100))
@pytest.mark.parametrize("lb", (1, 2, 3, 4, 61, 62))
def test_mul_every_length_mod_4(la, lb, four_point_calls):
    # coefficients large enough that every pair takes the four-point path:
    # product lengths of every residue mod 4, classes that are empty too
    rng = random.Random(la * 1000 + lb)
    a, b = _pair(rng, la, lb, 6000 // min(la, lb), zeros=True)
    assert a * b == _one_point(a, b) == b * a
    assert len(four_point_calls) == 2


@pytest.mark.parametrize("la,lb", [(300, 1), (300, 3), (2000, 7), (500, 30),
                                   (64, 60)])
def test_mul_lopsided_on_both_sides_of_the_cutoff(la, lb, four_point_calls):
    # the same shapes just below and just above the cutoff, which counts
    # the bits of the shorter factor's packing
    rng = random.Random(la + lb)
    for bits, four in ((pade._FOUR_POINT_BITS // (2 * lb) - 16, 0),
                       (pade._FOUR_POINT_BITS // (2 * lb) + 8, 1)):
        a, b = _pair(rng, la, lb, max(bits, 1))
        four_point_calls.clear()
        assert a * b == _schoolbook(a, b), (bits, four)
        assert len(four_point_calls) == four, (bits, four)


@pytest.mark.parametrize("bits,n", [(23, 255), (6, 1023), (1000, 7),
                                    (700, 31), (64, 255)])
@pytest.mark.parametrize("sign", (1, -1))
def test_mul_worst_case_carries_at_the_slot_bound(bits, n, sign,
                                                  four_point_calls):
    # equal-signed maximal coefficients above the cutoff: the middle
    # coefficient n top^2 is the largest any slot holds, and at (23, 255)
    # and (6, 1023) with top = 2^bits - 1 the slot bound is a whole number
    # of bytes, so the slot has no bit to spare beyond it
    for top in (2 ** bits, 2 ** bits - 1):
        a = IntPolynomial([sign * top] * n)
        b = IntPolynomial([top] * n)
        expected = [sign * top * top * min(i + 1, n, 2 * n - 1 - i)
                    for i in range(2 * n - 1)]
        assert (a * b).coeffs == tuple(expected)
    assert len(four_point_calls) == 2


def test_mul_diagonal_identity_products_match_one_point(four_point_calls):
    # (1-z)^(5j) Q and (1-z)^(5j) Q/c of every diagonal system with j <= 60
    for j in range(1, 61):
        for g in (0, 1):
            sys = pade._unverified_diagonal(j, g)
            power = one_minus_z_pow(sys.k)
            for q in (_raw(sys)[1], sys.Q):
                assert power * q == _one_point(power, q), (j, g)
    assert four_point_calls  # the products with the raw Q from j = 15 on


def test_mul_zero_and_scalar():
    a = IntPolynomial([3, 0, -5])
    assert a * IntPolynomial.zero() == IntPolynomial.zero() * a == IntPolynomial()
    assert a * -2 == -2 * a == IntPolynomial([-6, 0, 10])
    assert a * 0 == IntPolynomial()


@given(_polys(max_len=8, max_bits=200), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_product(a, e):
    acc = IntPolynomial([1])
    for _ in range(e):
        acc = _schoolbook(acc, a)
    assert a ** e == acc


def test_one_minus_z_pow_matches_power():
    for k in range(201):
        assert one_minus_z_pow(k) == ONE_MINUS_Z ** k
    with pytest.raises(ValueError):
        one_minus_z_pow(-1)


@pytest.mark.parametrize("g", (0, 1))
def test_identity_check_sees_every_coefficient(g):
    # +-1 on any one coefficient of P, Q or E must break the identity; the
    # sign alternates with i + g, so each index parity gets both signs
    sys = build_diagonal(40, g)
    for name in ("P", "Q", "E"):
        coeffs = list(getattr(sys, name).coeffs)
        for i in range(len(coeffs)):
            delta = 1 if (i + g) % 2 == 0 else -1
            bent = coeffs[:]
            bent[i] += delta
            mutant = sys._replace(**{name: IntPolynomial(bent)})
            assert not mutant.identity_holds(), (name, i, delta)


def _bent(sys, name, i, delta):
    coeffs = list(getattr(sys, name).coeffs)
    coeffs[i] += delta
    return sys._replace(**{name: IntPolynomial(coeffs)})


@pytest.mark.parametrize("j,g", [(8, 1), (12, 0), (40, 0), (60, 1)])
def test_identity_check_on_content_divided_operands(j, g):
    # the check runs on the stored triple, the raw one divided by c > 1:
    # off by 1 or by c in one coefficient of P or E, it says False, and so
    # does the direct defect of the raw triple, content times the stored
    # one.  The product is one-point at j = 8 and 12 and four-point at
    # j = 40 and 60
    sys = build_diagonal(j, g)
    c = sys.content
    assert c == content(j, g) > 1 and sys.Q.content() == 1
    cases = 0
    for name in ("P", "E"):
        size = len(getattr(sys, name).coeffs)
        for i in (0, size // 2, size - 1):
            for delta in (1, -1, c, -c):
                bent = _bent(sys, name, i, delta)
                assert not bent.identity_holds(), (name, i, delta)
                assert not _direct_defect(_raw_system(bent)).is_zero()
                cases += 1
    assert cases == 24


def test_identity_check_with_zero_q():
    # Q = 0: the identity is 0 = P - sign z^m E
    sys = build_diagonal(3, 0)
    zero = IntPolynomial.zero()
    no_q = sys._replace(Q=zero)
    assert not no_q.identity_holds()
    assert sys._replace(P=zero, Q=zero, E=zero).identity_holds()
    # P = sign z^m E holds it with Q = 0
    remainder = IntPolynomial.monomial(sys.identity_sign(),
                                       sys.remainder_degree())
    assert no_q._replace(P=_schoolbook(remainder, sys.E)).identity_holds()


@pytest.mark.parametrize("j,g", [(3, 0), (3, 1)])
def test_identity_check_with_p_reaching_z_m(j, g):
    # a P of degree m = A + C + 1 or more overlaps sign z^m E in T: adding
    # sign z^m to P and 1 to E leaves T, and the identity, as they were
    sys = build_diagonal(j, g)
    m, sign = sys.remainder_degree(), sys.identity_sign()
    longer = sys._replace(P=sys.P + IntPolynomial.monomial(sign, m),
                          E=sys.E + IntPolynomial((1,)))
    assert longer.P.degree == m and longer.identity_holds()
    assert longer._t() == sys._t() == sys.P - _schoolbook(
        IntPolynomial.monomial(sign, m), sys.E)
    assert not _bent(longer, "P", m, 1).identity_holds()
    assert not _bent(longer, "E", 0, 1).identity_holds()


def test_build_and_check_neither_divide_nor_subtract_nor_scale(monkeypatch):
    # the builders take each part already divided by the content from its
    # ratio loop, and the identity check concatenates T: no
    # exact_scalar_div, no IntPolynomial.__sub__ and no product by a scalar
    # inside build_diagonal, build_general, normalize or identity_holds, on
    # both sides of the four-point cutoff
    calls = []
    real_div = IntPolynomial.exact_scalar_div
    real_sub, real_mul = IntPolynomial.__sub__, IntPolynomial.__mul__

    def div(self, d):
        calls.append("exact_scalar_div")
        return real_div(self, d)

    def sub(self, other):
        calls.append("__sub__")
        return real_sub(self, other)

    def mul(self, other):
        if isinstance(other, int):
            calls.append("scalar __mul__")
        return real_mul(self, other)

    monkeypatch.setattr(IntPolynomial, "exact_scalar_div", div)
    monkeypatch.setattr(IntPolynomial, "__sub__", sub)
    monkeypatch.setattr(IntPolynomial, "__mul__", mul)
    monkeypatch.setattr(IntPolynomial, "__rmul__", mul)
    for j, g in ((1, 1), (12, 0), (14, 1), (15, 0), (33, 1), (60, 0)):
        sys = normalize(build_diagonal(j, g))
        assert sys.identity_holds() and sys.content == content(j, g)
    for abc in itertools.product((1, 2, 5), repeat=3):
        assert build_general(*abc).identity_holds()
    assert calls == []
    # the counters see each of the three
    3 * IntPolynomial((1, 2)) - IntPolynomial((4,)).exact_scalar_div(2)
    assert sorted(calls) == ["__sub__", "exact_scalar_div", "scalar __mul__"]


def _raw_identity(sys):
    """The oracle: (1-z)^k Q == P - sign z^(A+C+1) E for the raw triple,
    content times the stored one, with the one-point product on the
    undivided Q."""
    P, Q, E = _raw(sys)
    remainder = (E * sys.identity_sign()).shift(sys.remainder_degree())
    return _one_point(one_minus_z_pow(sys.k), Q) == P - remainder


def test_identity_holds_matches_the_raw_product(four_point_calls):
    # the check on the stored, content-divided triple against the product
    # on the raw Q: every diagonal system with j <= 60, every general system
    # with A, B, C <= 6, and systems bent by +-1 and +-c in one coefficient
    # of P or E below the four-point cutoff, at j = 8 and 12
    systems = [pade._unverified_diagonal(j, g)
               for j in range(1, 61) for g in (0, 1)]
    systems += [build_general(a, b, c)._replace()
                for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)]
    for sys in systems:
        assert sys.identity_holds() is _raw_identity(sys) is True, sys.kind
    assert four_point_calls
    four_point_calls.clear()
    bent = 0
    for j in (8, 12):
        for g in (0, 1):
            sys = pade._unverified_diagonal(j, g)
            c = content(j, g)
            assert c > 1
            for name in ("P", "E"):
                size = len(getattr(sys, name).coeffs)
                for i in (0, size // 2, size - 1):
                    for delta in (1, -1, c, -c):
                        mutant = _bent(sys, name, i, delta)
                        assert (mutant.identity_holds()
                                is _raw_identity(mutant) is False), \
                            (j, g, name, i, delta)
                        bent += 1
    assert bent == 96 and four_point_calls == []


# ---------------------------------------------------------------------------
# binomial ratio recurrences against independent math.comb formulas


def _comb_diagonal(j, g):
    r, n = 4 * j - g, 9 * j - g
    p = [(-1) ** i * math.comb(n, i) * math.comb(2 * r - i, r)
         for i in range(r + 1)]
    q = [math.comb(2 * r - i, r) * math.comb(j + g - 1 + i, i)
         for i in range(r + 1)]
    e = [(-1) ** i * math.comb(r + i, i) * math.comb(n, 2 * r + 1 + i)
         for i in range(j + g)]
    return p, q, e


def _comb_triple(A, B, C):
    """The unsigned triple of pade._general_triple, binomial by binomial."""
    s = A + B + C + 1
    p = [(-1) ** i * math.comb(s, i) * math.comb(A + C - i, A)
         for i in range(C + 1)]
    q = [math.comb(A + C - i, C) * math.comb(B + i, i) for i in range(A + 1)]
    e = [(-1) ** i * math.comb(A + i, i) * math.comb(s, A + C + 1 + i)
         for i in range(B + 1)]
    return p, q, e


def _comb_general(A, B, C):
    p, q, e = _comb_triple(A, B, C)
    sign = (-1) ** C
    return [sign * c for c in p], [sign * c for c in q], e


def _divided_oracle(p, q, e):
    """(c, (P/c, Q/c, E/c)) for the raw binomial triple and c = gcd(Q): the
    division that every built system once went through, by
    exact_scalar_div."""
    c = math.gcd(*q)
    return c, tuple(IntPolynomial(part).exact_scalar_div(c)
                    for part in (p, q, e))


def test_general_triple_matches_comb():
    # zeros included: the diagonal system at j = 1, g = 0 has B = 0.  At
    # c = 1 the loops give the raw triple, at c = gcd(Q) the divided one
    for A in range(9):
        for B in range(9):
            for C in range(9):
                raw = _comb_triple(A, B, C)
                c, divided = _divided_oracle(*raw)
                assert (pade._general_triple(A, B, C, 1)
                        == tuple(map(IntPolynomial, raw))), (A, B, C)
                assert pade._general_triple(A, B, C, c) == divided, (A, B, C)


@pytest.mark.parametrize("j", [*range(1, 121), 240, 480])
def test_starred_diagonal_matches_the_divided_raw_triple(j):
    # the old path as the oracle: each part of the raw binomial triple
    # divided by gcd(Q).  The stored triple and content equal it, and
    # content times the stored triple gives the raw formulas back
    for g in (0, 1):
        raw = _comb_diagonal(j, g)
        c, divided = _divided_oracle(*raw)
        sys = pade._unverified_diagonal(j, g)
        assert (sys.content, (sys.P, sys.Q, sys.E)) == (c, divided), g
        assert _raw(sys) == tuple(map(IntPolynomial, raw)), g


def test_starred_general_matches_the_divided_raw_triple():
    for abc in itertools.product(range(1, 7), repeat=3):
        raw = _comb_general(*abc)
        c, divided = _divided_oracle(*raw)
        sys = build_general(*abc)
        assert (sys.content, (sys.P, sys.Q, sys.E)) == (c, divided), abc
        assert _raw(sys) == tuple(map(IntPolynomial, raw)), abc


@pytest.mark.parametrize("factor", (2, 3))
def test_doctored_content_raises_naming_p_or_e(factor):
    # c times 2 or 3 does not divide every coefficient: it stops the loop
    # of P or E, at the first term or at a step (at (8, 1, 8), j = 2, it
    # divides the first term of every part, so only a step's remainder
    # stops it).  Q comes last, as its content is c itself
    params = [pade._diagonal_params(j, g) for j in range(1, 13)
              for g in (0, 1)]
    params += list(itertools.product((1, 2, 5), repeat=3))
    for A, B, C in params:
        c = math.gcd(*_comb_triple(A, B, C)[1])
        with pytest.raises(pade.ContentViolationError,
                           match=r"does not divide [PE] at"):
            pade._general_triple(A, B, C, factor * c)


def test_diagonal_recurrences_match_comb():
    for j in (*range(1, 41), 60, 120, 240):
        for g in (0, 1):
            p, q, e = _comb_diagonal(j, g)
            sys = build_diagonal(j, g)
            assert _raw(sys) == tuple(map(IntPolynomial, (p, q, e)))
            assert (sys.k, sys.r) == (5 * j, 4 * j - g)
            assert (sys.A, sys.B, sys.C) == (sys.r, j + g - 1, sys.r)
            assert sys.remainder_degree() == 2 * sys.r + 1
            assert content(j, g) == math.gcd(*q)


def test_general_recurrences_match_comb():
    for A in range(1, 7):
        for B in range(1, 7):
            for C in range(1, 7):
                sys = build_general(A, B, C)
                expected = tuple(map(IntPolynomial, _comb_general(A, B, C)))
                assert _raw(sys) == expected, (A, B, C)
                assert (sys.k, sys.r) == (B + C + 1, A)


def test_diagonal_is_signed_general():
    # the diagonal system is (-1)^r times the general one at (r, j+g-1, r),
    # E unchanged; j = 1, g = 0 has B = 0, outside build_general
    for j in range(1, 9):
        for g in (0, 1):
            diag = build_diagonal(j, g)
            if diag.B == 0:
                continue
            gen = build_general(diag.A, diag.B, diag.C)
            sign = (-1) ** diag.r
            assert diag.content == gen.content
            assert (diag.P, diag.Q, diag.E) == (gen.P * sign, gen.Q * sign,
                                                gen.E)


# ---------------------------------------------------------------------------
# frozen examples and identities


def test_binom():
    assert binom(8, 4) == 70
    assert binom(9, 9) == 1
    assert binom(4, -1) == 0
    assert binom(4, 5) == 0


def test_build_general_404_extension():
    # the triple at (A, B, C) = (4, 0, 4) is the diagonal system at j = 1, g = 0
    sys = build_diagonal(1, 0)
    assert (sys.A, sys.B, sys.C) == (4, 0, 4)
    assert list(sys.P.coeffs) == [70, -315, 540, -420, 126]
    assert list(sys.Q.coeffs) == [70, 35, 15, 5, 1]
    assert list(sys.E.coeffs) == [1]


def test_build_general_rejects_zero_by_default():
    for params in ((4, 0, 4), (0, 1, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            build_general(*params)


def test_general_constant_terms_agree():
    for A in range(1, 5):
        for B in range(1, 5):
            for C in range(1, 5):
                sys = build_general(A, B, C)
                assert sys.P.coeffs[0] == sys.Q.coeffs[0]
                assert abs(sys.content * sys.P.coeffs[0]) == binom(A + C, A)


def test_build_diagonal_10():
    sys = build_diagonal(1, 0)
    assert list(sys.Q.coeffs) == [70, 35, 15, 5, 1]
    assert list(sys.P.coeffs) == [70, -315, 540, -420, 126]
    assert list(sys.E.coeffs) == [1]
    # P - (1-z)^5 Q = z^9 exactly
    lhs = sys.P - ONE_MINUS_Z ** 5 * sys.Q
    assert lhs == IntPolynomial.monomial(1, 9)


def test_build_diagonal_11():
    sys = build_diagonal(1, 1)
    assert list(_raw(sys)[1].coeffs) == [20, 20, 12, 4]
    assert [binom(6 - i, 3) * (i + 1) for i in range(4)] == [20, 20, 12, 4]


@pytest.mark.parametrize("j", range(1, 9))
@pytest.mark.parametrize("g", (0, 1))
def test_diagonal_identity_and_degrees(j, g):
    sys = build_diagonal(j, g)
    assert sys.P.degree == sys.Q.degree == 4 * j - g
    assert sys.E.degree == sys.k - sys.r - 1
    assert sys.identity_holds()


def test_content_examples():
    assert content(1, 0) == 1
    assert content(1, 1) == 4
    assert content(2, 0) == 9
    assert content(3, 0) == 13


def test_content_equals_gcd_of_built_q():
    for j in range(1, 13):
        for g in (0, 1):
            sys = build_diagonal(j, g)
            assert content(j, g) == sys.content == _raw(sys)[1].content()
            assert sys.Q.content() == 1


def test_content_lower_bound_at_51():
    for g in (0, 1):
        assert content(51, g) * 1000 ** 51 > 2943 ** 51


def test_normalize():
    assert normalize(build_diagonal(1, 0)).content == 1
    starred = normalize(build_diagonal(1, 1))
    assert starred.content == 4
    assert list(starred.Q.coeffs) == [5, 5, 3, 1]
    assert starred.identity_holds()


def test_normalize_divides_all_three_at_scale():
    sys = normalize(build_diagonal(60, 0))
    assert sys.content > 1
    assert sys.identity_holds()


@pytest.mark.parametrize("j", range(1, 9))
def test_cross_constant_monomial(j):
    # the constant of the raw triples, content times the stored ones
    lo, hi = build_diagonal(j, 1), build_diagonal(j, 0)
    c = cross_constant(lo, hi)
    assert c != 0
    (p_lo, q_lo, _), (p_hi, q_hi, _) = _raw(lo), _raw(hi)
    residual = p_lo * q_hi - q_lo * p_hi
    assert residual == IntPolynomial.monomial(c, 8 * j - 1)
    # the stored triples give it divided by both contents
    assert (lo.P * hi.Q - lo.Q * hi.P == IntPolynomial.monomial(
        c // (lo.content * hi.content), 8 * j - 1))


def test_cross_constant_self_rejected():
    sys = build_diagonal(1, 0)
    with pytest.raises(ValueError):
        cross_constant(sys, sys)


def test_cross_constant_order_enforced():
    lo, hi = build_diagonal(2, 1), build_diagonal(2, 0)
    assert cross_constant(lo, hi) != 0
    with pytest.raises(ValueError):
        cross_constant(hi, lo)  # degrees must be r, r+1 in that order


def test_cross_constant_rejects_corrupt_system():
    lo, hi = build_diagonal(1, 1), build_diagonal(1, 0)
    bad = lo._replace(P=lo.P + lo.Q)
    with pytest.raises(NotMonomialError):
        cross_constant(bad, hi)


# cross_constant reads c off the two identities once both are verified and
# the degrees allow it, and otherwise forms the residual P_r Q_(r+1) -
# Q_r P_(r+1) of the stored triples; the oracle below is that residual of
# the raw triples, content times the stored ones


def _cross_outcome(lo, hi):
    try:
        return cross_constant(lo, hi)
    except NotMonomialError:
        return "not a monomial"


def _direct_outcome(lo, hi):
    (p_lo, q_lo, _), (p_hi, q_hi, _) = _raw(lo), _raw(hi)
    residual = p_lo * q_hi - q_lo * p_hi
    c = residual.coeffs[-1] if residual.coeffs else 0
    if c and residual == IntPolynomial.monomial(c, lo.remainder_degree()):
        return c
    return "not a monomial"


def test_cross_constant_matches_direct_residual_on_diagonal_pairs():
    for j in range(1, 41):
        lo, hi = build_diagonal(j, 1), build_diagonal(j, 0)
        for pair in ((lo, hi), (_raw_system(lo), _raw_system(hi))):
            c = _direct_outcome(*pair)
            assert c != "not a monomial" and cross_constant(*pair) == c, j


def test_cross_constant_matches_direct_residual_on_general_pairs():
    abc = range(1, 7)
    systems = {t: build_general(*t)
               for t in itertools.product(range(1, 8), abc, abc)}
    pairs = 0
    for a, b, c in itertools.product(abc, repeat=3):
        lo = systems[a, b, c]
        for b1 in abc:
            hi = systems.get((a + 1, b1, b + c - b1))
            if hi is not None:
                assert _cross_outcome(lo, hi) == _direct_outcome(lo, hi), \
                    ((a, b, c), (a + 1, b1, b + c - b1))
                pairs += 1
    # 6 values of A; n(s) = min(s-1, 13-s) ways to write each B+C = s
    assert pairs == 6 * sum(min(s - 1, 13 - s) ** 2 for s in range(2, 13))


@pytest.mark.parametrize("j", range(1, 7))
def test_cross_constant_matches_direct_residual_on_mutants(j):
    # +-1 on any one coefficient of P, Q or E in either system: a bent
    # system fails its identity, so the outcome is the direct residual's
    pair = [build_diagonal(j, 1), build_diagonal(j, 0)]
    for side in (0, 1):
        for name in ("P", "Q", "E"):
            coeffs = getattr(pair[side], name).coeffs
            for i in range(len(coeffs)):
                for delta in (1, -1):
                    bent = list(coeffs)
                    bent[i] += delta
                    mutant = pair[:]
                    mutant[side] = pair[side]._replace(
                        **{name: IntPolynomial(bent)})
                    assert (_cross_outcome(*mutant)
                            == _direct_outcome(*mutant)), (side, name, i, delta)


def _direct_defect(sys):
    # (1-z)^k by repeated squaring and the schoolbook product, independent of
    # one_minus_z_pow and of the Kronecker product
    remainder = IntPolynomial.monomial(sys.identity_sign(),
                                       sys.remainder_degree())
    return (sys.P - _schoolbook(ONE_MINUS_Z ** sys.k, sys.Q)
            - _schoolbook(remainder, sys.E))


def test_defect_matches_direct_identity():
    # identity_holds agrees with the direct defect, on the built systems and
    # on each bent by z^B in Q
    systems = [build_diagonal(j, g) for j in range(1, 13) for g in (0, 1)]
    systems += [build_general(*t)
                for t in itertools.product(range(1, 5), repeat=3)]
    for sys in systems:
        assert sys.identity_holds() and _direct_defect(sys).is_zero()
        bent = sys._replace(Q=sys.Q + IntPolynomial.monomial(1, sys.B))
        assert not _direct_defect(bent).is_zero()
        assert not bent.identity_holds()


def test_replaced_system_does_not_inherit_cached_defect():
    # the identity verdict that build caches does not carry over to a
    # system made by replace: each derived system decides its own
    sys = build_diagonal(3, 1)
    assert "_identity" in vars(sys) and sys.identity_holds()  # cached by build
    assert normalize(sys) is sys and sys.content > 1
    bent = sys._replace(P=sys.P + IntPolynomial((1,)))
    raw = _raw_system(sys)
    for derived in (bent, raw):
        assert "_identity" not in vars(derived)
        assert derived.identity_holds() == _direct_defect(derived).is_zero()
    assert _direct_defect(bent) == IntPolynomial((1,))
    assert not bent.identity_holds() and raw.identity_holds()


def test_cross_constant_zero_c_takes_the_residual():
    # a zero system satisfies its identity and the degree bound, but gives
    # c = 0: the residual decides, and it is no monomial
    lo, hi = build_diagonal(2, 1), build_diagonal(2, 0)
    zero = IntPolynomial.zero()
    for pair in ((lo, hi._replace(P=zero, Q=zero, E=zero)),
                 (lo._replace(P=zero, Q=zero, E=zero), hi)):
        assert all(sys.identity_holds() for sys in pair)
        assert _direct_outcome(*pair) == "not a monomial"
        with pytest.raises(NotMonomialError):
            cross_constant(*pair)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
       st.integers(-2, 2),
       st.lists(st.lists(st.integers(-3, 3), max_size=4), min_size=4,
                max_size=4))
def test_cross_constant_matches_direct_residual_on_synthetic_pairs(
        A, B, C, shift, polys):
    # systems whose identity holds by construction, P = (1-z)^k Q + z^m E
    # with arbitrary small Q and E (zero ones and E(0) = 0 included), at
    # (A, B, C) and (A + 1, B1, C1) with the same k = B + C + 1
    B1 = max(0, min(B + C, B + shift))
    C1 = B + C - B1

    def system(a, b, c, q, e):
        q, e = IntPolynomial(q), IntPolynomial(e)
        p = one_minus_z_pow(b + c + 1) * q + e.shift(a + c + 1)
        return pade.PadeSystem("general", a, b, c, p, q, e)

    lo = system(A, B, C, polys[0], polys[1])
    hi = system(A + 1, B1, C1, polys[2], polys[3])
    assert lo.identity_holds() and hi.identity_holds()
    assert _cross_outcome(lo, hi) == _direct_outcome(lo, hi)


# ---------------------------------------------------------------------------
# evaluation in the quadratic ring


BETA76 = QuadInt.of(1015, 1, 76)


def test_eval_constant():
    assert eval_at_z0(IntPolynomial([1]), BETA76, 0) == 1


def test_eval_q_norm_is_integer():
    sys = build_diagonal(1, 0)
    ev = eval_at_z0(sys.Q, BETA76, 4)
    assert ev.norm() > 0  # exact integer by construction


def test_eval_deg_scale_too_small():
    with pytest.raises(ValueError):
        eval_at_z0(IntPolynomial([1, 2, 3]), BETA76, 1)


def test_eval_conjugation_consistency():
    # conj(beta) - beta = conj(lambda), so conjugating beta conjugates z0
    sys = build_diagonal(2, 1)
    ev = eval_at_z0(sys.Q, BETA76, sys.r)
    ev_conj = eval_at_z0(sys.Q, BETA76.conj(), sys.r)
    assert ev.conj() == ev_conj


def _horner_eval_at_z0(poly, beta, deg_scale):
    """The oracle: beta^deg_scale * poly(lambda/beta), lambda = beta -
    conj(beta), by Horner's rule over a table of beta powers, one QuadInt
    operation at a time."""
    if deg_scale < poly.degree:
        raise ValueError(f"deg_scale {deg_scale} < degree {poly.degree}")
    lam = beta - beta.conj()
    beta_pows = [QuadInt.from_int(1, beta.D)]
    for _ in range(deg_scale):
        beta_pows.append(beta_pows[-1] * beta)
    acc = QuadInt.from_int(0, beta.D)
    for i in range(poly.degree, -1, -1):
        acc = acc * lam + poly.coeffs[i] * beta_pows[deg_scale - i]
    return acc


@pytest.mark.parametrize("beta",
                         [BETA76, BETA76.conj(), QuadInt.half(181, 1, 7)],
                         ids=["integral", "conjugate", "halved"])
def test_eval_matches_horner_oracle(beta):
    rng = random.Random(20171)
    polys = [IntPolynomial.zero()]
    for degree in range(0, 301, 4):
        bits = rng.choice((1, 8, 64, 600))
        cs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
        lead = rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
        polys.append(IntPolynomial(cs + [lead]))
    for poly in polys:
        degree = max(poly.degree, 0)
        for deg_scale in (degree, degree + 3):
            expected = _horner_eval_at_z0(poly, beta, deg_scale)
            assert eval_at_z0(poly, beta, deg_scale) == expected


@pytest.mark.parametrize("beta", [BETA76, QuadInt.half(181, 1, 7)],
                         ids=["integral", "halved"])
def test_eval_horner_runs_match_a_direct_sum(beta):
    # degrees 0 to 3 L cover one Horner run, runs of every length up to L
    # at the leaves of one split, and splits two levels deep
    run = pade._HORNER_RUN
    rng = random.Random(run)
    lam = beta - beta.conj()
    for degree in range(3 * run + 1):
        cs = [rng.choice((0, 1, -1, rng.randint(-2 ** 90, 2 ** 90)))
              for _ in range(degree)] + [rng.choice((-1, 1)) * 2 ** 90]
        poly = IntPolynomial(cs)
        for deg_scale in (degree, degree + 2):
            direct = sum((c * _power(lam, i) * _power(beta, deg_scale - i)
                          for i, c in enumerate(cs)),
                         QuadInt.from_int(0, beta.D))
            assert eval_at_z0(poly, beta, deg_scale) == direct, degree


@pytest.mark.parametrize("j", range(1, 5))
@pytest.mark.parametrize("g", (0, 1))
def test_assembled_identity(j, g):
    assert assembled_identity_holds(j, g, BETA76)


def test_assembled_identity_halved_beta():
    beta = QuadInt.half(181, 1, 7)  # lambda = sqrt(-7)
    assert assembled_identity_holds(1, 0, beta)
    assert assembled_identity_holds(1, 1, beta)


def _power(x, e):
    """x^e by e - 1 products, apart from QuadInt.__pow__."""
    out = QuadInt.from_int(1, x.D)
    for _ in range(e):
        out = out * x
    return out


@pytest.mark.parametrize("beta", [BETA76, QuadInt.half(181, 1, 7)],
                         ids=["integral", "halved"])
@pytest.mark.parametrize("j", range(1, 11))
@pytest.mark.parametrize("g", (0, 1))
def test_starred_at_z0_matches_three_evaluations(beta, j, g):
    lam = beta - beta.conj()
    sys = normalize(build_diagonal(j, g))
    k, r = sys.k, sys.r
    ev_p = eval_at_z0(sys.P, beta, r)
    ev_q = eval_at_z0(sys.Q, beta, r)
    ev_e = eval_at_z0(sys.E, beta, k - r - 1)
    assembled = _power(beta, k) * ev_p - _power(beta.conj(), k) * ev_q
    assert assembled == (-1) ** r * _power(lam, 2 * r + 1) * ev_e
    assert starred_at_z0(sys, beta) == (ev_p, ev_q, assembled, True)
    doctored = sys._replace(P=sys.P + IntPolynomial.monomial(1, 0))
    assert starred_at_z0(doctored, beta)[3] is False


# ---------------------------------------------------------------------------
# numeric bounds


def test_q_bound_small_j():
    # true values at (D, p) = (76, 101): the normalized bound fails at
    # j = 1 (|Q*(z0)| ~ 70.0 vs 27.5, content 1) and holds for j = 2..5
    r1 = check_q_bound(1, 76, 1030301)
    assert not r1.ok
    assert F(70 ** 2) < r1.value_sq < F(71 ** 2)
    for j in (2, 3, 4, 5):
        assert check_q_bound(j, 76, 1030301).ok


def test_q_bound_b_precondition():
    with pytest.raises(BOutOfRangeError):
        check_q_bound(1, 76, 1700)  # b = 1 - 152/1700 < 0.953


def test_q_bound_halved_beta():
    # D = 7, beta = (181 + sqrt(-7))/2, |beta|^2 = 8192
    rep = check_q_bound(1, 7, 8192)
    assert rep.b >= F("0.953")


def test_e_bound_examples():
    rep = check_e_bound(1, 1)
    assert rep.ratio == 8 == math.factorial(8) // (math.factorial(1) * math.factorial(7))
    assert rep.raw_ok and rep.norm_ok and rep.claimed
    rep51 = check_e_bound(51, 1)
    assert rep51.raw_ok and rep51.norm_ok
    assert not check_e_bound(3, 0).claimed


def test_beta_moment_identity():
    assert all(beta_moment_identity_holds(r) for r in range(11))


def test_kernel_at_bmin():
    rep = kernel_extrema(F("0.953"))
    # exact integral, cross-checked against symbolic integration
    assert rep.integral == F(4510501, 39375000)
    # true extrema land just above the printed constants
    assert not rep.integral_ok
    assert not rep.max_ok
    # true max 0.04447905355403929731... (cross-checked with sympy real_roots),
    # a hair above the printed 0.044479
    assert F("0.04447905355") < rep.max_lower <= rep.max_upper < F("0.04447905356")
    assert rep.max_upper - rep.max_lower < F(1, 10 ** 9)


def test_kernel_integral_matches_sympy():
    import sympy
    t = sympy.symbols("t")
    b = sympy.Rational(953, 1000)
    expected = sympy.integrate((1 - t) ** 4 * (1 - 2 * b * t + t * t) ** 2,
                               (t, 0, 1))
    got = kernel_extrema(F("0.953")).integral
    assert sympy.Rational(got.numerator, got.denominator) == expected


def test_kernel_at_one():
    rep = kernel_extrema(F(1))
    assert rep.integral == F(1, 9)
    assert rep.integral_ok and rep.max_ok
    # max of (1-t)^8 t is at t = 1/9
    expected = F(8, 9) ** 8 * F(1, 9)
    assert rep.max_lower <= expected <= rep.max_upper


def test_kernel_monotone_in_b():
    grid = [F("0.953"), F("0.96"), F("0.97"), F("0.98"), F("0.99"), F(1)]
    maxima = [kernel_extrema(b).max_upper for b in grid]
    assert all(m2 < m1 for m1, m2 in zip(maxima, maxima[1:]))


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10), st.fractions())
@settings(max_examples=200, deadline=None)
def test_value_and_derivative_match_rational_sums(cs, x):
    poly = IntPolynomial(cs)
    assert poly.value(x) == sum((c * x ** i for i, c in enumerate(cs)), F(0))
    assert poly.derivative().value(x) == sum(
        (i * c * x ** (i - 1) for i, c in enumerate(cs) if i), F(0))


@given(st.lists(st.integers(-60, 60), min_size=2, max_size=8), st.fractions())
@settings(max_examples=200, deadline=None)
def test_variations_match_signs_of_values(cs, x):
    # the integer Horner sum read by _variations has the sign of the value
    chain = _sturm_chain(IntPolynomial(cs))
    signs = [1 if v > 0 else -1 for v in (q.value(x) for q in chain) if v]
    assert _variations(chain, x) == sum(s != t for s, t in zip(signs, signs[1:]))


def _fmod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The remainder of a by b over the rationals, step by step."""
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


_nonzero_polys = st.lists(st.integers(-60, 60), min_size=1, max_size=10).map(
    IntPolynomial).filter(lambda p: not p.is_zero())


@given(_nonzero_polys, _nonzero_polys)
@settings(max_examples=300, deadline=None)
@example(IntPolynomial([3, 0, 0, 0, 0, 5]), IntPolynomial([-2, 0, 7]))
@example(IntPolynomial([4, 6]), IntPolynomial([-3]))
def test_sturm_remainder_is_a_positive_multiple(a, b):
    # a positive factor keeps the signs a Sturm count reads
    got = _sturm_remainder(a, b)
    want = _fmod([F(c) for c in a.coeffs], [F(c) for c in b.coeffs])
    if not want:
        assert got.is_zero()
        return
    ratio = got.coeffs[-1] / want[-1]
    assert ratio > 0 and got.content() == 1
    assert [F(c) for c in got.coeffs] == [ratio * c for c in want]


@pytest.mark.parametrize("b,digest", [
    ("0.953", "52d149281aff90278777de840da701eb7c5928c2a85f7412e3e30aa2d965cbf4"),
    ("0.97", "a9861278f5708c104a4df74c92c7c8e70244f1a51f51c8fa8d85e446a8cadcab"),
    ("1", "1e2b7dbb3feaeaaa46739dc51a47a8300dbda7c12bcf4147d3aa54d7d8ed7821"),
])
def test_kernel_report_pinned(b, digest):
    # sha256 of the report from the rational (Fraction-list) Sturm code
    rep = repr(kernel_extrema(F(b)))
    assert hashlib.sha256(rep.encode()).hexdigest() == digest


def test_kernel_rejects_out_of_range():
    with pytest.raises(BOutOfRangeError):
        kernel_extrema(F("0.95"))
    with pytest.raises(BOutOfRangeError):
        kernel_extrema(F("1.01"))


def test_factorial_ratio_bounds():
    rep = factorial_ratio_bounds(1, 1, 1)
    assert rep.ok  # 6 < 27 sqrt(3)/(2 pi) = 7.44...
    assert factorial_ratio_bounds(51, 8 * 51 - 1).ok
    assert factorial_ratio_bounds(5, 3, 7).ok
    with pytest.raises(ValueError):
        factorial_ratio_bounds(0, 1, 1)


def test_factorial_ratio_reports_pinned():
    # sha256 of the reports, recorded from separate two- and three-argument
    # bodies
    reps = [repr(factorial_ratio_bounds(A, B))
            for A in range(1, 30) for B in range(1, 30)]
    reps += [repr(factorial_ratio_bounds(A, B, C))
             for A in range(1, 12) for B in range(1, 12) for C in range(1, 12)]
    assert hashlib.sha256("\n".join(reps).encode()).hexdigest() == (
        "59ec556ebd385d08ca25a3db42266a9da30dbb240f4c547ede4e9210d6ca5a77")


def test_q_prefactor_bound_sweep():
    assert all(q_prefactor_bound(j) for j in range(1, 61))


@pytest.mark.parametrize("k", [1, 2])
def test_pi_power_compares_one_unit_either_side(monkeypatch, k):
    # pi**k rounded down to 60 digits, and one unit more: 30 digits cannot
    # tell either from pi**k, 60 digits tell both
    with mp.workdps(80):
        below = F(int(mp.floor(mp.pi ** k * 10 ** 59)), 10 ** 59)
    above = below + F(1, 10 ** 59)
    for cap, want in (("30", [rigor.Comparison.UNDECIDABLE] * 2),
                      ("60", [rigor.Comparison.GREATER,
                              rigor.Comparison.LESS])):
        monkeypatch.setenv("RNLAB_PRECISION_CAP", cap)
        assert [_compare_pi(k, x) for x in (below, above)] == want


def _factorial_ratio_by_intervals(*args) -> bool:
    # the mpmath interval builders that factorial_ratio_bounds decided on
    # before pi was enclosed in integers, kept as its oracle
    n = sum(args)
    lhs = F(math.factorial(n), math.prod(map(math.factorial, args)))
    power = F(n ** n, math.prod(a ** a for a in args))
    radicand = F(n, math.prod(args))

    def rhs():
        divisor = iv.sqrt(2 * iv.pi) if len(args) == 2 else 2 * iv.pi
        return iv_fraction(power) * iv.sqrt(iv_fraction(radicand)) / divisor

    return rigor.decide(built(iv_fraction, lhs), built(rhs)) \
        is rigor.Comparison.LESS


def _q_prefactor_by_intervals(j: int) -> bool:
    lhs = F(math.factorial(9 * j),
            math.factorial(j - 1) * math.factorial(4 * j) ** 2)
    target = F(3 ** (18 * j + 1), 8 * lhs * 2 ** (16 * j))
    return rigor.decide(built(lambda: +iv.pi), built(iv_fraction, target)) \
        is rigor.Comparison.LESS


def test_pi_verdicts_match_the_interval_builders():
    # the grid of test_factorial_ratio_reports_pinned, and j <= 120
    grid = [(A, B) for A in range(1, 30) for B in range(1, 30)]
    grid += itertools.product(range(1, 12), repeat=3)
    for args in grid:
        assert factorial_ratio_bounds(*args).ok \
            == _factorial_ratio_by_intervals(*args), args
    for j in range(1, 121):
        assert q_prefactor_bound(j) == _q_prefactor_by_intervals(j), j


def test_bound_constant_consistency():
    # the printed derived bases sit within two units in the last printed
    # digit above the exact quotients (rounded upward, so the printed
    # bounds stay valid); the raw base and the content base are the
    # paper's provenance for q_base and e_base, and no check reads them
    raw_base, content_base = F("262.9407"), F("2.943")
    q_exact = raw_base / content_base
    assert 0 <= BOUNDS.q_base - q_exact <= F(2, 10 ** 4)
    e_exact = F(9 ** 9, 8 ** 8) / content_base
    assert 0 <= BOUNDS.e_base - e_exact <= F(2, 10 ** 3)


# ---------------------------------------------------------------------------
# each verdict reads the constant that its report prints


def test_q_bound_verdict_follows_q_base(monkeypatch):
    assert check_q_bound(2, 76, 1030301).ok
    monkeypatch.setattr(bounds, "BOUNDS", BOUNDS._replace(q_base=F(40)))
    rep = check_q_bound(2, 76, 1030301)
    assert rep.bound_sq == (F("0.308") * 40 ** 2) ** 2
    assert not rep.ok and rep.margin_log10 < 0
    monkeypatch.setattr(bounds, "BOUNDS", BOUNDS._replace(q_base=F(1000)))
    assert check_q_bound(1, 76, 1030301).ok


def test_e_bound_verdicts_follow_e_coeff(monkeypatch):
    rep = check_e_bound(1, 1)
    assert rep.raw_ok and rep.norm_ok
    monkeypatch.setattr(bounds, "BOUNDS", BOUNDS._replace(e_coeff=F("0.2")))
    rep = check_e_bound(1, 1)
    assert not rep.raw_ok and not rep.norm_ok
    assert rep.raw_margin_log10 < 0 and rep.norm_margin_log10 < 0
    monkeypatch.setattr(bounds, "BOUNDS", BOUNDS._replace(e_coeff=F(2)))
    assert check_e_bound(2, 1).norm_ok  # fails at 0.377


def test_bound_report_grid_pinned():
    # sha256 of the reports from the integer re-encodings of the bounds
    reps = [repr(check_q_bound(j, 76, 1030301))
            for j in [*range(1, 13), *range(48, 58)]]
    reps += [repr(check_e_bound(j, g)) for j in range(1, 61) for g in (0, 1)]
    assert (hashlib.sha256("\n".join(reps).encode()).hexdigest()
            == "c3eedb10517a8952e4b4fcde13dcebff9f1cbc83e1608d8e2932301f6018d9b4")
