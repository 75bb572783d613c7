import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rnlab.pade import (BOUNDS, BOutOfRangeError, IntPolynomial, NotMonomialError,
                        ONE_MINUS_Z, _sturm_chain, _sturm_remainder, _variations,
                        beta_moment_identity_holds,
                        binom, build_diagonal, build_general, check_e_bound,
                        check_q_bound, content, cross_constant, eval_at_z0,
                        assembled_identity_holds, factorial_ratio_bounds,
                        kernel_extrema, normalize, one_minus_z_pow,
                        q_prefactor_bound, starred_at_z0)
from rnlab import pade
from rnlab.quadring import MixedDError, QuadInt

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


def _as_fractions(poly):
    return [F(c) for c in poly.coeffs]


@pytest.mark.parametrize("A,B,C", [(1, 1, 1), (2, 1, 3), (3, 3, 3),
                                   (1, 4, 2), (4, 2, 1)])
def test_general_matches_integral_oracle(A, B, C):
    sys = build_general(A, B, C)
    op, oq, oe = _oracle_general(A, B, C)
    assert _as_fractions(sys.P) == op[:sys.P.degree + 1]
    assert _as_fractions(sys.Q) == oq[:sys.Q.degree + 1]
    assert _as_fractions(sys.E) == oe[:sys.E.degree + 1]


@pytest.mark.parametrize("j,g", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_diagonal_matches_integral_oracle(j, g):
    # diagonal triple = (-1)^r * general triple at A = C = r, B = k - r - 1
    # on P and Q; E agrees directly
    sys = build_diagonal(j, g)
    r, b = sys.r, sys.k - sys.r - 1
    op, oq, oe = _oracle_general(r, b, r)
    sign = F(-1) ** r
    assert _as_fractions(sys.P) == [sign * c for c in op]
    assert _as_fractions(sys.Q) == [sign * c for c in oq]
    got_e = _as_fractions(sys.E)
    assert got_e == oe[:len(got_e)]
    assert all(c == 0 for c in oe[len(got_e):])


@pytest.mark.parametrize("j", [*range(1, 25), 40, 60])
@pytest.mark.parametrize("g", (0, 1))
def test_unverified_diagonal_matches_build_diagonal(j, g):
    # the audit's builder skips only the identity product: its starred
    # systems are those of the verified builder
    assert (normalize(pade._unverified_diagonal(j, g))
            == normalize(build_diagonal(j, g)))


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
            mutant = replace(sys, **{name: IntPolynomial(bent)})
            assert not mutant.identity_holds(), (name, i, delta)


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


def _comb_general(A, B, C):
    s = A + B + C + 1
    p = [(-1) ** (C + i) * math.comb(s, i) * math.comb(A + C - i, A)
         for i in range(C + 1)]
    q = [(-1) ** C * math.comb(A + C - i, C) * math.comb(B + i, i)
         for i in range(A + 1)]
    e = [(-1) ** i * math.comb(A + i, i) * math.comb(s, A + C + 1 + i)
         for i in range(B + 1)]
    return p, q, e


def test_diagonal_recurrences_match_comb():
    for j in range(1, 41):
        for g in (0, 1):
            p, q, e = _comb_diagonal(j, g)
            sys = build_diagonal(j, g)
            assert (sys.P, sys.Q, sys.E) == tuple(map(IntPolynomial, (p, q, e)))
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
                assert (sys.P, sys.Q, sys.E) == expected, (A, B, C)
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
                assert abs(sys.P.coeffs[0]) == binom(A + C, A)


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
    assert list(sys.Q.coeffs) == [20, 20, 12, 4]
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
            assert content(j, g) == build_diagonal(j, g).Q.content()


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
    lo, hi = build_diagonal(j, 1), build_diagonal(j, 0)
    c = cross_constant(lo, hi)
    assert c != 0
    residual = lo.P * hi.Q - lo.Q * hi.P
    assert residual == IntPolynomial.monomial(c, 8 * j - 1)
    # starred variant is a monomial of the same degree
    cs = cross_constant(normalize(lo), normalize(hi))
    assert cs != 0


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
    bad = replace(lo, P=lo.P + lo.Q)
    with pytest.raises(NotMonomialError):
        cross_constant(bad, hi)


# ---------------------------------------------------------------------------
# evaluation in the quadratic ring


BETA76 = QuadInt.of(1015, 1, 76)
LAM76 = BETA76 - BETA76.conj()  # 2 sqrt(-76)


def test_eval_constant():
    assert eval_at_z0(IntPolynomial([1]), BETA76, 0, LAM76) == 1


def test_eval_q_norm_is_integer():
    sys = build_diagonal(1, 0)
    ev = eval_at_z0(sys.Q, BETA76, 4, LAM76)
    assert ev.norm() > 0  # exact integer by construction


def test_eval_deg_scale_too_small():
    with pytest.raises(ValueError):
        eval_at_z0(IntPolynomial([1, 2, 3]), BETA76, 1, LAM76)


def test_eval_conjugation_consistency():
    sys = build_diagonal(2, 1)
    lam = LAM76
    ev = eval_at_z0(sys.Q, BETA76, sys.r, lam)
    ev_conj = eval_at_z0(sys.Q, BETA76.conj(), sys.r, lam.conj())
    assert ev.conj() == ev_conj


def _horner_eval_at_z0(poly, beta, deg_scale, lam):
    """The oracle: beta^deg_scale * poly(lambda/beta) by Horner's rule over
    a table of beta powers, one QuadInt operation at a time."""
    if deg_scale < poly.degree:
        raise ValueError(f"deg_scale {deg_scale} < degree {poly.degree}")
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
    lam = beta - beta.conj()
    polys = [IntPolynomial.zero()]
    for degree in range(0, 301, 4):
        bits = rng.choice((1, 8, 64, 600))
        cs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
        lead = rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
        polys.append(IntPolynomial(cs + [lead]))
    for poly in polys:
        degree = max(poly.degree, 0)
        for deg_scale in (degree, degree + 3):
            expected = _horner_eval_at_z0(poly, beta, deg_scale, lam)
            assert eval_at_z0(poly, beta, deg_scale, lam) == expected
    # a lambda other than beta - conj(beta) enters as given
    poly = polys[16]
    other = QuadInt.half(3, 1, 7) if beta.u % 2 else QuadInt.of(5, -2, 76)
    assert (eval_at_z0(poly, beta, 60, other)
            == _horner_eval_at_z0(poly, beta, 60, other))


def test_eval_rejects_lambda_of_another_ring():
    with pytest.raises(MixedDError):
        eval_at_z0(IntPolynomial([1, 2]), BETA76, 1, QuadInt.of(0, 1, 7))


@pytest.mark.parametrize("j", range(1, 5))
@pytest.mark.parametrize("g", (0, 1))
def test_assembled_identity(j, g):
    assert assembled_identity_holds(j, g, BETA76, LAM76)


def test_assembled_identity_halved_beta():
    beta = QuadInt.half(181, 1, 7)
    lam = beta - beta.conj()  # sqrt(-7)
    assert assembled_identity_holds(1, 0, beta, lam)
    assert assembled_identity_holds(1, 1, beta, lam)


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
    ev_p = eval_at_z0(sys.P, beta, r, lam)
    ev_q = eval_at_z0(sys.Q, beta, r, lam)
    ev_e = eval_at_z0(sys.E, beta, k - r - 1, lam)
    assembled = _power(beta, k) * ev_p - _power(beta.conj(), k) * ev_q
    assert assembled == (-1) ** r * _power(lam, 2 * r + 1) * ev_e
    assert starred_at_z0(sys, beta, lam) == (ev_p, ev_q, assembled, True)
    doctored = replace(sys, P=sys.P + IntPolynomial.monomial(1, 0))
    assert starred_at_z0(doctored, beta, lam)[3] is False


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


def test_q_prefactor_bound_sweep():
    assert all(q_prefactor_bound(j) for j in range(1, 61))


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
    monkeypatch.setattr(pade, "BOUNDS", replace(BOUNDS, q_base=F(40)))
    rep = check_q_bound(2, 76, 1030301)
    assert rep.bound_sq == (F("0.308") * 40 ** 2) ** 2
    assert not rep.ok and rep.margin_log10 < 0
    monkeypatch.setattr(pade, "BOUNDS", replace(BOUNDS, q_base=F(1000)))
    assert check_q_bound(1, 76, 1030301).ok


def test_e_bound_verdicts_follow_e_coeff(monkeypatch):
    rep = check_e_bound(1, 1)
    assert rep.raw_ok and rep.norm_ok
    monkeypatch.setattr(pade, "BOUNDS", replace(BOUNDS, e_coeff=F("0.2")))
    rep = check_e_bound(1, 1)
    assert not rep.raw_ok and not rep.norm_ok
    assert rep.raw_margin_log10 < 0 and rep.norm_margin_log10 < 0
    monkeypatch.setattr(pade, "BOUNDS", replace(BOUNDS, e_coeff=F(2)))
    assert check_e_bound(2, 1).norm_ok  # fails at 0.377


def test_bound_report_grid_pinned():
    # sha256 of the reports from the integer re-encodings of the bounds
    reps = [repr(check_q_bound(j, 76, 1030301))
            for j in [*range(1, 13), *range(48, 58)]]
    reps += [repr(check_e_bound(j, g)) for j in range(1, 61) for g in (0, 1)]
    assert (hashlib.sha256("\n".join(reps).encode()).hexdigest()
            == "c3eedb10517a8952e4b4fcde13dcebff9f1cbc83e1608d8e2932301f6018d9b4")
