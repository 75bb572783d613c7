import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from rnlab.rigor import (Comparison, PowProd, affine_sign, decide,
                         enclosure_str, iv_fraction, iv_pow, rigorous_compare)

F = Fraction


def test_exact_fast_path_never_escalates():
    big = PowProd.of(F(10 ** 400), (F(2), F(500)))
    other = PowProd.of(1, (F(2), F(1900)))
    assert rigorous_compare(big, other) is Comparison.LESS


def test_transcendentally_equal_is_undecidable_at_cap():
    # 2^(1/2) and 8^(1/6) are the same real number; the enclosures can
    # never separate, so the comparison must stop at the cap
    lhs = PowProd.of(1, (F(2), F(1, 2)))
    rhs = PowProd.of(1, (F(8), F(1, 6)))
    assert rigorous_compare(lhs, rhs, cap_digits=200) is Comparison.UNDECIDABLE


def test_tight_but_unequal_separates_with_escalation():
    # 2^(1/2) vs the first 30 digits of sqrt(2): separation needs more
    # than the starting precision
    approx = F("1.41421356237309504880168872420")
    lhs = PowProd.of(1, (F(2), F(1, 2)))
    assert rigorous_compare(lhs, PowProd.of(approx)) is Comparison.GREATER


def test_powprod_as_fraction():
    assert PowProd.of(F(3, 4), (F(2), F(5))).as_fraction() == F(24)
    assert PowProd.of(1, (F(2), F(1, 2))).as_fraction() is None


_fractions = st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 10 ** 4))
_exponents = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 6, 7, 100]))
_powprods = st.builds(
    lambda coeff, factors: PowProd.of(coeff, *factors),
    _fractions, st.lists(st.tuples(_fractions, _exponents), max_size=3))


@settings(max_examples=200, deadline=None)
@given(_powprods, _powprods, st.sampled_from([None, 0, 12, 40]), st.booleans())
def test_log_domain_agrees_with_linear_domain(lhs, rhs, digits, flip):
    # rhs is drawn independently (None), equal to lhs (0), or lhs moved by
    # 10^-digits, so that separating them needs more than the starting
    # precision
    if digits == 0:
        rhs = lhs
    elif digits is not None:
        rhs = PowProd(lhs.coeff * (1 + F(1 if flip else -1, 10 ** digits)),
                      lhs.factors)
    cap = 120
    log_verdict = rigorous_compare(lhs, rhs, cap)
    # the linear-domain reference: enclosures of the products themselves
    lin_verdict = decide(lhs.enclosure, rhs.enclosure, cap)
    decided = {Comparison.LESS, Comparison.GREATER}
    if log_verdict in decided and lin_verdict in decided:
        assert log_verdict is lin_verdict


def test_log_domain_equal_products_stay_undecidable():
    # 2^(1/2) * 3^(2/3) against 8^(1/6) * 9^(1/3) at the full default cap
    lhs = PowProd.of(1, (F(2), F(1, 2)), (F(3), F(2, 3)))
    rhs = PowProd.of(1, (F(8), F(1, 6)), (F(9), F(1, 3)))
    assert rigorous_compare(lhs, rhs, cap_digits=400) is Comparison.UNDECIDABLE


@pytest.mark.parametrize("base", [F(0), F(-2), F(-1, 3)])
def test_nonpositive_base_raises_same_error(base):
    bad = PowProd.of(1, (base, F(1, 2)))
    msg = f"iv_pow needs a positive base, got {base}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        rigorous_compare(bad, PowProd.of(1, (F(2), F(1, 3))))
    with pytest.raises(ValueError, match=re.escape(msg)):
        rigorous_compare(PowProd.of(1, (F(2), F(1, 3))), bad)
    with pytest.raises(ValueError, match=re.escape(msg)):
        iv_pow(base, F(1, 2))


def test_nonpositive_coefficient_raises():
    with pytest.raises(ValueError, match="positive coefficient"):
        rigorous_compare(PowProd.of(-1, (F(2), F(1, 2))), PowProd.of(1))


def test_log_enclosure_computes_each_log_once_per_precision(monkeypatch):
    calls = []
    real_log = iv.log

    def counting_log(x):
        calls.append(iv.dps)
        return real_log(x)

    monkeypatch.setattr(iv, "log", counting_log)
    logs = {}
    pp = PowProd.of(3, (F(101), F(3, 2)), (F(76), F(7, 9)))
    with mp.workdps(100):
        exact = mp.log(3) + 1.5 * mp.log(101) + mp.mpf(7) / 9 * mp.log(76)
    saved = iv.dps
    try:
        for dps in (30, 30, 60):
            iv.dps = dps
            assert exact in pp.log_enclosure(logs)
    finally:
        iv.dps = saved
    assert calls == [30, 30, 30, 60, 60, 60]
    assert set(logs) == {(b, d) for b in (F(3), F(101), F(76)) for d in (30, 60)}


def _sqrt2_affine():
    # alpha + gamma*s with alpha = -sqrt(2), gamma = 1: positive iff s > sqrt 2
    builds = []

    def build():
        builds.append(iv.dps)
        return -iv.sqrt(iv.mpf(2)), iv.mpf(1)

    return build, builds


def test_affine_sign_exact_at_rationals():
    build, builds = _sqrt2_affine()
    sign = affine_sign(build)
    ambient = iv.dps
    assert sign(F(3, 2)) is Comparison.GREATER
    assert sign(F(7, 5)) is Comparison.LESS
    assert sign(F(141421356, 10 ** 8)) is Comparison.LESS
    assert builds == [30]
    assert iv.dps == ambient


def test_affine_sign_escalates_once_per_precision():
    # the first 40 digits of sqrt(2) sit closer to it than 30 digits resolve
    build, builds = _sqrt2_affine()
    sign = affine_sign(build)
    below = F("1.414213562373095048801688724209698078569")
    above = below + F(1, 10 ** 39)
    assert sign(below) is Comparison.LESS
    assert sign(above) is Comparison.GREATER
    assert sign(F(3, 2)) is Comparison.GREATER
    assert builds == [30, 60]


def test_affine_sign_undecidable_at_cap():
    # gamma*s + alpha with alpha = -gamma/3 (as reals) vanishes at s = 1/3
    def build():
        third = iv.log(iv.mpf(3)) / 3
        return -third, iv.log(iv.mpf(3))

    sign = affine_sign(build, cap_digits=120)
    assert sign(F(1, 3)) is Comparison.UNDECIDABLE
    assert sign(F(1, 2)) is Comparison.GREATER


def test_affine_sign_non_finite_enclosure_is_undecidable():
    sign = affine_sign(lambda: (iv.mpf([1, "inf"]), iv.mpf(1)), cap_digits=60)
    assert sign(F(1, 2)) is Comparison.UNDECIDABLE


def test_affine_sign_needs_positive_s():
    build, _ = _sqrt2_affine()
    with pytest.raises(ValueError, match="s > 0"):
        affine_sign(build)(F(0))


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions, st.booleans(), st.booleans(),
       st.builds(F, st.integers(1, 10 ** 9), st.integers(1, 10 ** 9)))
def test_affine_sign_agrees_with_exact_rationals(a, g, neg_a, neg_g, s):
    # rational alpha and gamma: the sign is known exactly, and a zero of
    # alpha + gamma*s never separates
    alpha, gamma = (-a if neg_a else a), (-g if neg_g else g)
    exact = alpha + gamma * s
    sign = affine_sign(lambda: (iv_fraction(alpha), iv_fraction(gamma)),
                       cap_digits=60)(s)
    if exact > 0:
        assert sign is Comparison.GREATER
    elif exact < 0:
        assert sign is Comparison.LESS
    else:
        assert sign is Comparison.UNDECIDABLE


# the ladder under RNLAB_PRECISION_CAP=200: 30 digits, doubled, the cap last
_LADDER_200 = [30, 60, 120, 200]


def test_every_verdict_climbs_the_one_ladder(monkeypatch):
    # each pair below is equal as reals, so no precision decides it: equal
    # point enclosures touch (a tie is no separation), alpha + gamma*s is
    # exactly 0 at both endpoints, and 2^(1/2) = 8^(1/6)
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "200")
    ambient = iv.dps
    seen = []

    def one():
        seen.append(iv.dps)
        return iv.mpf(1)

    assert decide(one, lambda: iv.mpf(1)) is Comparison.UNDECIDABLE
    assert seen == _LADDER_200
    assert iv.dps == ambient

    seen.clear()
    sign = affine_sign(lambda: (-one(), iv.mpf(3)))
    assert sign(F(1, 3)) is Comparison.UNDECIDABLE
    assert sign(F(2, 3)) is Comparison.GREATER
    assert seen == _LADDER_200
    assert iv.dps == ambient

    logs = {}
    lhs = PowProd.of(1, (F(2), F(1, 2)))
    rhs = PowProd.of(1, (F(8), F(1, 6)))
    assert rigorous_compare(lhs, rhs, logs=logs) is Comparison.UNDECIDABLE
    assert list(logs) == [(base, dps) for dps in _LADDER_200
                          for base in (F(2), F(8))]
    assert iv.dps == ambient


def test_ladder_restores_precision_when_a_builder_raises():
    ambient = iv.dps

    def fails_at_60():
        if iv.dps == 60:
            raise RuntimeError("builder failed")
        return iv.mpf(1)

    with pytest.raises(RuntimeError, match="builder failed"):
        decide(fails_at_60, lambda: iv.mpf(1))
    assert iv.dps == ambient
    with pytest.raises(RuntimeError, match="builder failed"):
        affine_sign(lambda: (-fails_at_60(), iv.mpf(3)))(F(1, 3))
    assert iv.dps == ambient
    with pytest.raises(ValueError, match="positive base"):
        rigorous_compare(PowProd.of(1, (F(-2), F(1, 2))), PowProd.of(1))
    assert iv.dps == ambient


def test_enclosure_str_encloses_at_the_ladders_first_precision():
    # the report reads the logs a verdict made in its first round
    ambient = iv.dps
    logs = {}
    lo, hi = enclosure_str(PowProd.of(3, (F(2), F(1, 3))), logs)
    assert list(logs) == [(F(2), 30)]
    assert iv.dps == ambient
    # 20 significant digits, each endpoint rounded to nearest
    assert lo == hi == "3.7797631496846194943"


def _quotient_of_iv_mpf(fr: Fraction):
    # the form iv_fraction replaces, kept here as its oracle
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


def _differential_fractions() -> list:
    # negative, zero and integer values, and operands of up to 4100 digits,
    # wider than every precision below
    rng = random.Random(16)
    out = [F(0), F(1), F(-1), F(5), F(-7, 3), F(1, 3), F(-10 ** 400 - 1),
           F(3 ** 9000), F(10 ** 400 + 1, 3 ** 700)]
    for digits in (5, 20, 80, 400, 4100):
        for _ in range(25):
            n = rng.randrange(-10 ** digits, 10 ** digits)
            d = rng.randrange(1, 10 ** rng.randrange(1, digits + 1) + 1)
            out += [F(n, d), F(n * d, d)]
    return out


_DIFFERENTIAL_FRACTIONS = _differential_fractions()


@pytest.mark.parametrize("dps", [15, 30, 60, 4000])
def test_iv_fraction_matches_quotient_of_iv_mpf(dps):
    saved = iv.dps
    try:
        iv.dps = dps
        for fr in _DIFFERENTIAL_FRACTIONS:
            assert iv_fraction(fr)._mpi_ == _quotient_of_iv_mpf(fr)._mpi_, fr
    finally:
        iv.dps = saved
