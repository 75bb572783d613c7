from fractions import Fraction

import pytest
from mpmath import mp, log

from rnlab.certifier import VARIANTS, certify, max_sigma, thresholds
from rnlab.rigor import Comparison, PowProd, rigorous_compare

F = Fraction


def test_rigorous_compare_examples():
    # 101^(3/2) vs 1000
    assert rigorous_compare(PowProd.of(1, (101, F(3, 2))),
                            PowProd.of(1000)) is Comparison.GREATER
    # 2^(13/2) vs 90.93
    assert rigorous_compare(PowProd.of(1, (2, F(13, 2))),
                            PowProd.of(F("90.93"))) is Comparison.LESS
    # equal rationals never burn precision
    assert rigorous_compare(PowProd.of(F(7, 3)),
                            PowProd.of(F(14, 6))) is Comparison.EQUAL


def test_variant_constants():
    v5 = VARIANTS["5j"]
    assert v5.eta(F(1, 10)) == (F("7.84") - F(2, 5)) / (F("7.64") - F(9, 10))
    assert v5.exponent(F(1, 10)) == (F("1.96") - F(1, 10)) / (F("7.64") - F(9, 10))
    v7 = VARIANTS["7j"]
    # denominators stay positive on the accepted sigma range
    for v, lim in ((v5, F("0.847")), (v7, F("0.883"))):
        assert v.denominator(lim - F(1, 1000)) > 0


def test_certify_basic():
    cert = certify(76, 101, 1015, 3, F(1, 10))
    assert cert.certified and cert.status == "certified"
    assert cert.M == 750
    assert cert.X_star == 101 ** 750
    assert cert.margin_log10 > 0
    lo, hi = (F(x) for x in cert.threshold_enclosure)
    assert F("971.9") < lo <= hi < F("972.1")
    assert cert.b_ok


def test_certify_condition_fails_at_014():
    cert = certify(76, 101, 1015, 3, F(7, 50))
    assert cert.status == "condition_fails"
    lo, hi = (F(x) for x in cert.threshold_enclosure)
    assert F("1225") < lo <= hi < F("1226")
    # thresholds still populated on failure
    assert cert.M == 750 and cert.X_star == 101 ** 750


def test_certify_beta_too_small():
    cert = certify(7, 2, 181, 15, F(1, 10))
    assert cert.status == "beta_too_small"
    # |beta| = 2^6.5 = 90.50... < 90.93, checked as 2^13 * 10^4 < 9093^2
    assert 2 ** 13 * 10 ** 4 < 9093 ** 2


def test_certify_exact_precondition_failures():
    assert certify(76, 101, 1014, 3, F(1, 10)).status == "not_exact_power"
    assert certify(303, 101, 1015, 3, F(1, 10)).status == "not_exact_power"
    # 2^2 + 4 = 2^3 with p | D
    assert certify(4, 2, 2, 3, F(1, 10)).status == "shared_factor"
    # 11^2 + 4 = 5^3 with D a perfect square
    assert certify(4, 5, 11, 3, F(1, 10)).status == "square_d"


def test_certify_small_d_after_beta_floor():
    # (7, 2, 181, 15): both D <= 12 and |beta| < 90.93 fail; the beta floor
    # is reported first
    assert certify(7, 2, 181, 15, F(1, 10)).status == "beta_too_small"


def test_certify_sigma_range():
    with pytest.raises(ValueError):
        certify(76, 101, 1015, 3, F(0))
    with pytest.raises(ValueError):
        certify(76, 101, 1015, 3, F("0.85"))


def test_certify_refuses_unproven_primes():
    from rnlab.hensel import CompositeModulusError, PrimeBoundError
    with pytest.raises(CompositeModulusError):
        certify(7, 318665857834031151167461, 1, 1, F(1, 10))
    with pytest.raises(PrimeBoundError):
        certify(7, 2 ** 89 - 1, 1, 1, F(1, 10))


def test_thresholds():
    cert = certify(76, 101, 1015, 3, F(1, 10))
    M, x_star, x_min = thresholds(cert)
    assert M == 750
    assert x_star == 101 ** 750
    assert x_min == 101 ** 375
    import math
    assert len(str(x_star)) == math.floor(250 * 3 * math.log10(101)) + 1


def _mpf_frac(fr):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def _closed_form_sigma(D, p, n0, variant):
    # solve the log-linear equality of the size condition directly:
    # (n0/2) ln p * (d1 - d2 s) = (e1 - s) ln base + (a1 - a2 s) ln D
    mp.dps = 60
    v = VARIANTS[variant]
    lb = mp.mpf(n0) / 2 * log(p)
    lc = log(_mpf_frac(v.base_odd))
    ld = log(D)
    num = lb * _mpf_frac(v.den_const) - _mpf_frac(v.exp_const) * lc \
        - _mpf_frac(v.eta_const) * ld
    den = lb * _mpf_frac(v.den_slope) - lc - _mpf_frac(v.eta_slope) * ld
    return num / den


def test_max_sigma_5j_against_root_oracle():
    res = max_sigma(76, 101, 1015, 3, "5j")
    assert not res.empty
    assert res.width() <= F(1, 10 ** 6)
    oracle = _closed_form_sigma(76, 101, 3, "5j")
    assert res.lo < F(str(oracle)) < res.hi
    assert res.beta_floor_ok
    # the certified maximum is ~0.1078, well below the informal 0.14
    assert res.hi < F(14, 100)


def test_max_sigma_7j_beta_floor_flag():
    res = max_sigma(76, 101, 1015, 3, "7j")
    assert not res.empty
    oracle = _closed_form_sigma(76, 101, 3, "7j")
    assert res.lo < F(str(oracle)) < res.hi
    assert F("0.14") < res.lo < res.hi < F("0.15")
    assert not res.beta_floor_ok  # |beta| = 1015.04 < 1300


def test_max_sigma_condition_at_014_holds_for_7j():
    from rnlab.certifier import threshold_powprod
    # the 7j size condition holds at sigma = 0.14 (threshold ~ 993.9) but
    # the variant's beta floor (|beta| > 1300) fails first
    cert = certify(76, 101, 1015, 3, F(7, 50), "7j")
    assert cert.status == "beta_too_small"
    beta = PowProd.of(1, (101, F(3, 2)))
    thr = threshold_powprod(76, 101, F(7, 50), VARIANTS["7j"])
    assert rigorous_compare(beta, thr) is Comparison.GREATER
    assert rigorous_compare(thr, PowProd.of(993)) is Comparison.GREATER
    assert rigorous_compare(thr, PowProd.of(995)) is Comparison.LESS


def test_max_sigma_stable_under_doubled_precision():
    res1 = max_sigma(76, 101, 1015, 3, "5j", cap_digits=2000)
    res2 = max_sigma(76, 101, 1015, 3, "5j", cap_digits=4000)
    assert (res1.lo, res1.hi) == (res2.lo, res2.hi)


def test_certify_verdict_stable_under_doubled_cap():
    c1 = certify(76, 101, 1015, 3, F(1, 10), cap_digits=2000)
    c2 = certify(76, 101, 1015, 3, F(1, 10), cap_digits=4000)
    assert c1.status == c2.status == "certified"


def test_condition_monotone_on_grid():
    # certify is monotone in sigma: once the condition fails it keeps failing
    statuses = [certify(76, 101, 1015, 3, F(i, 1000)).status
                for i in (50, 80, 100, 107, 109, 120, 140, 200)]
    seen_fail = False
    for s in statuses:
        if s == "condition_fails":
            seen_fail = True
        if seen_fail:
            assert s == "condition_fails"


def test_precision_cap_env(monkeypatch):
    from rnlab import rigor
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "123")
    assert rigor.precision_cap() == 123
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "junk")
    assert rigor.precision_cap() == rigor.DEFAULT_PRECISION_CAP
