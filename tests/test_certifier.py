import json
import random
from fractions import Fraction

import pytest
from mpmath import iv, log, mp

from iv_oracle import built, iv_fraction
from rnlab.certifier import (SIGMA_MAX, VARIANTS, MaxSigmaResult,
                             NotMonotoneError, UndecidableError,
                             _beta_floor_ok, _beta_powprod, certify,
                             check_threshold_monotone, max_sigma,
                             threshold_powprod, thresholds)
from rnlab.rigor import (Comparison, PowProd, _bits, _ladder, decide,
                         enclosure_str, rigorous_compare)

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


def test_certify_b_ok_follows_b_min(monkeypatch):
    from rnlab import certifier
    from rnlab.pade import BOUNDS
    low = certify(76, 101, 1, 1, F(1, 10))  # b = -51/101: not a base, b low
    assert not low.b_ok
    assert low.notes == ("b below 0.953: the Q-value bound is not claimed here",)
    monkeypatch.setattr(certifier, "BOUNDS", BOUNDS._replace(b_min=F(1)))
    cert = certify(76, 101, 1015, 3, F(1, 10))
    assert cert.certified and not cert.b_ok  # b = 1030149/1030301 < 1
    assert cert.notes == ("b below 1.0: the Q-value bound is not claimed here",)


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


def test_max_sigma_stable_under_doubled_precision(monkeypatch):
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "2000")
    res1 = max_sigma(76, 101, 1015, 3, "5j")
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "4000")
    res2 = max_sigma(76, 101, 1015, 3, "5j")
    assert (res1.lo, res1.hi) == (res2.lo, res2.hi)


def test_certify_verdict_stable_under_doubled_cap(monkeypatch):
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "2000")
    c1 = certify(76, 101, 1015, 3, F(1, 10))
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "4000")
    c2 = certify(76, 101, 1015, 3, F(1, 10))
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
    # anything but a positive integer means the default
    for raw in ("junk", "0", "-5", ""):
        monkeypatch.setenv("RNLAB_PRECISION_CAP", raw)
        assert rigor.precision_cap() == rigor.DEFAULT_PRECISION_CAP == 4000


def _linear(pp: PowProd):
    # pp's value at the current iv precision by mpmath's interval powers
    acc = iv_fraction(pp.coeff)
    for base, exp in pp.factors:
        acc *= iv_fraction(base) ** iv_fraction(exp)
    return acc


def _grid_monotone(D, p, var):
    # the interval-grid pre-check max_sigma used to run, kept as reference:
    # thresholds at 15 grid points compared in the linear domain
    grid = [SIGMA_MAX * F(i, 16) for i in range(1, 16)]
    return all(
        decide(built(_linear, threshold_powprod(D, p, s1, var)),
               built(_linear, threshold_powprod(D, p, s2, var)))
        is Comparison.LESS for s1, s2 in zip(grid, grid[1:]))


def _proof_holds(D, p, var):
    try:
        check_threshold_monotone(D, p, var)
    except NotMonotoneError:
        return False
    return True


@pytest.mark.parametrize("variant", ["5j", "7j"])
@pytest.mark.parametrize("p", [2, 3, 101, 397])
@pytest.mark.parametrize("D", [1, 13, 76, 500, 10 ** 6])
def test_monotonicity_proof_agrees_with_grid(variant, p, D):
    var = VARIANTS[variant]
    assert _proof_holds(D, p, var)
    assert _grid_monotone(D, p, var)


def test_monotonicity_facts_of_both_variants():
    # the rational facts of the proof, with the values they take
    for name, den_end, exp_fact, eta_fact in (
            ("5j", F("0.017"), F(10), F(40)),
            ("7j", F("0.469"), F(14), F(84))):
        v = VARIANTS[name]
        assert v.denominator(SIGMA_MAX) == den_end
        assert v.exp_const * v.den_slope - v.den_const == exp_fact
        assert v.eta_const * v.den_slope - v.eta_slope * v.den_const == eta_fact


@pytest.mark.parametrize("doctored", [
    {"exp_const": F("0.5")},      # exponent of C decreases
    {"den_const": F("7.623")},    # denominator vanishes at SIGMA_MAX
    {"eta_slope": F(10)},         # eta decreases
    {"base_odd": F(1)},           # C = 1
])
def test_doctored_variant_is_not_monotone(monkeypatch, doctored):
    # the facts are proved once per variant and C, and a failure is raised
    # on every call
    monkeypatch.setitem(VARIANTS, "5j", VARIANTS["5j"]._replace(**doctored))
    messages = set()
    for _ in range(3):
        with pytest.raises(NotMonotoneError) as err:
            max_sigma(76, 101, 1015, 3, "5j")
        messages.add(str(err.value))
    assert len(messages) == 1


def test_monotone_proof_reads_d_on_every_call():
    # the facts on the variant and C are proved once; D >= 1 on each call
    var = VARIANTS["5j"]
    for D in (76, 0, 76, -3):
        if D >= 1:
            check_threshold_monotone(D, 101, var)
        else:
            with pytest.raises(NotMonotoneError, match=f"D = {D} is below 1"):
                check_threshold_monotone(D, 101, var)
    # the p = 2 constant C = 7.847 has its own proof
    doctored = var._replace(base_two=F(1))
    check_threshold_monotone(76, 101, doctored)
    with pytest.raises(NotMonotoneError, match="C = 1 is not above 1"):
        check_threshold_monotone(7, 2, doctored)


def test_max_sigma_anchor_enclosure_exact():
    res = max_sigma(76, 101, 1015, 3, "5j")
    assert res.lo == F(56529203890807, 524288000000000)
    assert res.hi == F(28264813695403, 262144000000000)
    assert res.monotone_checked


def test_max_sigma_logs_once_per_base(logged):
    # one integer log each of 101, C and D for the whole call
    max_sigma(76, 101, 1015, 3, "5j")
    assert len(logged) == 3


def test_certify_logs_once_per_base(logged):
    # one integer log each of 101, C and D (log_enclosure skips the
    # coefficient 1, whose log is exactly 0): the verdict separates at 30
    # digits, and the report's threshold enclosure, at the ladder's first
    # precision, reads the logs of C and D that the verdict made
    assert certify(76, 101, 1015, 3, F(1, 10)).certified
    assert len(logged) == 3


def test_max_sigma_runs_certify_gates():
    from rnlab.hensel import CompositeModulusError
    with pytest.raises(CompositeModulusError, match="p = 4 is not prime"):
        max_sigma(7, 4, 3, 2)  # 3^2 + 7 = 4^2
    with pytest.raises(ValueError, match="must be positive"):
        max_sigma(0, 101, 101, 2)  # 101^2 + 0 = 101^2
    with pytest.raises(ValueError, match="must be positive"):
        max_sigma(76, 101, -1015, 3)
    with pytest.raises(ValueError, match="n0 >= 3"):
        max_sigma(7, 2, 1, 2)  # the gate runs before the solution check


@pytest.mark.parametrize("width", [F(0), F(-1)])
def test_max_sigma_refuses_nonpositive_width(width):
    # no grid has cells of such a width; it is checked before any gate
    with pytest.raises(ValueError, match=f"width must be positive, got {width}"):
        max_sigma(76, 101, 1015, 3, width=width)
    with pytest.raises(ValueError, match="width"):
        max_sigma(7, 4, 3, 2, width=width)


def _sweep_base_solutions():
    # the benchmark's certify-sweep instances: x0^2 + D = p^n0 with
    # 12 < D <= 500, p < 400 prime, 3 <= n0 <= 40, x0 within 3 of
    # isqrt(p^n0), p not dividing D, D not a square
    import math
    primes = [q for q in range(2, 400)
              if all(q % r for r in range(2, math.isqrt(q) + 1))]
    out = []
    for q in primes:
        for n0 in range(3, 41):
            r = math.isqrt(q ** n0)
            for x0 in range(max(1, r - 3), r + 4):
                D = q ** n0 - x0 * x0
                if 12 < D <= 500 and D % q and math.isqrt(D) ** 2 != D:
                    out.append((D, q, x0, n0))
    return out


# max_sigma's enclosures on the sweep instances, as the comparison of log
# enclosures at every bisection point computed them; every other instance
# and variant is empty with _EMPTY_REASON
_NONEMPTY_ENCLOSURES = {
    (28, 37, 225, 3, "5j"): ("6601942008699/524288000000000",
                             "3301182754349/262144000000000"),
    (28, 37, 225, 3, "7j"): ("6997490614549/131072000000000",
                             "5598077191639/104857600000000"),
    (76, 101, 1015, 3, "5j"): ("56529203890807/524288000000000",
                               "28264813695403/262144000000000"),
    (76, 101, 1015, 3, "7j"): ("75386811846279/524288000000000",
                               "37693617673139/262144000000000"),
    (186, 163, 2081, 3, "5j"): ("32533693947467/524288000000000",
                                "16267058723733/262144000000000"),
    (186, 163, 2081, 3, "7j"): ("6161501550987/65536000000000",
                                "9858487181579/104857600000000"),
    (148, 197, 2765, 3, "5j"): ("605181502667/4096000000000",
                                "619709246731/4194304000000"),
    (148, 197, 2765, 3, "7j"): ("19057754159857/104857600000000",
                                "23822298574821/131072000000000"),
    (193, 257, 4120, 3, "5j"): ("10521857540691/65536000000000",
                                "84175283825527/524288000000000"),
    (193, 257, 4120, 3, "7j"): ("101673456784209/524288000000000",
                                "6354617517763/32768000000000"),
    (277, 317, 5644, 3, "5j"): ("77011357842443/524288000000000",
                                "38505890671221/262144000000000"),
    (277, 317, 5644, 3, "7j"): ("18776550160521/104857600000000",
                                "23470793575651/131072000000000"),
    (207, 331, 6022, 3, "5j"): ("51891878639613/262144000000000",
                                "4151367231169/20971520000000"),
    (207, 331, 6022, 3, "7j"): ("4857765229501/20971520000000",
                                "30361138559381/131072000000000"),
}
_EMPTY_REASON = "condition fails already at sigma=1/1000000000"


def test_max_sigma_sweep_results_pinned():
    instances = _sweep_base_solutions()
    assert len(instances) == 91
    for inst in instances:
        for variant in ("5j", "7j"):
            res = max_sigma(*inst, variant)
            pinned = _NONEMPTY_ENCLOSURES.get((*inst, variant))
            if pinned is None:
                assert res.empty and res.reason == _EMPTY_REASON, (inst, variant)
            else:
                assert not res.empty and res.reason == "", (inst, variant)
                assert (res.lo, res.hi) == (F(pinned[0]), F(pinned[1]))


# a p = 2 instance with a non-empty enclosure: 181^2 + 7 = 2^15
_TWO = (7, 2, 181, 15)


def _oracle_holds(D, p, n0, sigma, var):
    verdict = rigorous_compare(_beta_powprod(p, n0),
                               threshold_powprod(D, p, sigma, var))
    assert verdict in (Comparison.GREATER, Comparison.LESS)
    return verdict is Comparison.GREATER


def _fraction_max_sigma(D, p, x0, n0, variant, width):
    # max_sigma's bisection on Fractions, as it was before it kept integer
    # numerators over one denominator, with each point decided by the direct
    # log comparison that certify makes
    var = VARIANTS[variant]
    floor_ok = _beta_floor_ok(p, n0, var)
    check_threshold_monotone(D, p, var)

    def holds(sigma):
        return _oracle_holds(D, p, n0, sigma, var)

    common = dict(D=D, p=p, x0=x0, n0=n0, variant=variant,
                  beta_floor_ok=floor_ok, monotone_checked=True)
    lo = F(1, 10 ** 9)
    hi = SIGMA_MAX - F(1, 10 ** 9)
    if not holds(lo):
        return MaxSigmaResult(**common, empty=True, lo=None, hi=None,
                              reason=f"condition fails already at sigma={lo}")
    if holds(hi):
        return MaxSigmaResult(**common, empty=False, lo=hi, hi=SIGMA_MAX,
                              reason="condition holds up to the sigma range "
                                     "limit")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return MaxSigmaResult(**common, empty=False, lo=lo, hi=hi)


# the anchor and the other six base solutions that certify under 5j in the
# certify-sweep box, the p = 2 instance, and one whose enclosure is empty
_BISECTED = [(28, 37, 225, 3), (76, 101, 1015, 3), (186, 163, 2081, 3),
             (148, 197, 2765, 3), (193, 257, 4120, 3), (277, 317, 5644, 3),
             (207, 331, 6022, 3), _TWO, (39, 2, 5, 6)]


@pytest.mark.parametrize("width", [F(1, 10 ** 6), F(1, 10 ** 40), F(1, 7)])
@pytest.mark.parametrize("variant", ["5j", "7j"])
@pytest.mark.parametrize("inst", _BISECTED,
                         ids=lambda inst: "-".join(map(str, inst)))
def test_integer_bisection_matches_fraction_loop(inst, variant, width):
    # max_sigma's grid cell is the cell the Fraction bisection ends in
    assert max_sigma(*inst, variant, width=width) == \
        _fraction_max_sigma(*inst, variant, width)


def _sweep_cases():
    return [pytest.param(inst, variant,
                         id=f"{inst[0]}-{inst[1]}-{inst[3]}-{variant}")
            for inst in [*_sweep_base_solutions(), _TWO]
            for variant in ("5j", "7j")]


@pytest.mark.parametrize("inst, variant", _sweep_cases())
def test_affine_condition_matches_rigorous_compare(inst, variant):
    # max_sigma's cell of the affine condition against the direct log
    # comparison that certify makes: the condition holds at lo and fails at
    # hi, or fails already at 1/10^9 when the enclosure is empty
    D, p, x0, n0 = inst
    var = VARIANTS[variant]
    res = max_sigma(*inst, variant)
    if res.empty:
        assert not _oracle_holds(D, p, n0, F(1, 10 ** 9), var)
    else:
        assert _oracle_holds(D, p, n0, res.lo, var)
        assert res.hi == SIGMA_MAX or not _oracle_holds(D, p, n0, res.hi, var)


def _point_bisection(D, p, n0, variant, width):
    # max_sigma as an integer bisection that decides each point u/v by the
    # sign of alpha*v + gamma*u at the integer log ends, climbing rigor's
    # ladder from its first precision at every point: (lo, hi), "empty" or
    # "limit", or the UndecidableError of the first point the cap leaves
    var = VARIANTS[variant]
    (base, l), = _beta_powprod(p, n0).factors
    c, d, one = var.c_base(p), F(D), F(1)
    alpha = PowProd(one, ((base, var.den_const * l), (c, -var.exp_const),
                          (d, -var.eta_const)))
    gamma = PowProd(one, ((c, one), (d, var.eta_slope),
                          (base, -var.den_slope * l)))

    def holds(u, v):
        def verdict():
            (a_lo, a_hi), (g_lo, g_hi) = (alpha.log_enclosure(),
                                          gamma.log_enclosure())
            if a_lo * v + g_lo * u > 0:
                return True
            if a_hi * v + g_hi * u < 0:
                return False
            return None

        result = _ladder(verdict)
        if result is Comparison.UNDECIDABLE:
            raise UndecidableError(
                f"size condition undecidable at sigma={F(u, v)}")
        return result

    q = 10 ** 9
    a, b = 1, 846999999
    if not holds(a, q):
        return "empty"
    if holds(b, q):
        return "limit"
    while (b - a) * width.denominator > width.numerator * q:
        mid, q = a + b, 2 * q
        if holds(mid, q):
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return F(a, q), F(b, q)


@pytest.mark.parametrize("cap, exponents", [(30, (32, 40, 60)),
                                            (60, (64, 100))])
def test_undecidable_at_the_cap_names_the_bisections_point(monkeypatch, cap,
                                                           exponents):
    # at widths finer than the cap resolves, max_sigma raises the message
    # of the point a point-by-point bisection finds undecidable first, and
    # where that bisection ends, max_sigma ends with it
    monkeypatch.setenv("RNLAB_PRECISION_CAP", str(cap))
    undecidable = 0
    for inst in _BISECTED:
        for variant in ("5j", "7j"):
            for k in exponents:
                width = F(1, 10 ** k)
                try:
                    want = _point_bisection(*inst[:2], inst[3], variant, width)
                except UndecidableError as exc:
                    undecidable += 1
                    with pytest.raises(UndecidableError) as got:
                        max_sigma(*inst, variant, width=width)
                    assert str(got.value) == str(exc), (inst, variant, k)
                    continue
                res = max_sigma(*inst, variant, width=width)
                if want == "empty":
                    assert res.empty, (inst, variant, k)
                elif want == "limit":
                    assert res.hi == SIGMA_MAX, (inst, variant, k)
                else:
                    assert (res.lo, res.hi) == want, (inst, variant, k)
    assert undecidable >= 10


@pytest.mark.parametrize("inst", [(76, 101, 1015, 3), _TWO])
@pytest.mark.parametrize("variant", ["5j", "7j"])
def test_max_sigma_fine_width_agrees_with_rigorous_compare(logged, inst,
                                                           variant):
    # at width 1e-40 the last points are too close to the root for 30
    # digits, so both deciders climb the precision ladder
    D, p, x0, n0 = inst
    res = max_sigma(*inst, variant, width=F(1, 10 ** 40))
    assert res.width() <= F(1, 10 ** 40)
    assert max(prec for _, prec in logged) > _bits(30)
    assert _oracle_holds(D, p, n0, res.lo, VARIANTS[variant])
    assert not _oracle_holds(D, p, n0, res.hi, VARIANTS[variant])


def _certify_and_max_sigma_reports(capsys, inst) -> list:
    # the JSON reports of certify at sigma = 1/10 and of max-sigma on inst
    from rnlab.cli import main
    args = ("--D", "--p", "--x0", "--n0")
    args = [a for pair in zip(args, map(str, inst)) for a in pair]
    reports = []
    for argv in (["certify", *args, "--sigma", "1/10"], ["max-sigma", *args]):
        main([*argv, "--format", "json"])
        reports.append(capsys.readouterr().out)
    return reports


def test_log_memo_keeps_reports_and_logs_each_base_once(capsys, logged):
    # the anchor, another instance, then the anchor again in one process:
    # each report equals the one made first with an empty memo, and each
    # log of a base at a precision is computed once for the whole sequence
    from rnlab.rigor import _iv_log
    anchor, other = (76, 101, 1015, 3), (28, 37, 225, 3)
    fresh = {}
    for inst in (anchor, other):
        _iv_log.cache_clear()
        fresh[inst] = _certify_and_max_sigma_reports(capsys, inst)
    _iv_log.cache_clear()
    logged.clear()
    for inst in (anchor, other, anchor):
        assert _certify_and_max_sigma_reports(capsys, inst) == fresh[inst], inst
    # 101, 76, 37, 28 and 5j's C = 2008.832 (both instances), at 30 digits
    assert len(set(logged)) == len(logged) == 5


# ROADMAP item 2's seven base solutions that certify under 5j, each at the
# lower end of its max-sigma enclosure floored to 1/1000
_CLOSED = [((28, 37, 225, 3), F(3, 250)), ((76, 101, 1015, 3), F(107, 1000)),
           ((186, 163, 2081, 3), F(31, 500)),
           ((148, 197, 2765, 3), F(147, 1000)),
           ((193, 257, 4120, 3), F(4, 25)), ((277, 317, 5644, 3), F(73, 500)),
           ((207, 331, 6022, 3), F(197, 1000))]
SIGMA_STAR = ("146759116967824405641020779119970489403876582693/"
              "1361129467683753853853498429727072845824000000000")


def _seed_7_draws() -> list:
    # the sweep instances with the sigma that the benchmark's seed 7 draws
    rng = random.Random(7)
    instances = _sweep_base_solutions()
    rng.shuffle(instances)
    return [(inst, F(rng.randrange(1, 847), 1000)) for inst in instances]


def _certify_cases() -> list:
    # (instance, sigma, variant): the anchor at sigma* and 1/10, the seven
    # rows above, and every sweep instance under both variants at 1/10,
    # 7/50 and its seed 7 sigma
    cases = [((76, 101, 1015, 3), F(SIGMA_STAR), "5j"),
             ((76, 101, 1015, 3), F(1, 10), "5j"), (_TWO, F(1, 10), "5j")]
    cases += [(inst, sigma, "5j") for inst, sigma in _CLOSED]
    cases += [(inst, sigma, variant) for inst, mine in _seed_7_draws()
              for sigma in (mine, F(1, 10), F(7, 50))
              for variant in ("5j", "7j")]
    return cases


def _exact_ends_at_80_digits(pp: PowProd) -> tuple:
    saved = iv.dps
    try:
        iv.dps = 80
        x = _linear(pp)
    finally:
        iv.dps = saved
    return tuple(F((-1) ** sign * man) * F(2) ** exp
                 for sign, man, exp, _ in x._mpi_)


def _both_sides(D, p, n0, sigma, variant):
    # |beta| and the threshold, built here from p, n0, C, eta and exponent
    var = VARIANTS[variant]
    return (PowProd.of(1, (F(p), F(n0 - 2 * (p == 2), 2))),
            PowProd.of(1, (var.c_base(p), var.exponent(sigma)),
                       (F(D), var.eta(sigma))))


def test_printed_ends_bracket_their_values(capsys):
    # every printed end against its value enclosed by mpmath intervals at
    # 80 digits: the certificates of _certify_cases, enclosure_str of both
    # sides of every sweep instance at its seed 7 sigma (gates or not), and
    # every max-sigma decimal against the exact lo and hi it stands for
    from rnlab.cli import main
    printed = []  # (label, lo string, exact lo, exact hi, hi string)
    for (D, p, x0, n0), sigma, variant in _certify_cases():
        cert = certify(D, p, x0, n0, sigma, variant)
        if cert.beta_enclosure == ("", ""):
            continue  # a gate stopped before the size condition
        for pp, ends in zip(_both_sides(D, p, n0, sigma, variant),
                            (cert.beta_enclosure, cert.threshold_enclosure)):
            printed.append(((D, p, n0, sigma, variant), ends[0],
                            *_exact_ends_at_80_digits(pp), ends[1]))
    for (D, p, x0, n0), sigma in _seed_7_draws():
        for variant in ("5j", "7j"):
            for pp in _both_sides(D, p, n0, sigma, variant):
                printed.append(((D, p, n0, sigma, variant),
                                enclosure_str(pp)[0],
                                *_exact_ends_at_80_digits(pp),
                                enclosure_str(pp)[1]))
    for inst in [*_sweep_base_solutions(), _TWO]:
        for variant in ("5j", "7j"):
            main(["max-sigma", *(f"--{k}={v}" for k, v in
                                 zip(("D", "p", "x0", "n0"), inst)),
                  "--variant", variant, "--format", "json"])
            rep = json.loads(capsys.readouterr().out)
            if not rep["empty"]:
                printed.append(((*inst, variant), rep["lo_decimal"],
                                F(rep["lo"]), F(rep["hi"]), rep["hi_decimal"]))
    assert len(printed) > 600
    outside = [(label, end) for label, lo_s, lo, hi, hi_s in printed
               for end, holds in (("lo", F(lo_s) <= lo), ("hi", hi <= F(hi_s)))
               if not holds]
    assert not outside, f"{len(outside)} of {2 * len(printed)}: {outside[:4]}"
