import contextlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from iv_oracle import built, iv_fraction
from rnlab import rigor
from rnlab.rigor import (_GUARD_BITS, Comparison, PowProd, _bits, _iv_log,
                         _times, decide, enclosure_str, rigorous_compare,
                         sign_change, working_prec)

F = Fraction


@contextlib.contextmanager
def _rigor_at(dps: int):
    # rigor's working precision set to dps digits, as a rung of the ladder
    # sets it, and restored
    saved = rigor._prec
    rigor._prec = _bits(dps)
    try:
        yield
    finally:
        rigor._prec = saved


def test_exact_fast_path_never_escalates():
    big = PowProd.of(F(10 ** 400), (F(2), F(500)))
    other = PowProd.of(1, (F(2), F(1900)))
    assert rigorous_compare(big, other) is Comparison.LESS


def test_transcendentally_equal_is_undecidable_at_cap(monkeypatch):
    # 2^(1/2) and 8^(1/6) are the same real number; the enclosures can
    # never separate, so the comparison must stop at the cap
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "200")
    lhs = PowProd.of(1, (F(2), F(1, 2)))
    rhs = PowProd.of(1, (F(8), F(1, 6)))
    assert rigorous_compare(lhs, rhs) is Comparison.UNDECIDABLE


def test_tight_but_unequal_separates_with_escalation():
    # 2^(1/2) vs the first 30 digits of sqrt(2): separation needs more
    # than the starting precision
    approx = F("1.41421356237309504880168872420")
    lhs = PowProd.of(1, (F(2), F(1, 2)))
    assert rigorous_compare(lhs, PowProd.of(approx)) is Comparison.GREATER


def test_a_cap_below_30_digits_means_30(monkeypatch):
    # the ladder always starts at 30 digits: under a cap of 10 a comparison
    # that needs more is UNDECIDABLE after exactly one round, at 30
    approx = F("1.414213562373095048801688724209698078569")  # 40 digits
    seen = []

    def sqrt2():
        seen.append(working_prec())
        return iv.sqrt(iv.mpf(2))

    monkeypatch.setenv("RNLAB_PRECISION_CAP", "10")
    assert decide(built(sqrt2), built(iv_fraction, approx)) \
        is Comparison.UNDECIDABLE
    assert seen == [_bits(30)]
    monkeypatch.delenv("RNLAB_PRECISION_CAP")
    seen.clear()
    assert decide(built(sqrt2), built(iv_fraction, approx)) \
        is Comparison.GREATER
    assert seen == [_bits(30), _bits(60)]


def test_powprod_as_fraction():
    assert PowProd.of(F(3, 4), (F(2), F(5))).as_fraction() == F(24)
    assert PowProd.of(1, (F(2), F(1, 2))).as_fraction() is None


def _linear_enclosure(pp: PowProd):
    """An interval of pp's value at the current iv precision, as rigor once
    made it for reports: an integer power of the exact rational, a square
    root for a half-integer exponent, else exp(exponent * log(base))."""
    acc = iv_fraction(pp.coeff)
    for base, exp in pp.factors:
        if exp.denominator == 1:
            acc *= iv_fraction(base ** exp.numerator)
        elif exp.denominator == 2:
            acc *= iv.sqrt(iv_fraction(base ** exp.numerator))
        else:
            acc *= iv.exp(iv_fraction(exp) * iv.log(iv_fraction(base)))
    return acc


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RNLAB_PRECISION_CAP", "120")
        log_verdict = rigorous_compare(lhs, rhs)
        # the linear-domain reference: enclosures of the products themselves
        lin_verdict = decide(built(_linear_enclosure, lhs),
                             built(_linear_enclosure, rhs))
    decided = {Comparison.LESS, Comparison.GREATER}
    if log_verdict in decided and lin_verdict in decided:
        assert log_verdict is lin_verdict


def test_log_domain_equal_products_stay_undecidable(monkeypatch):
    # 2^(1/2) * 3^(2/3) against 8^(1/6) * 9^(1/3) under a cap of 400 digits
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "400")
    lhs = PowProd.of(1, (F(2), F(1, 2)), (F(3), F(2, 3)))
    rhs = PowProd.of(1, (F(8), F(1, 6)), (F(9), F(1, 3)))
    assert rigorous_compare(lhs, rhs) is Comparison.UNDECIDABLE


@pytest.mark.parametrize("base", [F(0), F(-2), F(-1, 3)])
def test_nonpositive_base_raises_same_error(base):
    bad = PowProd.of(1, (base, F(1, 2)))
    msg = f"a power product needs positive bases, got {base}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        rigorous_compare(bad, PowProd.of(1, (F(2), F(1, 3))))
    with pytest.raises(ValueError, match=re.escape(msg)):
        rigorous_compare(PowProd.of(1, (F(2), F(1, 3))), bad)
    with pytest.raises(ValueError, match=re.escape(msg)):
        enclosure_str(bad)


def test_nonpositive_coefficient_raises():
    with pytest.raises(ValueError, match="positive coefficient"):
        rigorous_compare(PowProd.of(-1, (F(2), F(1, 2))), PowProd.of(1))


def _exact(raw) -> Fraction:
    # a raw mpf value (sign, man, exp, bc) as an exact Fraction
    sign, man, exp, _ = raw
    return (-1) ** sign * F(man) * F(2) ** exp


def _encloses(ends, value, prec: int) -> bool:
    # whether integer ends over 2^(prec + _GUARD_BITS) hold value, an mpf
    # or every real of an iv interval
    lo, hi = value._mpi_ if hasattr(value, "_mpi_") else (value._mpf_,) * 2
    scale = F(2) ** (prec + _GUARD_BITS)
    return F(ends[0]) / scale <= _exact(lo) and _exact(hi) <= F(ends[1]) / scale


def test_log_enclosure_computes_each_log_once_per_precision(logged):
    pp = PowProd.of(3, (F(101), F(3, 2)), (F(76), F(7, 9)))
    with mp.workdps(100):
        exact = mp.log(3) + 1.5 * mp.log(101) + mp.mpf(7) / 9 * mp.log(76)
    for dps in (30, 30, 60):
        with _rigor_at(dps):
            assert _encloses(pp.log_enclosure(), exact, _bits(dps))
    # the logs of 3, 101 and 76 at 30 digits, read again, then at 60
    assert [prec for _, prec in logged] == [_bits(30)] * 3 + [_bits(60)] * 3
    assert _iv_log.cache_info().currsize == 6


@pytest.mark.parametrize("base", [F(1), F(2), F(3, 7), F(101), F(251104, 125),
                                  F(125, 251104), F(10 ** 50 + 1, 10 ** 50)])
@pytest.mark.parametrize("dps", [30, 60, 4000])
def test_log_memo_ends_round_its_interval_outward(base, dps):
    saved = iv.dps
    try:
        iv.dps = dps
        lo, hi = _iv_log(base.numerator, base.denominator, iv.prec)
        x = iv.log(iv_fraction(base))
        scale = 2 ** (iv.prec + _GUARD_BITS)
        assert lo == math.floor(_exact(x._mpi_[0]) * scale)
        assert hi == math.ceil(_exact(x._mpi_[1]) * scale)
    finally:
        iv.dps = saved


def _log_products() -> list:
    # negative exponents, coefficients other than 1, a base below 1, and
    # the PowProds of max_sigma's alpha and gamma at the anchor under 5j
    rng = random.Random(29)
    out = [PowProd.of(F(7, 3), (F(101), F(-3, 2)), (F(76), F(196, 25))),
           PowProd.of(F(2, 9), (F(1, 3), F(-7, 11)), (F(2), F(5))),
           PowProd.of(1, (F(101), F(573, 50)), (F(251104, 125), F(-49, 25)),
                      (F(76), F(-196, 25))),
           PowProd.of(1, (F(251104, 125), F(1)), (F(76), F(4)),
                      (F(101), F(-27, 2)))]
    for _ in range(6):
        factors = [(F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4)),
                    F(rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(1, 500)))
                   for _ in range(3)]
        out.append(PowProd.of(F(rng.randrange(1, 10 ** 9),
                                rng.randrange(1, 10 ** 9)), *factors))
    return out


@pytest.mark.parametrize("dps", [30, 60, 4000])
def test_log_enclosure_integer_ends_hold_a_finer_reference(dps):
    # the reference encloses the same sum at 70 more digits; its interval
    # inside the integer ends proves that they hold the exact value, and
    # the ends are at most a few units of 2^-(prec + 16) wider than the
    # terms' interval logs
    prec = _bits(dps)
    saved = iv.dps
    try:
        for pp in _log_products():
            with _rigor_at(dps):
                ends = pp.log_enclosure()
            iv.dps = dps + 70
            ref = iv.log(iv_fraction(pp.coeff))
            for base, exp in pp.factors:
                ref += iv_fraction(exp) * iv.log(iv_fraction(base))
            assert _encloses(ends, ref, prec), pp
            size = abs(float(ref.mid)) + sum(
                abs(float(exp) * math.log(base)) for base, exp in pp.factors)
            width = F(ends[1] - ends[0], 2 ** (prec + _GUARD_BITS))
            assert width <= F(8 * (1 + size)) / 2 ** prec, pp
    finally:
        iv.dps = saved


def test_times_matches_fraction_floor_and_ceil():
    # (u/v) * [lo, hi] rounded outward, against Fraction's floor and ceil,
    # on ends and exponents of both signs and zero
    rng = random.Random(29)
    cases = [(0, 0, 5, 3), (-7, -7, 2, 3), (-7, 4, 0, 1), (1, 2, -1, 1)]
    for bits in (4, 30, 200):
        for _ in range(300):
            lo, hi = sorted(rng.randrange(-2 ** bits, 2 ** bits)
                            for _ in range(2))
            u = rng.randrange(-10 ** 6, 10 ** 6)
            v = rng.choice([1, 2, 3, rng.randrange(1, 10 ** 6)])
            cases.append((lo, hi, u, v))
    for lo, hi, u, v in cases:
        ends = sorted([F(lo * u, v), F(hi * u, v)])
        assert _times(lo, hi, u, v) == (math.floor(ends[0]),
                                        math.ceil(ends[1])), (lo, hi, u, v)


def test_decide_reads_integer_ends_exactly(monkeypatch):
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "60")
    assert decide(lambda: (1, 2), lambda: (3, 4)) is Comparison.LESS
    assert decide(lambda: (3, 4), lambda: (-1, 2)) is Comparison.GREATER
    # touching ends never separate
    assert decide(lambda: (1, 3), lambda: (3, 4)) is Comparison.UNDECIDABLE


def _rational_ends(x: Fraction) -> tuple[int, int]:
    # x enclosed by integers over 2**(working_prec() + G), the scale of
    # log_enclosure's ends
    scaled = x * 2 ** (working_prec() + _GUARD_BITS)
    return math.floor(scaled), math.ceil(scaled)


def _exact_cell(alpha, gamma, first, step, den, n) -> int:
    # the last t at which alpha + gamma*s_t > 0 (-1 if none), for a form
    # positive on an initial segment of the grid
    return sum(alpha + gamma * F(first + t * step, den) > 0
               for t in range(n + 1)) - 1


def _counted(ends):
    # a builder of fixed integer ends that logs the precision of each call
    builds = []

    def build():
        builds.append(working_prec())
        return ends

    return build, builds


def test_sign_change_exact_at_rationals(monkeypatch):
    # exact ends (alpha = 7, gamma = -3 in units of any power of two):
    # every grid point off the root 7/3 is decided at the first precision
    ambient = working_prec()
    for grid in ((1, 1, 1, 4), (1, 1, 4, 40), (2, 3, 7, 1), (5, 1, 1, 8),
                 (1, 5, 1, 1)):
        build, builds = _counted(((7, 7), (-3, -3)))
        k = _exact_cell(F(7), F(-3), *grid)
        assert sign_change(build, *grid) == (k, k + 1), grid
        assert builds == [_bits(30)]
        assert working_prec() == ambient
    # the root at s_0 or at s_n, where an end is exactly 0, stays undecided
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "60")
    for grid, cell in (((7, 1, 3, 4), (-1, 5)), ((3, 1, 3, 4), (0, 5))):
        build, builds = _counted(((7, 7), (-3, -3)))
        assert sign_change(build, *grid) == cell, grid
        assert builds == [_bits(30), _bits(60)]


def test_sign_change_builds_once_per_precision():
    # alpha + gamma*s = log 3 - s log 2 changes sign at log2(3), which a
    # grid 10^-40 apart pins closer than 30 digits resolve
    lhs, rhs = PowProd.of(3), PowProd.of(1, (F(2), F(-1)))
    builds = []

    def build():
        builds.append(working_prec())
        return lhs.log_enclosure(), rhs.log_enclosure()

    with mp.workdps(80):
        root = mp.log(3) / mp.log(2)
        first = int(mp.floor(root * 10 ** 40)) - 5
    assert sign_change(build, first, 1, 10 ** 40, 10) == (5, 6)
    assert builds == [_bits(30), _bits(60)]


def test_sign_change_undecidable_at_cap(monkeypatch):
    # log 3 - s log 9 vanishes at s = 1/2 = s_1 as reals: s_1 never
    # separates, s_0 = 1/4 and s_2 = 3/4 do
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "120")
    lhs, rhs = PowProd.of(3), PowProd.of(1, (F(9), F(-1)))
    grid = (1, 1, 4, 3)
    assert sign_change(lambda: (lhs.log_enclosure(), rhs.log_enclosure()),
                       *grid) == (0, 2)
    # undecided s_0 or s_n, whatever else the ends prove
    assert sign_change(lambda: (lhs.log_enclosure(), rhs.log_enclosure()),
                       2, 1, 4, 3) == (-1, 4)
    assert sign_change(lambda: (lhs.log_enclosure(), rhs.log_enclosure()),
                       1, 1, 8, 3) == (0, 4)


def test_sign_change_needs_a_positive_grid():
    build, builds = _counted(((7, 7), (-3, -3)))
    for grid in ((0, 1, 1, 4), (1, 0, 1, 4), (1, 1, 0, 4), (1, 1, 1, 0)):
        with pytest.raises(ValueError, match="positive grid"):
            sign_change(build, *grid)
    assert builds == []


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions, st.booleans(), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(1, 64),
       st.none() | st.integers(0, 64))
def test_sign_change_agrees_with_exact_rationals(a, g, neg_a, first, step,
                                                 den, n, zero_at):
    # rational alpha and gamma = -g < 0: the cell is known exactly, and a
    # zero of alpha + gamma*s_t (put at t = zero_at) never separates
    gamma = -g
    alpha = -a if neg_a else a
    if zero_at is not None and zero_at <= n:
        alpha = -gamma * F(first + zero_at * step, den)
    values = [alpha + gamma * F(first + t * step, den) for t in range(n + 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RNLAB_PRECISION_CAP", "60")
        got = sign_change(
            lambda: (_rational_ends(alpha), _rational_ends(gamma)),
            first, step, den, n)
    if 0 not in values:
        k = _exact_cell(alpha, gamma, first, step, den, n)
        assert got == (k, k + 1)
    elif values[0] == 0:
        assert got == (-1, n + 1)
    elif values[n] == 0:
        assert got == (0, n + 1)
    else:
        z = values.index(0)
        assert got == (z - 1, z + 1)


# the ladder under RNLAB_PRECISION_CAP=200: 30 digits, doubled, the cap last
_LADDER_200 = [30, 60, 120, 200]


def test_every_verdict_climbs_the_one_ladder(monkeypatch, logged):
    # no precision decides any of these: equal point enclosures touch (a
    # tie is no separation), alpha + gamma*s is exactly 0 at a grid point,
    # and 2^(1/2) = 8^(1/6)
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "200")
    ladder = [_bits(dps) for dps in _LADDER_200]
    ambient = working_prec()
    seen = []

    def one():
        seen.append(working_prec())
        return iv.mpf(1)

    assert decide(built(one), built(iv.mpf, 1)) is Comparison.UNDECIDABLE
    assert seen == ladder
    assert working_prec() == ambient

    seen.clear()

    def ends():
        seen.append(working_prec())
        return (1, 1), (-3, -3)

    # 1 - 3s at s = 1/6, 1/3, 1/2: the zero at 1/3 never separates
    assert sign_change(ends, 1, 1, 6, 2) == (0, 2)
    assert seen == ladder
    assert working_prec() == ambient

    lhs = PowProd.of(1, (F(2), F(1, 2)))
    rhs = PowProd.of(1, (F(8), F(1, 6)))
    assert rigorous_compare(lhs, rhs) is Comparison.UNDECIDABLE
    assert logged == [(base, prec) for prec in ladder for base in (2, 8)]
    assert working_prec() == ambient


def test_ladder_restores_precision_when_a_builder_raises():
    ambient = working_prec()

    def fails_at_60():
        if working_prec() == _bits(60):
            raise RuntimeError("builder failed")
        return iv.mpf(1)

    with pytest.raises(RuntimeError, match="builder failed"):
        decide(built(fails_at_60), built(iv.mpf, 1))
    assert working_prec() == ambient
    with pytest.raises(RuntimeError, match="builder failed"):
        # the zero at s_1 = 1/3 sends the ladder on to 60 digits
        sign_change(lambda: (fails_at_60() and (1, 1), (-3, -3)), 1, 1, 6, 2)
    assert working_prec() == ambient
    with pytest.raises(ValueError, match="positive base"):
        rigorous_compare(PowProd.of(1, (F(-2), F(1, 2))), PowProd.of(1))
    assert working_prec() == ambient


def test_enclosure_str_encloses_at_the_ladders_first_precision(logged):
    # the report reads the logs a verdict made in its first round: those of
    # the coefficient 3 and the base 2, both at 30 digits
    ambient = working_prec()
    lo, hi = enclosure_str(PowProd.of(3, (F(2), F(1, 3))))
    assert logged == [(3, _bits(30)), (2, _bits(30))]
    assert working_prec() == ambient
    # 20 significant digits, the lower end rounded down, the upper up
    assert (lo, hi) == ("3.7797631496846194943", "3.7797631496846194944")


@pytest.mark.parametrize("pp, ends", [
    # irrational exponents of bases whose powers are short decimals: the exp
    # of each log end lies strictly on its side of the value, so rounding
    # it the wrong way can land on the value itself
    (PowProd.of(1, (F(81, 64), F(1, 2))),
     ("1.1249999999999999999", "1.1250000000000000001")),
    (PowProd.of(1, (F(4), F(1, 2))),
     ("1.9999999999999999999", "2.0000000000000000001")),
    (PowProd.of(F(1, 10 ** 9), (F(1000), F(2, 3))),
     ("9.9999999999999999999e-8", "1.0000000000000000001e-7")),
    # exact values print as themselves, rounded outward where they are not
    # 20-digit decimals
    (PowProd.of(1, (F(101), F(2))), ("10201.0", "10201.0")),
    (PowProd.of(F(1, 7)), ("0.14285714285714285714", "0.14285714285714285715")),
    (PowProd.of(F(10 ** 20) - F(1, 10 ** 9)),
     ("99999999999999999999.0", "1.0e+20")),
])
def test_enclosure_str_rounds_each_end_outward(pp, ends):
    assert enclosure_str(pp) == ends


def _at_dps(dps: int, pp: PowProd):
    saved = iv.dps
    try:
        iv.dps = dps
        return _linear_enclosure(pp)
    finally:
        iv.dps = saved


def test_enclosure_str_matches_nearest_where_it_rounds_outward():
    # the report's ends as they were printed before they were rounded
    # outward: mp.nstr, which rounds to nearest, of the linear-domain
    # interval at 30 digits.  Wherever such an end lies on its outward side
    # of the value (enclosed at 80 digits), the new end is the same string
    rng = random.Random(34)
    pps = [PowProd.of(3, (F(2), F(1, 3))), PowProd.of(1, (F(101), F(3, 2))),
           PowProd.of(1, (F(397), F(39, 2))),
           PowProd.of(F(1, 10 ** 9), (F(3), F(1, 3)))]
    pps += [PowProd.of(F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6)),
                       (F(rng.randrange(2, 10 ** 4)),
                        F(rng.randrange(-300, 300), rng.randrange(2, 60))))
            for _ in range(200)]
    compared = 0
    for pp in pps:
        x, value = _at_dps(30, pp), _at_dps(80, pp)
        with mp.workdps(20):
            old = mp.nstr(mp.mpf(x.a.a), 20), mp.nstr(mp.mpf(x.b.b), 20)
        new = enclosure_str(pp)
        if F(old[0]) <= _exact(value._mpi_[0]):
            assert new[0] == old[0], (pp, new, old)
            compared += 1
        if F(old[1]) >= _exact(value._mpi_[1]):
            assert new[1] == old[1], (pp, new, old)
            compared += 1
    assert compared > 200


# ---------------------------------------------------------------------------
# rigor's integer log and exp ends against mpmath's interval log and mpf_exp


def _round_down_bits(x: Fraction, prec: int) -> Fraction:
    # x rounded down to prec significant bits
    if x == 0:
        return x
    j = abs(x.numerator).bit_length() - x.denominator.bit_length()
    if F(2) ** j > abs(x):
        j -= 1  # now 2^j <= |x| < 2^(j + 1)
    unit = F(2) ** (j + 1 - prec)
    return math.floor(x / unit) * unit


def _log_end_of(x: Fraction, prec: int, up: bool) -> int:
    # x rounded to prec bits, then to an integer over 2^(prec + G), both
    # down, or both up if up
    if up:
        return -_log_end_of(-x, prec, False)
    return math.floor(_round_down_bits(x, prec) * 2 ** (prec + _GUARD_BITS))


def _reference(make, bits: int):
    # the exact ends of the interval make() at 80 more digits than bits
    saved = iv.prec
    try:
        iv.prec = bits + 266
        return [_exact(end) for end in make()._mpi_]
    finally:
        iv.prec = saved


def _parent_iv_log(n: int, d: int, dps: int) -> tuple:
    # the integer log ends as rigor made them from mpmath: the ends of
    # iv.log of the interval quotient n/d at dps digits, rounded outward
    # to integers over 2^(prec + G); and the quotient's ends
    saved = iv.dps
    try:
        iv.dps = dps
        q = iv_fraction(F(n, d))
        x = iv.log(q)
        scale = 2 ** (iv.prec + _GUARD_BITS)
        lo, hi = (_exact(end) * scale for end in x._mpi_)
        quotient = [_exact(end) for end in q._mpi_]
        return (math.floor(lo), math.ceil(hi)), quotient
    finally:
        iv.dps = saved


def _log_rationals() -> list:
    # integers up to 40 digits, ratios of up to 30 digits, and n/d with n
    # within 3 of d, 1000 of each, in lowest terms; and powers of two and
    # of ten whose low bits are zeros wider than the precision
    rng = random.Random(35)
    out = [F(1), F(2), F(1, 2), F(3), F(10 ** 40), F(1, 10 ** 40),
           F(2 ** 200), F(1, 2 ** 300), F(10 ** 50 + 1, 10 ** 50),
           F(10 ** 50, 10 ** 50 + 1), F(2 ** 140 + 1, 2 ** 140)]
    for _ in range(1000):
        out.append(F(rng.randrange(1, 10 ** rng.randrange(1, 41))))
        out.append(F(rng.randrange(1, 10 ** rng.randrange(1, 31)),
                     rng.randrange(1, 10 ** rng.randrange(1, 31))))
        d = rng.randrange(4, 10 ** rng.randrange(1, 41))
        out.append(F(d + rng.randrange(-3, 4), d))
    return out


_LOG_RATIONALS = _log_rationals()


@pytest.mark.parametrize("dps", [30, 60, 120, 240, 480])
def test_integer_log_matches_the_interval_log(dps):
    # each mismatch must be mpmath's misrounding, shown against a log at 80
    # more digits; none is known
    prec = _bits(dps)
    mismatches = []
    for x in _LOG_RATIONALS:
        got = _iv_log(x.numerator, x.denominator, prec)
        want, quotient = _parent_iv_log(x.numerator, x.denominator, dps)
        if got != want:
            for end, up, mine, theirs in zip(quotient, (False, True), got,
                                             want):
                ref = [_log_end_of(y, prec, up) for y in _reference(
                    lambda: iv.log(iv.mpf(end.numerator) / end.denominator),
                    prec)]
                assert ref[0] == ref[1] == mine != theirs, (x, dps, up)
            mismatches.append(x)
    assert len(_LOG_RATIONALS) >= 3000
    assert mismatches == []


def _neighbours(v: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # the prec-bit floats next below and next above v, itself one
    j = v.numerator.bit_length() - v.denominator.bit_length()
    if F(2) ** j > v:
        j -= 1
    unit = F(2) ** (j + 1 - prec)
    assert (v / unit).denominator == 1, (v, prec)
    return v - (unit / 2 if v == F(2) ** j else unit), v + unit


def _exp_rounds_correctly(v: Fraction, x: int, prec: int, up: bool) -> bool:
    # whether v is exp(x / 2^(prec + G)) rounded down, or up if up, to prec
    # bits, shown by an enclosure of the exp at 80 more digits
    lo, hi = _reference(
        lambda: iv.exp(iv.mpf(x) / 2 ** (prec + _GUARD_BITS)), prec)
    below, above = _neighbours(v, prec)
    return below < lo and hi <= v if up else v <= lo and hi < above


def _exp_ends() -> list:
    # (x, prec): 2000 log ends uniform in magnitude up to 8000, and 500
    # more down to the smallest ends, both signs
    rng = random.Random(35)
    out = []
    for prec in (103, 203, 401, 801):
        scale = prec + _GUARD_BITS
        out += [(rng.randrange(-8000 << scale, 8000 << scale), prec)
                for _ in range(500)]
        out += [(rng.choice((-1, 1)) * rng.randrange(1, 2 << scale)
                 >> rng.randrange(0, scale), prec) for _ in range(125)]
    return out


def test_exp_end_matches_mpf_exp():
    from mpmath.libmp import (from_man_exp, mpf_exp, round_ceiling,
                              round_floor)
    mismatches = []
    for x, prec in _exp_ends():
        for up, rnd in ((False, round_floor), (True, round_ceiling)):
            m, e = rigor._exp_end(x, prec, up)
            got = F(m) * F(2) ** e
            want = _exact(mpf_exp(from_man_exp(x, -prec - _GUARD_BITS),
                                  prec, rnd))
            if got != want:
                # only mpmath's misrounding, against 80 more digits
                assert _exp_rounds_correctly(got, x, prec, up), (x, prec, up)
                assert not _exp_rounds_correctly(want, x, prec, up)
                mismatches.append((x, prec, up))
    assert mismatches == []


@pytest.mark.parametrize("prec", [103, 203])
def test_exp_end_of_a_tiny_end_rounds_up_above_1(prec):
    # mpf_exp rounds exp(2 * 2^-(prec + G)) > 1 up to 1 itself
    from mpmath.libmp import from_man_exp, mpf_exp, round_ceiling
    for x in (2, 3):
        assert _exact(mpf_exp(from_man_exp(x, -prec - _GUARD_BITS), prec,
                              round_ceiling)) == 1
        m, e = rigor._exp_end(x, prec, True)
        assert F(m) * F(2) ** e == 1 + F(1, 2 ** (prec - 1))
        assert _exp_rounds_correctly(1 + F(1, 2 ** (prec - 1)), x, prec, True)
    assert rigor._exp_end(0, prec, True) == rigor._exp_end(0, prec, False) \
        == (1, 0)


# ---------------------------------------------------------------------------
# the enclosures under the integer log and exp, and Ziv's rounding test


def test_ln2_encloses_ln2():
    for w in (60, 151, 1000, 13400):
        lo, hi = rigor._ln2(w)
        ref = _reference(lambda: iv.log(2), w)
        assert lo <= ref[0] * 2 ** w and ref[1] * 2 ** w <= hi
        assert hi - lo <= 2


def test_pi_ends_enclose_pi(monkeypatch):
    # at every precision of the default ladder, 30 to 4000 digits, against
    # a 4200-digit interval pi
    monkeypatch.delenv("RNLAB_PRECISION_CAP", raising=False)
    saved = iv.dps
    try:
        iv.dps = 4200
        ref = [_exact(end) for end in iv.pi._mpi_]
    finally:
        iv.dps = saved
    ladder = list(rigor._precisions())
    assert ladder[0] == 30 and ladder[-1] == 4000
    for dps in ladder:
        w = _bits(dps)
        lo, hi = rigor.pi_ends(w)
        assert lo <= ref[0] * 2 ** w and ref[1] * 2 ** w <= hi, dps
        assert hi - lo <= 3, dps


@pytest.mark.parametrize("q", [2, 3, 5, 26, 239, 4801])
def test_acoth_series_encloses_atanh_and_atan(q):
    # the one series loop, with and without alternating signs, at widths
    # from a few bits to past the ladder's top
    for x in (8, 20, 61, 103, 160, 1000, 4003, 13500):
        atanh = _reference(lambda: iv.log(iv.mpf(q + 1) / (q - 1)) / 2, x)
        atan = _reference(lambda: iv.atan2(1, q), x)
        for sign, ref in ((1, atanh), (-1, atan)):
            lo, hi = rigor._acoth(q, x, sign)
            assert lo <= ref[0] * 2 ** x and ref[1] * 2 ** x <= hi, \
                (q, x, sign)


_LOG_ARGUMENTS = [
    # (m, e): t above and below 1 and near it on both sides, the exact 1
    # and 2, and 2^k t with k large of both signs
    (1, 0), (2, 0), (3, 0), (5, 0), (7, -3), (101, 0), (251104, -7),
    (2 ** 100 + 1, -100), (2 ** 100 - 1, -100), (3, -3000), (5, -3000),
    (11, -100000), (7, 4000), (13, 100000),
    (8595072328292469101236721483, -2 ** 17),
    (6212283749109018128462817791, 5000)]


@pytest.mark.parametrize("w", [151, 500, 2000])
def test_log_fixed_encloses_the_log(w):
    for m, e in _LOG_ARGUMENTS:
        lo, hi, W = rigor._log_fixed(m, e, w)
        assert W >= w
        ref = _reference(lambda: iv.log(iv.mpf(m) * iv.mpf(2) ** e),
                         W + 20)
        assert lo <= ref[0] * 2 ** W and ref[1] * 2 ** W <= hi, (m, e, w)


@pytest.mark.parametrize("prec", [103, 401])
def test_exp_fixed_encloses_the_exp(prec):
    scale = prec + _GUARD_BITS
    rng = random.Random(35)
    xs = [1, -1, 2, -3, 1 << scale, -(1 << scale), 8000 << scale,
          -(8000 << scale)]
    xs += [rng.randrange(-8000 << scale, 8000 << scale) for _ in range(40)]
    for w in (scale + 32, scale + 64):
        for x in xs:
            lo, hi, W = rigor._exp_fixed(x, scale, w)
            ref = _reference(lambda: iv.exp(iv.mpf(x) / 2 ** scale),
                             prec + 32)
            assert lo <= ref[0] * F(2) ** W and ref[1] * F(2) ** W <= hi, x


def _first_rounds_widened(real, prec: int, grid: int | None):
    # real, but the first enclosure for each argument (w aside) is made 16
    # units in the last place of prec bits, and at least 16 units of the
    # grid 2^-(prec + grid), wider on both sides
    seen = set()

    def enclose(*args):
        lo, hi, W = real(*args)
        if args[:-1] not in seen:
            seen.add(args[:-1])
            bits = max(abs(lo).bit_length(), abs(hi).bit_length()) - prec
            if grid is not None:
                bits = max(bits, W - prec - grid)
            lo, hi = lo - (16 << bits), hi + (16 << bits)
        return lo, hi, W

    return enclose, seen


def _exp_values(xs, prec: int) -> list:
    return [F(m) * F(2) ** e for m, e in
            (rigor._exp_end(x, prec, up) for x in xs for up in (False, True))]


@pytest.mark.parametrize("prec", [103, 203])
def test_rounding_retries_while_the_ends_of_an_enclosure_differ(monkeypatch,
                                                                prec):
    # first enclosures 16 units in the last place wider on each side round
    # differently at their two ends; the ends returned are those of the
    # next enclosure, the same as without the padding
    bases = [F(3), F(101), F(3, 7), F(251104, 125), F(10 ** 30 + 1, 10 ** 30)]
    xs = [1 << (prec + 12), 5 << (prec + 14), -7, 3, -(1 << (prec + 30))]
    want_logs = [_iv_log(b.numerator, b.denominator, prec) for b in bases]
    want_exps = _exp_values(xs, prec)
    _iv_log.cache_clear()
    calls = []

    def counted(enclose):
        def wrapper(*args):
            calls.append(args)
            return enclose(*args)
        return wrapper

    log_fixed, logs_seen = _first_rounds_widened(rigor._log_fixed, prec,
                                                 _GUARD_BITS)
    exp_fixed, exps_seen = _first_rounds_widened(rigor._exp_fixed, prec, None)
    monkeypatch.setattr(rigor, "_log_fixed", counted(log_fixed))
    monkeypatch.setattr(rigor, "_exp_fixed", counted(exp_fixed))
    assert [_iv_log(b.numerator, b.denominator, prec)
            for b in bases] == want_logs
    assert _exp_values(xs, prec) == want_exps
    # one more round for each enclosure widened
    assert len(calls) >= 2 * (len(logs_seen) + len(exps_seen))
