"""Huge-solution certificates for base solutions of x^2 + D = p^n0.

The size condition compares |beta| = p^(n0/2) (or 2^(n0/2-1) when p = 2)
against C * D^eta, where eta and the exponent of C are exact rational
functions of sigma.  Rational subexpressions are kept exact; enclosures
enter only for the logarithms, and all of them are rigor's: each side is a
rigor.PowProd decided on rigor's one precision ladder, so this module
imports nothing from mpmath.  That the threshold increases in sigma, which
max_sigma's bisection relies on, is proven in exact rationals, once per
variant and C.  The same proof shows that the common denominator of eta
and the exponent is positive on the whole sigma range, so max_sigma
multiplies the log condition through by it: the condition becomes the
sign of an affine form alpha + gamma*sigma, where alpha and gamma are the
logs of two more PowProds over the bases of beta, C and D, and one pair of
integer log enclosures of (alpha, gamma) per precision decides every
bisection point by an integer sign.  The bisection runs on integers too:
its ends are numerators over one denominator that doubles with each step,
and it builds its two Fractions once, at the end.  certify keeps the
direct log comparison, and its report prints both sides' enclosures at
the ladder's first precision (rigor.enclosure_str).

A certificate that fails still carries the thresholds M = 250*n0 and
X* = p^(250*n0), so downstream surveys can proceed empirically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .hensel import require_prime
from .pade import BOUNDS
from .rigor import (Comparison, PowProd, affine_sign, enclosure_str,
                    rigorous_compare)

F = Fraction

SIGMA_MAX = F("0.847")

STATUS_CERTIFIED = "certified"
STATUS_NOT_EXACT_POWER = "not_exact_power"
STATUS_SHARED_FACTOR = "shared_factor"
STATUS_SQUARE_D = "square_d"
STATUS_SMALL_D = "small_d"
STATUS_BETA_TOO_SMALL = "beta_too_small"
STATUS_CONDITION_FAILS = "condition_fails"
STATUS_UNDECIDABLE = "undecidable"


class UndecidableError(RuntimeError):
    """A rigorous comparison hit the precision cap without separating."""


class NotMonotoneError(RuntimeError):
    """The exact proof that the threshold increases in sigma failed."""


@dataclass(frozen=True)
class VariantConstants:
    """Rational data of one approximation variant of the size condition."""

    eta_const: Fraction
    eta_slope: Fraction
    den_const: Fraction
    den_slope: Fraction
    exp_const: Fraction
    base_odd: Fraction
    base_two: Fraction
    beta_floor: Fraction
    floor_strict: bool

    def denominator(self, sigma: Fraction) -> Fraction:
        return self.den_const - self.den_slope * sigma

    def eta(self, sigma: Fraction) -> Fraction:
        return (self.eta_const - self.eta_slope * sigma) / self.denominator(sigma)

    def exponent(self, sigma: Fraction) -> Fraction:
        return (self.exp_const - sigma) / self.denominator(sigma)

    def c_base(self, p: int) -> Fraction:
        return self.base_two if p == 2 else self.base_odd

    @functools.cached_property
    def _rational_failures(self) -> tuple[str | None, str | None]:
        """The first failing rational fact of check_threshold_monotone for
        C = base_odd and for C = base_two (None where all hold), proved
        once per instance."""
        return (_rational_failure(self, self.base_odd),
                _rational_failure(self, self.base_two))


VARIANTS = {
    "5j": VariantConstants(
        eta_const=F("7.84"), eta_slope=F(4),
        den_const=F("7.64"), den_slope=F(9),
        exp_const=F("1.96"),
        base_odd=F("2008.832"), base_two=F("7.847"),
        beta_floor=F("90.93"), floor_strict=False),
    "7j": VariantConstants(
        eta_const=F("11.76"), eta_slope=F(6),
        den_const=F("11.48"), den_slope=F(13),
        exp_const=F("1.96"),
        base_odd=F(42106), base_two=F("10.28"),
        beta_floor=F(1300), floor_strict=True),
}


@dataclass(frozen=True)
class HugeSolutionCertificate:
    D: int
    p: int
    x0: int
    n0: int
    sigma: Fraction
    variant: str
    status: str
    eta: Fraction
    exponent: Fraction
    M: int
    X_star: int
    x_min_inference: int
    b_value: Fraction
    b_ok: bool
    beta_enclosure: tuple[str, str] = ("", "")
    threshold_enclosure: tuple[str, str] = ("", "")
    margin_log10: float = 0.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED

    def meaning(self) -> str:
        return (f"for x > X* = {self.p}^{250 * self.n0}, any factorization "
                f"x^2 + {self.D} = {self.p}^n * m forces m > x^({self.sigma})")


def _check_base_inputs(D: int, p: int, x0: int, n0: int) -> None:
    """The input gates shared by certify and max_sigma (ValueError or a
    HenselError from require_prime, so the CLI exits with 2)."""
    if x0 < 1 or n0 < 1 or D < 1:
        raise ValueError("x0, n0, D must be positive")
    require_prime(p)
    if p == 2 and n0 < 3:
        raise ValueError("p = 2 requires n0 >= 3 for a nontrivial beta")


def _beta_powprod(p: int, n0: int) -> PowProd:
    if p == 2:
        return PowProd.of(1, (F(2), F(n0 - 2, 2)))
    return PowProd.of(1, (F(p), F(n0, 2)))


def _beta_norm_sq(p: int, n0: int) -> int:
    # |beta|^2: p^n0 for odd p, 2^(n0-2) for p = 2
    return 2 ** (n0 - 2) if p == 2 else p ** n0


def threshold_powprod(D: int, p: int, sigma: Fraction,
                      variant: VariantConstants) -> PowProd:
    return PowProd.of(1, (variant.c_base(p), variant.exponent(sigma)),
                      (F(D), variant.eta(sigma)))


def _beta_floor_ok(p: int, n0: int, variant: VariantConstants) -> bool:
    # |beta| >= floor compared as |beta|^2 * den^2 >= num^2 in integers
    num, den = variant.beta_floor.numerator, variant.beta_floor.denominator
    lhs = _beta_norm_sq(p, n0) * den ** 2
    rhs = num ** 2
    return lhs > rhs if variant.floor_strict else lhs >= rhs


def certify(D: int, p: int, x0: int, n0: int, sigma: Fraction,
            variant: str = "5j") -> HugeSolutionCertificate:
    """Evaluate the huge-solution condition with certified arithmetic.

    Checks run in order: exact power, shared factor, square D, beta floor,
    small D, then the rigorous size condition itself.  The first failure
    is recorded; thresholds are populated regardless of the outcome.
    """
    sigma = Fraction(sigma)
    var = VARIANTS[variant]
    if not 0 < sigma < SIGMA_MAX:
        raise ValueError(f"sigma must lie in (0, {SIGMA_MAX}), got {sigma}")
    _check_base_inputs(D, p, x0, n0)

    eta = var.eta(sigma)
    expo = var.exponent(sigma)
    M = 250 * n0
    x_star = p ** M
    x_min = p ** (125 * n0)
    bns = _beta_norm_sq(p, n0)
    b_value = F(bns - 2 * D, bns)
    b_ok = b_value >= BOUNDS.b_min
    notes: list[str] = []
    if not b_ok:
        notes.append(f"b below {float(BOUNDS.b_min)}: "
                     "the Q-value bound is not claimed here")

    def finish(status: str, beta_enc=("", ""), thr_enc=("", ""),
               margin=0.0) -> HugeSolutionCertificate:
        return HugeSolutionCertificate(
            D=D, p=p, x0=x0, n0=n0, sigma=sigma, variant=variant,
            status=status, eta=eta, exponent=expo, M=M, X_star=x_star,
            x_min_inference=x_min, b_value=b_value, b_ok=b_ok,
            beta_enclosure=beta_enc, threshold_enclosure=thr_enc,
            margin_log10=margin, notes=tuple(notes))

    if x0 * x0 + D != p ** n0:
        return finish(STATUS_NOT_EXACT_POWER)
    if D % p == 0:
        return finish(STATUS_SHARED_FACTOR)
    if math.isqrt(D) ** 2 == D:
        return finish(STATUS_SQUARE_D)
    if not _beta_floor_ok(p, n0, var):
        return finish(STATUS_BETA_TOO_SMALL)
    if D <= 12:
        return finish(STATUS_SMALL_D)

    beta = _beta_powprod(p, n0)
    threshold = threshold_powprod(D, p, sigma, var)
    # the report's enclosures, at the ladder's first precision, read the
    # logs that the verdict's first round computed there
    verdict = rigorous_compare(beta, threshold)
    beta_enc = enclosure_str(beta)
    thr_enc = enclosure_str(threshold)
    margin = _powprod_log10(beta) - _powprod_log10(threshold)

    if verdict is Comparison.GREATER:
        return finish(STATUS_CERTIFIED, beta_enc, thr_enc, margin)
    if verdict is Comparison.UNDECIDABLE:
        return finish(STATUS_UNDECIDABLE, beta_enc, thr_enc, margin)
    return finish(STATUS_CONDITION_FAILS, beta_enc, thr_enc, margin)


def _powprod_log10(pp: PowProd) -> float:
    acc = math.log10(pp.coeff.numerator) - math.log10(pp.coeff.denominator)
    for base, exp in pp.factors:
        acc += float(exp) * (math.log10(base.numerator)
                             - math.log10(base.denominator))
    return acc


def thresholds(cert: HugeSolutionCertificate) -> tuple[int, int, int]:
    """(M, X*, proof-internal x floor) attached to a certificate."""
    return cert.M, cert.X_star, cert.x_min_inference


@dataclass(frozen=True)
class MaxSigmaResult:
    D: int
    p: int
    x0: int
    n0: int
    variant: str
    empty: bool
    lo: Fraction | None
    hi: Fraction | None
    beta_floor_ok: bool
    monotone_checked: bool
    reason: str = ""

    def width(self) -> Fraction | None:
        if self.empty:
            return None
        return self.hi - self.lo


def check_threshold_monotone(D: int, p: int, var: VariantConstants) -> None:
    """Prove in exact rationals that the threshold T(sigma) = C^exponent *
    D^eta increases strictly on all of (0, SIGMA_MAX].

    log T = exponent * log C + eta * log D, and a ratio (a - b s)/(c0 - c1 s)
    has a derivative with the sign of a*c1 - b*c0 wherever c0 - c1 s != 0.
    So T increases when the linear denominator is positive at both ends of
    the range, exponent increases (b = 1), eta does not decrease, C > 1 and
    D >= 1.  Raises NotMonotoneError naming the first fact that fails.  The
    rational facts depend on the variant and C alone, so they are proved
    once per (variant, C) (VariantConstants._rational_failures); a failure
    is raised again on every call.
    """
    failure = var._rational_failures[p == 2]
    if failure is None and D < 1:
        failure = f"D = {D} is below 1"
    if failure is not None:
        raise NotMonotoneError(f"threshold not increasing: {failure}")


def _rational_failure(var: VariantConstants, c: Fraction) -> str | None:
    """The first of check_threshold_monotone's facts on the variant and C
    that fails, or None when all hold."""
    facts = (
        (min(var.denominator(F(0)), var.denominator(SIGMA_MAX)) > 0,
         f"denominator {var.den_const} - {var.den_slope}*sigma not positive "
         f"on [0, {SIGMA_MAX}]"),
        (var.exp_const * var.den_slope - var.den_const > 0,
         "exponent of C not increasing in sigma"),
        (var.eta_const * var.den_slope - var.eta_slope * var.den_const >= 0,
         "eta decreasing in sigma"),
        (c > 1, f"C = {c} is not above 1"),
    )
    return next((failure for holds, failure in facts if not holds), None)


def _size_condition(D: int, p: int, n0: int, var: VariantConstants
                    ) -> Callable[[int, int], bool]:
    """The size condition |beta| > C^exponent(sigma) * D^eta(sigma) as a
    function of sigma = u/v (integers u, v > 0), for sigma where den(sigma)
    = d0 - d1*sigma > 0.

    With log|beta| = l * log b (from _beta_powprod), multiplying the log
    condition by den(sigma) turns it into alpha + gamma*sigma > 0, where
        alpha = log(b^(d0*l) * C^(-e0) * D^(-h0)),
        gamma = log(C * D^h1 * b^(-d1*l)),
    with d0, d1 = den_const, den_slope, e0 = exp_const and h0, h1 =
    eta_const, eta_slope: two PowProds, enclosed by log_enclosure with one
    log per base and precision.  One enclosure of (alpha, gamma) per
    precision decides every sigma (rigor.affine_sign); a sigma the cap
    cannot separate raises UndecidableError.
    """
    (b, l), = _beta_powprod(p, n0).factors
    c, d, one = var.c_base(p), F(D), F(1)
    alpha = PowProd(one, ((b, var.den_const * l), (c, -var.exp_const),
                          (d, -var.eta_const)))
    gamma = PowProd(one, ((c, one), (d, var.eta_slope),
                          (b, -var.den_slope * l)))
    sign = affine_sign(lambda: (alpha.log_enclosure(), gamma.log_enclosure()))

    def holds(u: int, v: int) -> bool:
        verdict = sign(u, v)
        if verdict is Comparison.UNDECIDABLE:
            raise UndecidableError(
                f"size condition undecidable at sigma={F(u, v)}")
        return verdict is Comparison.GREATER

    return holds


def max_sigma(D: int, p: int, x0: int, n0: int, variant: str = "5j",
              width: Fraction = Fraction(1, 10 ** 6)) -> MaxSigmaResult:
    """Enclose the largest sigma satisfying the size condition.

    Runs certify's input gates, proves in exact rationals that the
    threshold increases in sigma and that den(sigma) > 0 on the range
    (check_threshold_monotone), then bisects the condition down to the
    requested interval width: lo = a/q and hi = b/q in integers, with q
    doubled at each step.  Each point is decided by the exact sign of the
    affine form alpha + gamma*sigma (_size_condition), from one enclosure
    of (alpha, gamma) per precision for the whole call.  The variant's
    beta floor is reported as a separate flag (the condition itself does
    not include it).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    var = VARIANTS[variant]
    _check_base_inputs(D, p, x0, n0)
    if x0 * x0 + D != p ** n0:
        raise ValueError(f"({x0}, {n0}) does not solve x^2 + {D} = {p}^n")
    floor_ok = _beta_floor_ok(p, n0, var)
    check_threshold_monotone(D, p, var)

    holds = _size_condition(D, p, n0, var)
    # lo = a/q and hi = b/q: the ends of the range pulled in by 1/q
    q = 10 ** 9
    a, b = 1, SIGMA_MAX.numerator * (q // SIGMA_MAX.denominator) - 1
    if not holds(a, q):
        return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                              empty=True, lo=None, hi=None,
                              beta_floor_ok=floor_ok, monotone_checked=True,
                              reason=f"condition fails already at sigma={F(a, q)}")
    if holds(b, q):
        return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                              empty=False, lo=F(b, q), hi=SIGMA_MAX,
                              beta_floor_ok=floor_ok, monotone_checked=True,
                              reason="condition holds up to the sigma range limit")
    # each step halves b - a over a doubled q
    while (b - a) * width.denominator > width.numerator * q:
        mid, q = a + b, 2 * q
        if holds(mid, q):
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                          empty=False, lo=F(a, q), hi=F(b, q),
                          beta_floor_ok=floor_ok, monotone_checked=True)
