"""Huge-solution certificates for base solutions of x^2 + D = p^n0.

The size condition compares |beta| = p^(n0/2) (or 2^(n0/2-1) when p = 2)
against C * D^eta, where eta and the exponent of C are exact rational
functions of sigma.  Rational subexpressions are kept exact; enclosures
enter only for the two rational-exponent powers, with precision escalated
until the comparison separates.

A certificate that fails still carries the thresholds M = 250*n0 and
X* = p^(250*n0), so downstream surveys can proceed empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv

from .hensel import require_prime
from .rigor import Comparison, PowProd, enclosure_str, rigorous_compare

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
    """The threshold grid failed its monotonicity pre-check."""


@dataclass(frozen=True)
class VariantConstants:
    """Rational data of one approximation variant of the size condition."""

    name: str
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


VARIANTS = {
    "5j": VariantConstants(
        name="5j",
        eta_const=F("7.84"), eta_slope=F(4),
        den_const=F("7.64"), den_slope=F(9),
        exp_const=F("1.96"),
        base_odd=F("2008.832"), base_two=F("7.847"),
        beta_floor=F("90.93"), floor_strict=False),
    "7j": VariantConstants(
        name="7j",
        eta_const=F("11.76"), eta_slope=F(6),
        den_const=F("11.48"), den_slope=F(13),
        exp_const=F("1.96"),
        base_odd=F(42106), base_two=F("10.28"),
        beta_floor=F(1300), floor_strict=True),
}


@dataclass(frozen=True)
class AuditConstants:
    """Literal constants of the downstream inequality chain; used only by
    the audit, never inside certification logic."""

    q_lambda_coeff: Fraction = F("0.238074")
    beta_exp: Fraction = F("0.4873")
    nine_tenths: Fraction = F(9, 10)
    mu_div: Fraction = F("6.89")
    x_coeff: Fraction = F("0.7")
    final_coeff: Fraction = F("6.32")
    mid_coeff: Fraction = F("5.24")

    @staticmethod
    def p_pow_gap(n0: int) -> int:
        return 5 * n0 - 1


AUDIT_CONSTANTS = AuditConstants()


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
    beta_norm_sq: int  # |beta|^2 as an exact integer
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
            variant: str = "5j", cap_digits: int | None = None
            ) -> HugeSolutionCertificate:
    """Evaluate the huge-solution condition with certified arithmetic.

    Checks run in order: exact power, shared factor, square D, beta floor,
    small D, then the rigorous size condition itself.  The first failure
    is recorded; thresholds are populated regardless of the outcome.
    """
    sigma = Fraction(sigma)
    var = VARIANTS[variant]
    if not 0 < sigma < SIGMA_MAX:
        raise ValueError(f"sigma must lie in (0, {SIGMA_MAX}), got {sigma}")
    if x0 < 1 or n0 < 1 or D < 1:
        raise ValueError("x0, n0, D must be positive")
    require_prime(p)
    if p == 2 and n0 < 3:
        raise ValueError("p = 2 requires n0 >= 3 for a nontrivial beta")

    eta = var.eta(sigma)
    expo = var.exponent(sigma)
    M = 250 * n0
    x_star = p ** M
    x_min = p ** (125 * n0)
    bns = _beta_norm_sq(p, n0)
    b_value = F(bns - 2 * D, bns)
    b_ok = b_value >= F("0.953")
    notes: list[str] = []
    if not b_ok:
        notes.append("b below 0.953: the Q-value bound is not claimed here")

    def finish(status: str, beta_enc=("", ""), thr_enc=("", ""),
               margin=0.0) -> HugeSolutionCertificate:
        return HugeSolutionCertificate(
            D=D, p=p, x0=x0, n0=n0, sigma=sigma, variant=variant,
            status=status, eta=eta, exponent=expo, M=M, X_star=x_star,
            x_min_inference=x_min, beta_norm_sq=bns, b_value=b_value,
            b_ok=b_ok, beta_enclosure=beta_enc, threshold_enclosure=thr_enc,
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
    verdict = rigorous_compare(beta, threshold, cap_digits)

    saved = iv.dps
    try:
        iv.dps = 30
        beta_enc = enclosure_str(beta.enclosure())
        thr_enc = enclosure_str(threshold.enclosure())
    finally:
        iv.dps = saved
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


def _condition_holds(D: int, p: int, n0: int, sigma: Fraction,
                     var: VariantConstants, cap_digits: int | None) -> bool:
    verdict = rigorous_compare(_beta_powprod(p, n0),
                               threshold_powprod(D, p, sigma, var), cap_digits)
    if verdict is Comparison.UNDECIDABLE:
        raise UndecidableError(f"size condition undecidable at sigma={sigma}")
    return verdict is Comparison.GREATER


def max_sigma(D: int, p: int, x0: int, n0: int, variant: str = "5j",
              width: Fraction = Fraction(1, 10 ** 6),
              cap_digits: int | None = None) -> MaxSigmaResult:
    """Enclose the largest sigma satisfying the size condition.

    Verifies threshold monotonicity on a sigma grid, then bisects the
    condition down to the requested interval width.  The variant's beta
    floor is reported as a separate flag (the condition itself does not
    include it).
    """
    var = VARIANTS[variant]
    if x0 * x0 + D != p ** n0:
        raise ValueError(f"({x0}, {n0}) does not solve x^2 + {D} = {p}^n")
    floor_ok = _beta_floor_ok(p, n0, var)

    # monotonicity pre-check: thresholds must increase along the grid
    grid = [SIGMA_MAX * F(i, 16) for i in range(1, 16)]
    for s1, s2 in zip(grid, grid[1:]):
        t1 = threshold_powprod(D, p, s1, var)
        t2 = threshold_powprod(D, p, s2, var)
        if rigorous_compare(t1, t2, cap_digits) is not Comparison.LESS:
            raise NotMonotoneError(
                f"threshold not increasing between sigma={s1} and {s2}")

    lo = F(1, 10 ** 9)
    hi = SIGMA_MAX - F(1, 10 ** 9)
    if not _condition_holds(D, p, n0, lo, var, cap_digits):
        return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                              empty=True, lo=None, hi=None,
                              beta_floor_ok=floor_ok, monotone_checked=True,
                              reason=f"condition fails already at sigma={lo}")
    if _condition_holds(D, p, n0, hi, var, cap_digits):
        return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                              empty=False, lo=hi, hi=SIGMA_MAX,
                              beta_floor_ok=floor_ok, monotone_checked=True,
                              reason="condition holds up to the sigma range limit")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _condition_holds(D, p, n0, mid, var, cap_digits):
            lo = mid
        else:
            hi = mid
    return MaxSigmaResult(D=D, p=p, x0=x0, n0=n0, variant=variant,
                          empty=False, lo=lo, hi=hi, beta_floor_ok=floor_ok,
                          monotone_checked=True)
