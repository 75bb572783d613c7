"""The paper's analytic bounds, checked exactly or with outward rounding.

These are the Q-value bound (check_q_bound), the E bound (check_e_bound),
the kernel constants (kernel_extrema), the factorial ratios
(factorial_ratio_bounds, q_prefactor_bound) and the beta moment identity.
No subcommand calls them, so rnlab.cli does not import this module, and
with it rnlab.rigor stays off rnlab.pade's import path.

All bound checks compare exact Fractions built from the constants in
pade.BOUNDS, except where pi appears.  There both sides, all positive,
are squared where a square root appears, so that the check compares pi,
or pi**2, with an exact rational, by rigor's integer ends of pi on
rigor's ladder (_compare_pi).
kernel_extrema holds its kernels times d^2 at b = n/d, so that they have
integer coefficients, and divides each reported value by d^2 once.  Its
Sturm chain takes pseudo-remainders scaled by |lead| of the divisor, with
the content divided out: positive multiples of the rational remainders,
so every sign and root count is unchanged (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 6).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import rigor
from .pade import (BOUNDS, IntPolynomial, PadeError, binom, build_diagonal,
                   content, eval_at_z0, one_minus_z_pow)
from .quadring import QuadInt


class BOutOfRangeError(ValueError):
    """Kernel parameter b outside [0.953, 1], where no bound is claimed."""


def _log10(fr: Fraction) -> float:
    return math.log10(fr.numerator) - math.log10(fr.denominator)


def _compare_pi(k: int, target: Fraction) -> rigor.Comparison:
    """pi**k against target, k >= 1, on rigor's ladder: the ends of pi
    over 2**w, w = rigor.working_prec(), raised to the k-th power (all
    positive, so they stay in order), against target's floor and ceiling
    over 2**(k w)."""
    def pi_power():
        lo, hi = rigor.pi_ends(rigor.working_prec())
        return lo ** k, hi ** k

    def target_ends():
        scaled = target * 2 ** (k * rigor.working_prec())
        return math.floor(scaled), math.ceil(scaled)

    return rigor.decide(pi_power, target_ends)


# ---------------------------------------------------------------------------
# bound checks


class QBoundReport(NamedTuple):
    j: int
    D: int
    beta_norm: int
    b: Fraction
    ok: bool
    value_sq: Fraction
    bound_sq: Fraction
    margin_log10: float


def check_q_bound(j: int, D: int, beta_norm: int) -> QBoundReport:
    """Exact check of |Q*(z0)|^2 < (q_coeff * q_base^j)^2 at g = 0
    (BOUNDS: 0.308 and 89.3445).

    beta is reconstructed from its norm: x0 = sqrt(beta_norm - D) for an
    integral beta, else x0 = sqrt(4*beta_norm - D) for the halved form.
    The verdict compares the two reported Fractions exactly.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    b = Fraction(beta_norm - 2 * D, beta_norm)
    if b < BOUNDS.b_min:
        raise BOutOfRangeError(
            f"b = {b} < {float(BOUNDS.b_min)}: bound not claimed here")
    x0 = math.isqrt(beta_norm - D)
    if x0 * x0 + D == beta_norm:
        beta = QuadInt.of(x0, 1, D)
    else:
        x0 = math.isqrt(4 * beta_norm - D)
        if x0 * x0 + D != 4 * beta_norm:
            raise ValueError(f"beta_norm {beta_norm} has no beta over D={D}")
        beta = QuadInt.half(x0, 1, D)
    sys = build_diagonal(j, 0)
    ev_q = eval_at_z0(sys.Q, beta, sys.r)
    n_q = ev_q.norm()
    value_sq = Fraction(n_q, beta_norm ** sys.r)
    bound_sq = (BOUNDS.q_coeff * BOUNDS.q_base ** j) ** 2
    ok = value_sq < bound_sq
    margin = (_log10(bound_sq) - _log10(value_sq)) / 2 if n_q else math.inf
    return QBoundReport(j=j, D=D, beta_norm=beta_norm, b=b, ok=ok,
                        value_sq=value_sq, bound_sq=bound_sq,
                        margin_log10=margin)


class EBoundReport(NamedTuple):
    j: int
    g: int
    ratio: int
    content: int
    raw_ok: bool
    raw_margin_log10: float
    norm_ok: bool
    norm_margin_log10: float
    claimed: bool


def check_e_bound(j: int, g: int) -> EBoundReport:
    """Check the factorial ratio (k+r)!/((k-r-1)!(2r+1)!) = C(k+r, k-r-1)
    against e_coeff/sqrt(j) * (9^9/8^8)^j, and the content-normalized ratio
    against e_coeff/j * e_base^j (BOUNDS: 0.377 and 7.847).

    Both compare exact Fractions (the sqrt(j) is squared away); each margin
    is the log10 of the ratio of the two sides.  The derivation behind
    these bounds is specific to g = 1; for g = 0 the report carries
    claimed=False.
    """
    if j < 1 or g not in (0, 1):
        raise ValueError(f"need j >= 1 and g in {{0,1}}: {(j, g)}")
    k, r = 5 * j, 4 * j - g
    ratio = binom(k + r, k - r - 1)  # >= 1, as 0 <= k - r - 1 <= k + r
    c = content(j, g)
    # ratio^2 * j < e_coeff^2 * (9^9/8^8)^(2j)
    raw_slack = (BOUNDS.e_coeff ** 2 * Fraction(9 ** 9, 8 ** 8) ** (2 * j)
                 / (ratio ** 2 * j))
    # ratio/c * j < e_coeff * e_base^j
    norm_slack = BOUNDS.e_coeff * BOUNDS.e_base ** j / Fraction(ratio * j, c)
    return EBoundReport(j=j, g=g, ratio=ratio, content=c, raw_ok=raw_slack > 1,
                        raw_margin_log10=_log10(raw_slack) / 2,
                        norm_ok=norm_slack > 1,
                        norm_margin_log10=_log10(norm_slack),
                        claimed=(g == 1))


def _integral_01(poly: IntPolynomial) -> Fraction:
    """The exact integral of poly over [0, 1]: sum c_i / (i+1)."""
    return sum((Fraction(c, i + 1) for i, c in enumerate(poly.coeffs)),
               Fraction(0))


def beta_moment_identity_holds(r: int) -> bool:
    """Exact quadrature of the moment integral of t^r (1-t)^r over [0, 1]
    against r! r! / (2r+1)!."""
    integral = _integral_01(one_minus_z_pow(r).shift(r))
    expected = Fraction(math.factorial(r) ** 2, math.factorial(2 * r + 1))
    return integral == expected


# ---------------------------------------------------------------------------
# kernel extrema: exact rational polynomial analysis on [0, 1]


def _sturm_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """A primitive positive multiple of a mod b (see the module docstring)."""
    rem, lead = a, b.coeffs[-1]
    while rem.degree >= b.degree:
        top = rem.coeffs[-1] if lead > 0 else -rem.coeffs[-1]
        rem = rem * abs(lead) - (b * top).shift(rem.degree - b.degree)
    return rem.exact_scalar_div(rem.content()) if rem.coeffs else rem


def _sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = _sturm_remainder(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return chain


def _variations(chain: list[IntPolynomial], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly._horner(x)[0]  # the value times w^(d+1) > 0
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]."""
    return _variations(chain, a) - _variations(chain, b)


def _interval_eval(poly: IntPolynomial, lo: Fraction, hi: Fraction):
    """Enclosure of a polynomial over [lo, hi] by interval Horner."""
    acc_lo = acc_hi = poly.coeffs[-1]
    for c in reversed(poly.coeffs[:-1]):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def _isolate_roots(chain, lo: Fraction, hi: Fraction,
                   tol: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Cover every root of chain[0] in (lo, hi] by intervals of width <= tol.

    A bisection point that is itself a root is emitted as a degenerate
    point interval (the half-open counting convention would otherwise let
    it fall off an interval boundary); the redundant sliver this can leave
    behind only adds an extra covered interval, never loses a root.
    """
    s0 = chain[0]
    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = _count_roots(chain, a, b)
        if n == 0:
            continue
        if b - a <= tol:
            out.append((a, b))
            continue
        if n == 1:
            # bisect the single root down to tol
            while b - a > tol:
                mid = (a + b) / 2
                if s0._horner(mid)[0] == 0:
                    out.append((mid, mid))
                    break
                if _count_roots(chain, a, mid) >= 1:
                    b = mid
                else:
                    a = mid
            else:
                out.append((a, b))
            continue
        mid = (a + b) / 2
        if s0._horner(mid)[0] == 0:
            out.append((mid, mid))
        stack.append((a, mid))
        stack.append((mid, b))
    return sorted(out)


class KernelReport(NamedTuple):
    b: Fraction
    integral: Fraction
    integral_ok: bool
    max_lower: Fraction
    max_upper: Fraction
    max_ok: bool
    critical_intervals: int


def kernel_extrema(b: Fraction) -> KernelReport:
    """Certified extrema of the Q-bound kernels at a given b in [0.953, 1].

    f(t) = (1-t)^4 t (1-2bt+t^2)^2 is maximized over [0, 1] by isolating
    the real roots of f' with a Sturm chain, refining each to a width of
    2^-40, and bounding f over the isolating intervals with exact rational
    interval arithmetic.  h(t) = (1-t)^4 (1-2bt+t^2)^2 is integrated
    exactly.  The enclosures are compared against 0.044479 and 0.114552.
    """
    b = Fraction(b)
    if not BOUNDS.b_min <= b <= 1:
        raise BOutOfRangeError(f"b = {b} outside [{float(BOUNDS.b_min)}, 1]")
    d = b.denominator
    quad = IntPolynomial._of([d, -2 * b.numerator, d])  # d (1 - 2bt + t^2)
    h = one_minus_z_pow(4) * quad * quad  # d^2 h
    f = h.shift(1)  # d^2 f
    scale = d * d

    integral = _integral_01(h) / scale
    integral_ok = integral < BOUNDS.kernel_integral

    fp = f.derivative()
    chain = _sturm_chain(fp)
    # widen past t = 1 so the endpoint root of f' is interior to the count
    hi = Fraction(9, 8)
    while fp._horner(hi)[0] == 0:
        hi += Fraction(1, 8)
    if fp._horner(Fraction(0))[0] == 0:
        raise PadeError("f'(0) = 0: the Sturm count from t = 0 would miss a root")
    tol = Fraction(1, 2 ** 40)
    intervals = _isolate_roots(chain, Fraction(0), hi, tol)

    max_lower = max(f.value(Fraction(0)), f.value(Fraction(1)))
    max_upper = max_lower
    kept = 0
    for a, c in intervals:
        a, c = max(a, Fraction(0)), min(c, Fraction(1))
        if a > c:
            continue
        kept += 1
        max_upper = max(max_upper, _interval_eval(f, a, c)[1])
        max_lower = max(max_lower, f.value(a), f.value(c),
                        f.value((a + c) / 2))
    max_lower, max_upper = max_lower / scale, max_upper / scale
    max_ok = max_upper <= BOUNDS.kernel_max
    return KernelReport(b=b, integral=integral, integral_ok=integral_ok,
                        max_lower=max_lower, max_upper=max_upper,
                        max_ok=max_ok, critical_intervals=kept)


# ---------------------------------------------------------------------------
# factorial-ratio inequalities (Stirling-type)


class FactorialBoundReport(NamedTuple):
    A: int
    B: int
    C: int | None
    ok: bool
    margin_log10: float


def factorial_ratio_bounds(A: int, B: int, C: int | None = None
                           ) -> FactorialBoundReport:
    """Certified check of the multinomial bound

        (A+B+C)!/(A!B!C!) < 1/(2 pi) sqrt((A+B+C)/(ABC)) N^N/(A^A B^B C^C)

    and, with C omitted, the two-argument form with 1/sqrt(2 pi).  All
    sides are positive, so with k = 1 for two arguments and 2 for three it
    holds iff pi**k < power**2 * radicand / (2**k * lhs**2), which
    _compare_pi decides.
    """
    args = (A, B) if C is None else (A, B, C)
    if min(args) < 1:
        raise ValueError(f"arguments must be >= 1: {(A, B, C)}")
    n = sum(args)
    lhs = Fraction(math.factorial(n), math.prod(map(math.factorial, args)))
    power = Fraction(n ** n, math.prod(a ** a for a in args))
    radicand = Fraction(n, math.prod(args))
    k = len(args) - 1
    verdict = _compare_pi(k, power ** 2 * radicand / (2 ** k * lhs ** 2))
    ok = verdict is rigor.Comparison.LESS
    # informational margin (digits of slack), not part of the certificate
    rhs_est = (_log10(power) + 0.5 * _log10(radicand)
               - k / 2 * math.log10(2 * math.pi))
    return FactorialBoundReport(A=A, B=B, C=C, ok=ok,
                                margin_log10=rhs_est - _log10(lhs))


def q_prefactor_bound(j: int) -> bool:
    """Exact-pi check of (9j)!/((j-1)! ((4j)!)^2) < 3/(8 pi) (3^18 2^-16)^j.

    Rearranged so that pi is the only enclosure: the inequality holds iff
    pi < 3^(18j+1) / (8 * lhs * 2^(16j))."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    num = math.factorial(9 * j)
    den = math.factorial(j - 1) * math.factorial(4 * j) ** 2
    lhs, rem = divmod(num, den)
    if rem:
        raise PadeError(f"(9j)!/((j-1)! ((4j)!)^2) is not an integer at j = {j}")
    target = Fraction(3 ** (18 * j + 1), 8 * lhs * 2 ** (16 * j))
    return _compare_pi(1, target) is rigor.Comparison.LESS
