"""Exact Pade approximants to (1-z)^k and their certified bounds.

One builder, _general_triple, gives every triple (P, Q, E) with

    P - (1-z)^(B+C+1) Q = (-1)^C z^(A+C+1) E,    A, B, C >= 0.

* The general three-parameter system (build_general, A, B, C >= 1) takes
  P and Q times (-1)^C, so that P - (1-z)^(B+C+1) Q = z^(A+C+1) E.
* The diagonal family (build_diagonal) has k = 5j, r = 4j - g, g in
  {0, 1}.  It is the unsigned triple at (A, B, C) = (r, j+g-1, r), so Q has
  positive coefficients and P - (1-z)^k Q = (-1)^r z^(2r+1) E.

Both public builders re-verify the identity by exact polynomial
arithmetic before a system is handed out; the audit checks its systems
at z0 instead (see rnlab.decomposer).

The coefficients are products of binomials; each factor runs along the
index by its ratio recurrence, e.g. C(n, i+1) = C(n, i) (n-i)/(i+1), with
every division exact.  (1-z)^k for the identity check is built the same
way, c_(i+1) = -c_i (k-i)/(i+1).

IntPolynomial multiplies by Kronecker substitution: a factor with
coefficients a_i is packed into the one integer sum a_i 2^(w i), with
byte-aligned slots of w bits chosen so that w exceeds the bit length of
the largest possible product coefficient plus a sign bit; one big-integer
product then holds every coefficient of the product polynomial in its own
slot, and a bias of 2^(w-1) per slot lets each be read back independently.
The work is one CPython big-integer multiplication plus linear passes.

eval_at_z0 computes beta^d f(lambda/beta) = sum c_i lambda^i beta^(d-i) in
the quadratic ring by binary splitting: the partial sum T(lo, hi) over the
coefficients lo <= i < hi, scaled to beta^(hi-1-i), is put together from
its halves as T(lo, mid) beta^(hi-mid) + lambda^(mid-lo) T(mid, hi).  The
halves have about equal sizes, so the work is O(M(S) log d) for a result
of S bits, against Theta(d S) for Horner's rule (Bernstein, "Fast
multiplication and its applications", 2008).  The splits use only about
two lengths per level, and the beta and lambda powers of those lengths
are memoized per call.  Values travel as numerator pairs (u, v) of
(u + v sqrt(-D))/2, and one validated QuadInt is built at the end.

starred_at_z0 is the one place that assembles beta^k P*(z0) - conj(beta)^k
Q*(z0) at z0 = lambda/beta, for the identity check and the chain audit.

All bound checks compare exact Fractions built from the constants in
BOUNDS, or fall back to directed-rounding enclosures when pi or a square
root appears.
kernel_extrema holds its kernels times d^2 at b = n/d, so that they have
integer coefficients, and divides each reported value by d^2 once.  Its
Sturm chain takes pseudo-remainders scaled by |lead| of the divisor, with
the content divided out: positive multiples of the rational remainders,
so every sign and root count is unchanged (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest

from mpmath import iv

from . import rigor
from .quadring import MixedDError, QuadInt


class PadeError(RuntimeError):
    pass


class IdentityViolationError(PadeError):
    """A constructed triple failed its defining identity (internal bug)."""


class ContentViolationError(PadeError):
    """Dividing a triple by its content was not exact."""


class NotMonomialError(PadeError):
    """A cross-product residual had coefficients off the expected monomial."""


class BOutOfRangeError(ValueError):
    """Kernel parameter b outside [0.953, 1], where no bound is claimed."""


def binom(n: int, k: int) -> int:
    """C(n, k) with the empty convention: 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binom needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# dense exact-integer polynomials


def _pack(coeffs, width: int) -> int:
    """sum(c_i * 2^(8*width*i)) for signed c_i with |c_i| < 2^(8*width),
    as the difference of the packings of the positive and negative parts."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero
                   for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero
                   for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class IntPolynomial:
    """Dense polynomial with exact integer coefficients, index i <-> z^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list[int]) -> IntPolynomial:
        """From a list of ints that needs no type check; trailing zeros
        are stripped in place."""
        while cs and cs[-1] == 0:
            cs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(cs)
        return poly

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def monomial(cls, c: int, degree: int) -> IntPolynomial:
        return cls([0] * degree + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        return IntPolynomial._of(
            [a + b for a, b in zip_longest(self.coeffs, other.coeffs,
                                           fillvalue=0)])

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return IntPolynomial._of(
            [a - b for a, b in zip_longest(self.coeffs, other.coeffs,
                                           fillvalue=0)])

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial._of([-c for c in self.coeffs])

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        """Product by Kronecker substitution (see the module docstring);
        a scalar multiplies each coefficient."""
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        # |product coefficient| <= min(len) * max|a| * max|b| < 2^(bits - 2),
        # which leaves the slot a spare bit and a sign bit
        bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + min(len(a), len(b)).bit_length() + 2)
        width = (bits + 7) // 8  # slot width in bytes
        n = len(a) + len(b) - 1
        packed = _pack(a, width) * _pack(b, width)
        # add 2^(8*width - 1) to every slot so that each slot is a
        # nonnegative integer below 2^(8*width) and reads back on its own
        half = 1 << (8 * width - 1)
        bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
        raw = (packed + bias).to_bytes(n * width, "little")
        return IntPolynomial._of(
            [int.from_bytes(raw[i:i + width], "little") - half
             for i in range(0, n * width, width)])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPolynomial:
        if e < 0:
            raise ValueError("negative polynomial powers are undefined here")
        result = IntPolynomial((1,))
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, m: int) -> IntPolynomial:
        """Multiply by z^m."""
        if self.is_zero():
            return self
        return IntPolynomial._of([0] * m + list(self.coeffs))

    def derivative(self) -> IntPolynomial:
        return IntPolynomial._of([i * c for i, c in enumerate(self.coeffs)][1:])

    def _horner(self, x: Fraction) -> tuple[int, int]:
        """(sum c_i u^i w^(d-i), w^(d+1)) at x = u/w; the sum has its sign."""
        u, w = x.numerator, x.denominator
        acc, w_pow = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * u + c * w_pow
            w_pow *= w
        return acc, w_pow

    def value(self, x: Fraction) -> Fraction:
        """The exact value at x = u/w, as sum c_i u^i w^(d-i) / w^d."""
        acc, w_pow = self._horner(x)
        return Fraction(acc * x.denominator, w_pow)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def exact_scalar_div(self, d: int) -> IntPolynomial | None:
        if d == 0:
            raise ZeroDivisionError
        pairs = [divmod(c, d) for c in self.coeffs]
        if any(rem for _, rem in pairs):
            return None
        return IntPolynomial._of([q for q, _ in pairs])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


ONE_MINUS_Z = IntPolynomial((1, -1))


def one_minus_z_pow(k: int) -> IntPolynomial:
    """(1-z)^k from its binomial coefficients, c_(i+1) = -c_i (k-i)/(i+1)."""
    if k < 0:
        raise ValueError("negative polynomial powers are undefined here")
    coeffs = [1]
    for i in range(k):
        coeffs.append(-coeffs[-1] * (k - i) // (i + 1))
    return IntPolynomial._of(coeffs)


# ---------------------------------------------------------------------------
# system construction


@dataclass(frozen=True)
class PadeSystem:
    """A matched (P, Q, E) triple approximating (1-z)^k, k = B + C + 1,
    with P - (1-z)^k Q = sign z^(A+C+1) E.

    kind is "general" (sign +1) or "diagonal" (params j, g with k = 5j,
    r = 4j - g, built at (A, B, C) = (r, j+g-1, r), sign (-1)^r).  content
    is 1 until the diagonal triple has been normalized, after which it
    records the divided-out gcd c_g(j).
    """

    kind: str
    A: int
    B: int
    C: int
    P: IntPolynomial
    Q: IntPolynomial
    E: IntPolynomial
    content: int = 1
    j: int | None = None
    g: int | None = None

    @property
    def k(self) -> int:
        return self.B + self.C + 1

    @property
    def r(self) -> int:
        return self.A

    @property
    def starred(self) -> bool:
        return self.content != 1

    def identity_sign(self) -> int:
        return -1 if (self.kind == "diagonal" and self.r % 2 == 1) else 1

    def remainder_degree(self) -> int:
        return self.A + self.C + 1

    def identity_holds(self) -> bool:
        lhs = self.P - one_minus_z_pow(self.k) * self.Q
        rhs = (self.E * self.identity_sign()).shift(self.remainder_degree())
        return lhs == rhs


def _comb_row(n: int, k: int, count: int) -> list[int]:
    """count terms C(n, k), C(n, k+1), ...: C(n, t+1) = C(n, t)(n-t)/(t+1).

    Here and in _comb_up and _comb_down every division is exact: the
    dividend is the next binomial times the divisor."""
    out = [math.comb(n, k)]
    for t in range(k, k + count - 1):
        out.append(out[-1] * (n - t) // (t + 1))
    return out


def _comb_up(n: int, k: int, count: int) -> list[int]:
    """count terms C(n, k), C(n+1, k), ...: C(m+1, k) = C(m, k)(m+1)/(m+1-k)."""
    out = [math.comb(n, k)]
    for m in range(n, n + count - 1):
        out.append(out[-1] * (m + 1) // (m + 1 - k))
    return out


def _comb_down(n: int, k: int, count: int) -> list[int]:
    """count terms C(n, k), C(n-1, k), ...: C(m-1, k) = C(m, k)(m-k)/m."""
    out = [math.comb(n, k)]
    for m in range(n, n - count + 1, -1):
        out.append(out[-1] * (m - k) // m)
    return out


def _termwise(xs: list[int], ys: list[int], alternate: bool) -> list[int]:
    """x_i y_i, times (-1)^i when alternate."""
    return [-x * y if alternate and i % 2 else x * y
            for i, (x, y) in enumerate(zip(xs, ys))]


def _q_coeffs(A: int, B: int, C: int) -> list[int]:
    """The coefficients q_i = C(A+C-i, C) C(B+i, i) of _general_triple's Q."""
    return _termwise(_comb_down(A + C, C, A + 1), _comb_up(B, B, A + 1), False)


def _general_triple(A: int, B: int, C: int):
    """(P, Q, E) with P - (1-z)^(B+C+1) Q = (-1)^C z^(A+C+1) E, A,B,C >= 0:
    p_i = (-1)^i C(s, i) C(A+C-i, A), q_i = C(A+C-i, C) C(B+i, i) and
    e_i = (-1)^i C(A+i, i) C(s, A+C+1+i), where s = A + B + C + 1."""
    s = A + B + C + 1
    p = _termwise(_comb_row(s, 0, C + 1), _comb_down(A + C, A, C + 1), True)
    e = _termwise(_comb_up(A, A, B + 1), _comb_row(s, A + C + 1, B + 1), True)
    return (IntPolynomial._of(p), IntPolynomial._of(_q_coeffs(A, B, C)),
            IntPolynomial._of(e))


def _degree_checked(sys: PadeSystem, at: tuple) -> PadeSystem:
    """sys, once deg E = B."""
    if sys.E.degree != sys.B:
        raise IdentityViolationError(f"deg E = {sys.E.degree} != B at {at}")
    return sys


def _verified(sys: PadeSystem, at: tuple) -> PadeSystem:
    """sys, once its identity holds exactly and deg E = B."""
    if not sys.identity_holds():
        raise IdentityViolationError(f"{sys.kind} identity failed at {at}")
    return _degree_checked(sys, at)


def build_general(A: int, B: int, C: int) -> PadeSystem:
    """Three-parameter system with P - (1-z)^(B+C+1) Q = z^(A+C+1) E, for
    positive A, B, C: the triple of _general_triple with P and Q times
    (-1)^C."""
    if min(A, B, C) < 1:
        raise ValueError(f"parameters must be >= 1: {(A, B, C)}")
    P, Q, E = _general_triple(A, B, C)
    if C % 2:
        P, Q = -P, -Q
    return _verified(PadeSystem("general", A, B, C, P, Q, E), (A, B, C))


def _diagonal_params(j: int, g: int) -> tuple[int, int, int]:
    """(A, B, C) = (r, j+g-1, r) of the diagonal system at (j, g)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if g not in (0, 1):
        raise ValueError(f"g must be 0 or 1, got {g}")
    r = 4 * j - g
    return r, j + g - 1, r


def _unverified_diagonal(j: int, g: int) -> PadeSystem:
    """Diagonal system at k = 5j, r = 4j - g: the unsigned triple at
    (A, B, C) = (r, j+g-1, r), so that Q has positive coefficients.  Only
    deg E = B is checked (for the audit; see rnlab.decomposer)."""
    A, B, C = _diagonal_params(j, g)
    P, Q, E = _general_triple(A, B, C)
    return _degree_checked(
        PadeSystem("diagonal", A, B, C, P, Q, E, j=j, g=g), (j, g))


def build_diagonal(j: int, g: int) -> PadeSystem:
    """The diagonal system at (j, g), once its identity holds exactly."""
    return _verified(_unverified_diagonal(j, g), (j, g))


def content(j: int, g: int) -> int:
    """c_g(j): gcd of the diagonal Q coefficients (binomial products)."""
    return math.gcd(*_q_coeffs(*_diagonal_params(j, g)))


def normalize(sys: PadeSystem) -> PadeSystem:
    """Divide a diagonal triple by c_g(j), the content of its Q; all three
    divisions must be exact."""
    if sys.kind != "diagonal":
        raise ValueError("only diagonal systems are normalized")
    if sys.starred:
        return sys
    c = sys.Q.content()
    if c == 1:
        return sys
    parts = {}
    for name in ("P", "Q", "E"):
        parts[name] = getattr(sys, name).exact_scalar_div(c)
        if parts[name] is None:
            raise ContentViolationError(
                f"content {c} does not divide {name} at (j,g)={(sys.j, sys.g)}")
    return replace(sys, content=c, **parts)


def cross_constant(sys_r: PadeSystem, sys_r1: PadeSystem) -> int:
    """The constant c in P_r Q_{r+1} - Q_r P_{r+1} = c z^(2r+1).

    Both systems must share k and have adjacent degrees r and r + 1.  The
    residual is computed exactly by two Kronecker-substitution products
    (see IntPolynomial.__mul__) and must be a nonzero monomial of the
    expected degree.
    """
    if sys_r.k != sys_r1.k:
        raise ValueError(f"mismatched k: {sys_r.k} vs {sys_r1.k}")
    if sys_r1.r != sys_r.r + 1:
        raise ValueError(f"degrees must be adjacent: {sys_r.r}, {sys_r1.r}")
    residual = sys_r.P * sys_r1.Q - sys_r.Q * sys_r1.P
    expected = sys_r.remainder_degree()
    if residual.is_zero() or residual.degree != expected:
        raise NotMonomialError(
            f"residual degree {residual.degree}, expected {expected}")
    if any(c != 0 for c in residual.coeffs[:-1]):
        raise NotMonomialError("residual is not a monomial")
    return residual.coeffs[-1]


# ---------------------------------------------------------------------------
# evaluation at z0 = lambda/beta inside the quadratic ring


def _qmul(x: tuple[int, int], y: tuple[int, int], D: int) -> tuple[int, int]:
    """Product of two algebraic integers given by their numerator pairs
    (u, v) of (u + v*sqrt(-D))/2; both halvings are exact."""
    (u1, v1), (u2, v2) = x, y
    return (u1 * u2 - D * v1 * v2) >> 1, (u1 * v2 + v1 * u2) >> 1


def _power_table(x: tuple[int, int], D: int):
    """n -> x^n as a numerator pair, memoized: x^n comes from x^(n//2)."""
    memo = {0: (2, 0), 1: x}

    def power(n: int) -> tuple[int, int]:
        if n not in memo:
            half = power(n // 2)
            sq = _qmul(half, half, D)
            memo[n] = _qmul(sq, x, D) if n % 2 else sq
        return memo[n]

    return power


def eval_at_z0(poly: IntPolynomial, beta: QuadInt, deg_scale: int,
               lam: QuadInt) -> QuadInt:
    """beta^deg_scale * poly(lambda/beta), computed exactly as a QuadInt.

    Every caller passes lambda = beta - conj(beta): 2*sqrt(-D) for an
    integral beta, sqrt(-D) for the half-integral one of p = 2.  The sum
    of c_i lambda^i beta^(deg_scale - i) is formed by binary splitting
    (see the module docstring).
    """
    if deg_scale < poly.degree:
        raise ValueError(f"deg_scale {deg_scale} < degree {poly.degree}")
    D = beta.D
    if lam.D != D:
        raise MixedDError(f"mixed rings: D={D} vs D={lam.D}")
    cs = poly.coeffs
    if not cs:
        return QuadInt.from_int(0, D)
    beta_pow = _power_table((beta.u, beta.v), D)
    lam_pow = _power_table((lam.u, lam.v), D)

    def split(lo: int, hi: int) -> tuple[int, int]:
        # sum of c_i lambda^(i-lo) beta^(hi-1-i) over lo <= i < hi
        if hi - lo == 1:
            return 2 * cs[lo], 0
        mid = (lo + hi) // 2
        lu, lv = _qmul(split(lo, mid), beta_pow(hi - mid), D)
        ru, rv = _qmul(lam_pow(mid - lo), split(mid, hi), D)
        return lu + ru, lv + rv

    # the zero coefficients above the degree contribute only a beta power
    u, v = _qmul(split(0, len(cs)), beta_pow(deg_scale + 1 - len(cs)), D)
    return QuadInt(u, v, D)


def starred_at_z0(sys: PadeSystem, beta: QuadInt, lam: QuadInt):
    """(P*(z0), Q*(z0), A, ok) for a starred diagonal system at lambda/beta:
    A = beta^k P*(z0) - conj(beta)^k Q*(z0), and ok says whether A equals
    the remainder (-1)^r lambda^(2r+1) beta^(k-2r-1) E*(z0).  All four are
    scaled by beta^r so that every term is an algebraic integer."""
    k, r = sys.k, sys.r
    ev_p = eval_at_z0(sys.P, beta, r, lam)
    ev_q = eval_at_z0(sys.Q, beta, r, lam)
    ev_e = eval_at_z0(sys.E, beta, k - r - 1, lam)
    beta_k = beta ** k  # conj(beta)^k = conj(beta^k)
    assembled = beta_k * ev_p - beta_k.conj() * ev_q
    remainder = sys.identity_sign() * (lam ** (2 * r + 1)) * ev_e
    return ev_p, ev_q, assembled, assembled == remainder


def assembled_identity_holds(j: int, g: int, beta: QuadInt,
                             lam: QuadInt) -> bool:
    """Exact check of the starred identity at (j, g) evaluated at z0
    (see starred_at_z0)."""
    return starred_at_z0(normalize(build_diagonal(j, g)), beta, lam)[3]


# ---------------------------------------------------------------------------
# literal constants attached to the bounds


@dataclass(frozen=True)
class BoundConstants:
    """The paper's bound constants: every check and report reads them here."""

    q_coeff: Fraction = Fraction("0.308")
    q_base: Fraction = Fraction("89.3445")
    e_coeff: Fraction = Fraction("0.377")
    e_base: Fraction = Fraction("7.847")
    kernel_max: Fraction = Fraction("0.044479")
    kernel_integral: Fraction = Fraction("0.114552")
    b_min: Fraction = Fraction("0.953")


BOUNDS = BoundConstants()


def _log10(fr: Fraction) -> float:
    return math.log10(fr.numerator) - math.log10(fr.denominator)


# ---------------------------------------------------------------------------
# bound checks


@dataclass(frozen=True)
class QBoundReport:
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
    sys = normalize(build_diagonal(j, 0))
    ev_q = eval_at_z0(sys.Q, beta, sys.r, beta - beta.conj())
    n_q = ev_q.norm()
    value_sq = Fraction(n_q, beta_norm ** sys.r)
    bound_sq = (BOUNDS.q_coeff * BOUNDS.q_base ** j) ** 2
    ok = value_sq < bound_sq
    margin = (_log10(bound_sq) - _log10(value_sq)) / 2 if n_q else math.inf
    return QBoundReport(j=j, D=D, beta_norm=beta_norm, b=b, ok=ok,
                        value_sq=value_sq, bound_sq=bound_sq,
                        margin_log10=margin)


@dataclass(frozen=True)
class EBoundReport:
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
        v = poly.value(x)
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


@dataclass(frozen=True)
class KernelReport:
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


@dataclass(frozen=True)
class FactorialBoundReport:
    A: int
    B: int
    C: int | None
    ok: bool
    margin_log10: float


def factorial_ratio_bounds(A: int, B: int, C: int | None = None
                           ) -> FactorialBoundReport:
    """Certified check of the multinomial bound

        (A+B+C)!/(A!B!C!) < 1/(2 pi) sqrt((A+B+C)/(ABC)) N^N/(A^A B^B C^C)

    and, with C omitted, the two-argument form with 1/sqrt(2 pi).  The left
    side is exact; the right side is enclosed with directed rounding and
    precision is escalated until the comparison is strict.
    """
    if A < 1 or B < 1 or (C is not None and C < 1):
        raise ValueError(f"arguments must be >= 1: {(A, B, C)}")
    if C is None:
        n = A + B
        lhs = Fraction(math.factorial(n), math.factorial(A) * math.factorial(B))
        power = Fraction(n ** n, A ** A * B ** B)
        radicand = Fraction(n, A * B)

        def rhs():
            return (rigor.iv_fraction(power) * iv.sqrt(rigor.iv_fraction(radicand))
                    / iv.sqrt(2 * iv.pi))
    else:
        n = A + B + C
        lhs = Fraction(math.factorial(n),
                       math.factorial(A) * math.factorial(B) * math.factorial(C))
        power = Fraction(n ** n, A ** A * B ** B * C ** C)
        radicand = Fraction(n, A * B * C)

        def rhs():
            return (rigor.iv_fraction(power) * iv.sqrt(rigor.iv_fraction(radicand))
                    / (2 * iv.pi))

    def lhs_builder():
        return rigor.iv_fraction(lhs)

    verdict = rigor.decide(lhs_builder, rhs)
    ok = verdict is rigor.Comparison.LESS
    # informational margin (digits of slack), not part of the certificate
    rhs_est = (_log10(power) + 0.5 * _log10(radicand)
               - (math.log10(2 * math.pi) if C is not None
                  else 0.5 * math.log10(2 * math.pi)))
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

    def pi_builder():
        return iv.pi

    def target_builder():
        return rigor.iv_fraction(target)

    return rigor.decide(pi_builder, target_builder) is rigor.Comparison.LESS
