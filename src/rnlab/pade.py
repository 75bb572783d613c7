"""Exact Pade approximants to (1-z)^k and the constants of their bounds.

One builder, _general_triple, gives every triple (P, Q, E) with

    P - (1-z)^(B+C+1) Q = (-1)^C z^(A+C+1) E,    A, B, C >= 0.

* The general three-parameter system (build_general, A, B, C >= 1) takes
  P and Q times (-1)^C, so that P - (1-z)^(B+C+1) Q = z^(A+C+1) E.
* The diagonal family (build_diagonal) has k = 5j, r = 4j - g, g in
  {0, 1}.  It is the unsigned triple at (A, B, C) = (r, j+g-1, r), so Q has
  positive coefficients and P - (1-z)^k Q = (-1)^r z^(2r+1) E.

Every builder returns its triple divided by c, the content of the raw Q
(PadeSystem.content).  Each part is its ratio loop started at the first
term divided by c, and every division is checked exact: once c divides
the first term, each step is exact exactly when c divides the next term,
so a remainder raises ContentViolationError.  The public builders re-verify
the identity on the stored triple: (1-z)^k Q = T, T = P - sign z^(A+C+1) E,
one product, and dividing both sides by c changes nothing.  As deg P = C <
A + C + 1, T is P, then zeros, then -sign E, with no subtraction.  The
content of the diagonal Q at g = 0 is 58 of its 278 bits at j = 32 and 111
of 526 at j = 60.  cross_constant reads the raw constant of two verified
systems off their identities with no product.  The audit checks its
systems at z0 instead (see rnlab.decomposer).

Each coefficient sequence is a product of two binomials, a hypergeometric
term: t_(i+1)/t_i is a rational function of i (Petkovsek, Wilf and
Zeilberger, A = B, 1996), so it is built by one exact ratio recurrence.
(1-z)^k for the identity check is built the same way, c_(i+1) = -c_i
(k-i)/(i+1).

IntPolynomial multiplies by Kronecker substitution: a factor with
coefficients a_i is packed into the one integer sum a_i 2^(w i), with
byte-aligned slots of w bits chosen so that w exceeds the bit length of
the largest possible product coefficient plus a sign bit; one big-integer
product then holds every coefficient of the product polynomial in its own
slot, and a bias of 2^(w-1) per slot lets each be read back independently.

Above a size cutoff the product c = a b is made at four points instead of
one (multipoint Kronecker substitution: Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput.
2009; Gaussian points as in Schoenhage 1982).  Split a into its
coefficient classes mod 4, a(y) = sum_r y^r A_r(y^4), r = 0..3, and let x
= 2^(w/4), so that x^4 = 2^w.  Each A_r(2^w) is one packing at slot width
w, of a quarter of the coefficients, and a(x), a(-x) and a(ix) = a(-ix)
conjugated are those four packings joined by shifts of multiples of w/4.
The values c(x) = a(x) b(x) and c(-x) take two integer products of a
quarter of the one-point size, and the Gaussian c(ix) three (the real
part rr - ii and the cross term (ar + ai)(br + bi) - rr - ii).  A size-4
DFT with exact halvings gives x^r C_r(2^w) for each class r, and C_r reads
back at slot width w as before.  Five products of a quarter size cost
about 5 / 4^1.585 = 0.56 of one under CPython's Karatsuba.  Below the
cutoff (_FOUR_POINT_BITS) the eight packings and four read-backs cost
more than that saves, and the one-point product stays.

eval_at_z0 computes beta^d f(lambda/beta) = sum c_i lambda^i beta^(d-i) in
the quadratic ring, with lambda = beta - conj(beta) formed from beta
itself.  It sums by binary splitting: the partial sum T(lo, hi) over the
coefficients lo <= i < hi, scaled to beta^(hi-1-i), is put together from
its halves as T(lo, mid) beta^(hi-mid) + lambda^(mid-lo) T(mid, hi).  The
halves have about equal sizes, so the work is O(M(S) log d) for a result
of S bits, against Theta(d S) for Horner's rule (Bernstein, "Fast
multiplication and its applications", 2008).  The splits use only about
two lengths per level, and the beta and lambda powers of those lengths
are memoized per call.  A range of at most _HORNER_RUN coefficients is
summed by Horner's rule, times beta per step, with its lambda powers
memoized too: there the operands are small, and a product by beta costs
less than a split.  Values travel as numerator pairs (u, v) of
(u + v sqrt(-D))/2, and one validated QuadInt is built at the end.

starred_at_z0 is the one place that assembles beta^k P*(z0) - conj(beta)^k
Q*(z0) at z0 = lambda/beta, for the identity check and the chain audit.

BOUNDS holds the paper's bound constants; the checks that read them are
in rnlab.bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

from .quadring import QuadInt


class PadeError(RuntimeError):
    pass


class IdentityViolationError(PadeError):
    """A constructed triple failed its defining identity (internal bug)."""


class ContentViolationError(PadeError):
    """Dividing a triple by its content was not exact."""


class NotMonomialError(PadeError):
    """A cross-product residual had coefficients off the expected monomial."""


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


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The n signed coefficients of a packing at slot width 8*width bits,
    each of absolute value below 2^(8*width - 1)."""
    # add 2^(8*width - 1) to every slot so that each slot is a
    # nonnegative integer below 2^(8*width) and reads back on its own
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (packed + bias).to_bytes(n * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, n * width, width)]


# The four-point product pays once the smaller factor packs into about
# 12 000 bits.  Measured on CPython 3.11 (2 cores), the two products tie
# within 10% at 12 000-13 600 bits, for balanced factors of 4 to 100
# coefficients alike; from 18 000 bits on the four-point one is 1.2 to 1.9
# times faster, for lopsided factors (300 x 3 to 2000 x 30) too.  Below
# the cutoff its eight packings and four read-backs cost more than the
# quarter-size products save, as below CPython's own Karatsuba cutoff.
_FOUR_POINT_BITS = 12_000


def _layout(a, b) -> tuple[int, bool]:
    """(width, four_points) for the product of the nonempty coefficient
    sequences a and b: the slot width in bytes, and whether the product is
    made at four points."""
    # |product coefficient| <= min(len) * max|a| * max|b| < 2^(bits - 2),
    # which leaves the slot a spare bit and a sign bit
    shorter = min(len(a), len(b))
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + shorter.bit_length() + 2)
    width = (bits + 7) // 8
    return width, shorter * 8 * width >= _FOUR_POINT_BITS


def _four_point(a, b, width: int, n: int) -> list[int]:
    """The n coefficients of a*b from its values at x, -x, ix and -ix,
    x = 2^(2*width) (see the module docstring)."""
    q = 2 * width  # x = 2^q, and x^4 = 2^(8*width) is the slot base

    def values(cs):
        # a(x), a(-x), and the real and imaginary parts of a(ix)
        c0, c1, c2, c3 = (_pack(cs[r::4], width) for r in range(4))
        even, odd = c0 + (c2 << 2 * q), (c1 << q) + (c3 << 3 * q)
        return (even + odd, even - odd, c0 - (c2 << 2 * q),
                (c1 << q) - (c3 << 3 * q))

    ap, am, ar, ai = values(a)
    bp, bm, br, bi = values(b)
    plus, minus = ap * bp, am * bm
    # c(ix) = (ar + i ai)(br + i bi) by three products
    rr, ii = ar * br, ai * bi
    re, im = rr - ii, (ar + ai) * (br + bi) - rr - ii
    # size-4 DFT: c(x) + c(-x) = 2 (C0 + x^2 C2), c(x) - c(-x) = 2 (x C1 +
    # x^3 C3), c(ix) = C0 - x^2 C2 + i (x C1 - x^3 C3); every halving and
    # every shift by a power of x below is exact
    even, odd = (plus + minus) >> 1, (plus - minus) >> 1
    classes = ((even + re) >> 1, (odd + im) >> (1 + q),
               (even - re) >> (1 + 2 * q), (odd - im) >> (1 + 3 * q))
    out = [0] * n
    for r, packed in enumerate(classes):
        if r < n:
            out[r::4] = _unpack(packed, (n - r + 3) // 4, width)
    return out


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
        """Product by Kronecker substitution at one point, or at four
        above _FOUR_POINT_BITS (see the module docstring); a scalar
        multiplies each coefficient."""
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        width, four_points = _layout(a, b)
        n = len(a) + len(b) - 1
        if four_points:
            return IntPolynomial._of(_four_point(a, b, width, n))
        return IntPolynomial._of(
            _unpack(_pack(a, width) * _pack(b, width), n, width))

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


class _PadeFields(NamedTuple):
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


class PadeSystem(_PadeFields):
    """A matched (P, Q, E) triple approximating (1-z)^k, k = B + C + 1,
    with P - (1-z)^k Q = sign z^(A+C+1) E.

    kind is "general" (sign +1) or "diagonal" (params j, g with k = 5j,
    r = 4j - g, built at (A, B, C) = (r, j+g-1, r), sign (-1)^r).  content
    is the content of the raw Q, which the builders divide out of P, Q and
    E (c_g(j) for a diagonal system): the raw triple is content times the
    stored one.  A triple given as is keeps content 1.  No __slots__: the
    identity verdict is memoized in the instance dict, which _replace does
    not copy.
    """

    # cached_property writes the instance dict directly, not through this
    def __setattr__(self, name, value):
        raise AttributeError(f"PadeSystem is immutable: cannot set {name}")

    @property
    def k(self) -> int:
        return self.B + self.C + 1

    @property
    def r(self) -> int:
        return self.A

    def identity_sign(self) -> int:
        return -1 if (self.kind == "diagonal" and self.r % 2 == 1) else 1

    def remainder_degree(self) -> int:
        return self.A + self.C + 1

    def _t(self) -> IntPolynomial:
        """T = P - sign z^m E, m = A + C + 1, with no product: P below z^m
        and -sign E from z^m on, added where a P of degree m or more
        reaches it."""
        m, sign = self.remainder_degree(), self.identity_sign()
        P, E = self.P.coeffs, self.E.coeffs
        t = list(P) + [0] * (m + len(E) - len(P))
        for i, e in enumerate(E, m):
            t[i] -= sign * e
        return IntPolynomial._of(t)

    @cached_property
    def _identity(self) -> bool:
        return one_minus_z_pow(self.k) * self.Q == self._t()

    def identity_holds(self) -> bool:
        """Whether (1-z)^k Q = P - sign z^(A+C+1) E, decided once per
        system by one product on the stored triple; the raw triple, content
        times it, satisfies the identity exactly when it does."""
        return self._identity


def _run(first: int, ratios, c: int) -> list[int] | None:
    """[t_0/c, t_1/c, ...] for the terms t_(i+1) = t_i num/den, (num, den)
    in ratios, or None when a division, by c or by a den, is not exact."""
    t, rem = divmod(first, c)
    out = [t]
    for num, den in ratios:
        if rem:
            return None
        t, rem = divmod(t * num, den)
        out.append(t)
    return None if rem else out


def _q_ratios(A: int, B: int, C: int) -> list[tuple[int, int]]:
    """The term ratios q_(i+1)/q_i = (A-i)(B+i+1) / ((i+1)(A+C-i))."""
    return [((A - i) * (B + i + 1), (i + 1) * (A + C - i)) for i in range(A)]


def _q_coeffs(A: int, B: int, C: int) -> list[int]:
    """The coefficients q_i = C(A+C-i, C) C(B+i, i) of _general_triple's
    raw Q."""
    return _run(math.comb(A + C, C), _q_ratios(A, B, C), 1)


def _content(A: int, B: int, C: int) -> int:
    """The content of _general_triple's raw Q: the gcd of its q_i."""
    return math.gcd(*_q_coeffs(A, B, C))


def _general_triple(A: int, B: int, C: int, c: int):
    """(P/c, Q/c, E/c) for the raw (P, Q, E) with P - (1-z)^(B+C+1) Q =
    (-1)^C z^(A+C+1) E, A,B,C >= 0, and a c > 0 that divides all three:
    p_i = (-1)^i C(s, i) C(A+C-i, A), q_i = C(A+C-i, C) C(B+i, i) and
    e_i = (-1)^i C(A+i, i) C(s, A+C+1+i), where s = A + B + C + 1.

    Each part is one loop over its term ratio t_(i+1)/t_i = num/den from
    t_0/c.  If c divides t_i and t_(i+1), then (t_i/c) num = (t_(i+1)/c)
    den, so the step is exact; if c divides t_i but not t_(i+1), it is
    not.  A remainder raises ContentViolationError naming the part.  The
    builders pass the content of Q, which only P or E can fail, so those
    two come first."""
    s = A + B + C + 1
    parts = {
        "P": (math.comb(A + C, A),
              [(-(s - i) * (C - i), (i + 1) * (A + C - i)) for i in range(C)]),
        "E": (math.comb(s, A + C + 1),
              [(-(A + i + 1) * (B - i), (i + 1) * (A + C + 2 + i))
               for i in range(B)]),
        "Q": (math.comb(A + C, C), _q_ratios(A, B, C)),
    }
    out = {}
    for name, (first, ratios) in parts.items():
        terms = _run(first, ratios, c)
        if terms is None:
            raise ContentViolationError(
                f"content {c} does not divide {name} at (A, B, C) = "
                f"{(A, B, C)}")
        out[name] = IntPolynomial._of(terms)
    return out["P"], out["Q"], out["E"]


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
    (-1)^C, divided by the content of Q."""
    if min(A, B, C) < 1:
        raise ValueError(f"parameters must be >= 1: {(A, B, C)}")
    c = _content(A, B, C)
    P, Q, E = _general_triple(A, B, C, c)
    if C % 2:
        P, Q = -P, -Q
    return _verified(PadeSystem("general", A, B, C, P, Q, E, c), (A, B, C))


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
    (A, B, C) = (r, j+g-1, r), so that Q has positive coefficients, divided
    by c_g(j).  Only deg E = B is checked (for the audit; see
    rnlab.decomposer)."""
    A, B, C = _diagonal_params(j, g)
    c = _content(A, B, C)
    P, Q, E = _general_triple(A, B, C, c)
    return _degree_checked(
        PadeSystem("diagonal", A, B, C, P, Q, E, c, j=j, g=g), (j, g))


def build_diagonal(j: int, g: int) -> PadeSystem:
    """The diagonal system at (j, g), once its identity holds exactly."""
    return _verified(_unverified_diagonal(j, g), (j, g))


def content(j: int, g: int) -> int:
    """c_g(j): gcd of the diagonal Q coefficients (binomial products)."""
    return _content(*_diagonal_params(j, g))


def normalize(sys: PadeSystem) -> PadeSystem:
    """The starred diagonal system: every builder already divides its
    triple by c_g(j), so sys is returned as it is."""
    if sys.kind != "diagonal":
        raise ValueError("only diagonal systems are normalized")
    return sys


def _at_zero(poly: IntPolynomial) -> int:
    return poly.coeffs[0] if poly.coeffs else 0


def cross_constant(sys_r: PadeSystem, sys_r1: PadeSystem) -> int:
    """The constant c in P_r Q_{r+1} - Q_r P_{r+1} = c z^(2r+1), for the
    raw triples: the residual of the stored ones times both contents.

    Both systems must share k and have adjacent degrees r and r + 1.  The
    residual is formed by its definition, two products on the stored
    triples, so a corrupt system gets its exact residual too.  It must be a
    nonzero monomial of the expected degree.

    With s, m each system's sign and remainder degree, once both identities
    P = (1-z)^k Q + s z^m E hold the (1-z)^k Q_r Q_(r+1) terms cancel, and
    the residual is s_r z^m_r E_r Q_(r+1) - s_(r+1) z^m_(r+1) E_(r+1) Q_r.
    If also m_r < m_(r+1) and the residual's degree is at most m_r, it is
    divisible by z^m_r and so equals c z^m_r with c = s_r E_r(0)
    Q_(r+1)(0); a nonzero c is returned with no product (pade verify's
    path).  Every other pair takes the two products.
    """
    if sys_r.k != sys_r1.k:
        raise ValueError(f"mismatched k: {sys_r.k} vs {sys_r1.k}")
    if sys_r1.r != sys_r.r + 1:
        raise ValueError(f"degrees must be adjacent: {sys_r.r}, {sys_r1.r}")
    expected = sys_r.remainder_degree()
    scale = sys_r.content * sys_r1.content
    if (max(sys_r.P.degree + sys_r1.Q.degree,
            sys_r.Q.degree + sys_r1.P.degree)
            <= expected < sys_r1.remainder_degree()
            and sys_r.identity_holds() and sys_r1.identity_holds()):
        c = sys_r.identity_sign() * _at_zero(sys_r.E) * _at_zero(sys_r1.Q)
        if c:
            return c * scale
    residual = sys_r.P * sys_r1.Q - sys_r.Q * sys_r1.P
    if residual.is_zero() or residual.degree != expected:
        raise NotMonomialError(
            f"residual degree {residual.degree}, expected {expected}")
    if any(c != 0 for c in residual.coeffs[:-1]):
        raise NotMonomialError("residual is not a monomial")
    return residual.coeffs[-1] * scale


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


# eval_at_z0 sums each range of at most this many coefficients by Horner's
# rule.  Against splitting down to single coefficients, 16 cut the six
# evaluations of an audit of (76, 101, 1015, 3) by 28-31% at n = 300 to
# 3600 (CPython 3.11, 2 cores); 8 gained 2-4 points less, and 32 as much
# as 16 within 4%.
_HORNER_RUN = 16


def eval_at_z0(poly: IntPolynomial, beta: QuadInt,
               deg_scale: int) -> QuadInt:
    """beta^deg_scale * poly(lambda/beta), computed exactly as a QuadInt.

    lambda = beta - conj(beta), the numerator pair (0, 2 beta.v):
    2*sqrt(-D) for an integral beta, sqrt(-D) for the half-integral one of
    p = 2.  The sum of c_i lambda^i beta^(deg_scale - i) is formed by
    binary splitting (see the module docstring).
    """
    if deg_scale < poly.degree:
        raise ValueError(f"deg_scale {deg_scale} < degree {poly.degree}")
    D = beta.D
    cs = poly.coeffs
    if not cs:
        return QuadInt.from_int(0, D)
    b = (beta.u, beta.v)
    beta_pow = _power_table(b, D)
    lam_pow = _power_table((0, 2 * beta.v), D)

    def split(lo: int, hi: int) -> tuple[int, int]:
        # sum of c_i lambda^(i-lo) beta^(hi-1-i) over lo <= i < hi
        if hi - lo <= _HORNER_RUN:
            u, v = 2 * cs[lo], 0
            for i in range(lo + 1, hi):
                (u, v), (lu, lv) = _qmul((u, v), b, D), lam_pow(i - lo)
                u, v = u + cs[i] * lu, v + cs[i] * lv
            return u, v
        mid = (lo + hi) // 2
        lu, lv = _qmul(split(lo, mid), beta_pow(hi - mid), D)
        ru, rv = _qmul(lam_pow(mid - lo), split(mid, hi), D)
        return lu + ru, lv + rv

    # the zero coefficients above the degree contribute only a beta power
    u, v = _qmul(split(0, len(cs)), beta_pow(deg_scale + 1 - len(cs)), D)
    return QuadInt(u, v, D)


def starred_at_z0(sys: PadeSystem, beta: QuadInt):
    """(P*(z0), Q*(z0), A, ok) for a starred diagonal system at lambda/beta,
    lambda = beta - conj(beta): A = beta^k P*(z0) - conj(beta)^k Q*(z0),
    and ok says whether A equals the remainder (-1)^r lambda^(2r+1)
    beta^(k-2r-1) E*(z0).  All four are scaled by beta^r so that every
    term is an algebraic integer."""
    k, r = sys.k, sys.r
    ev_p = eval_at_z0(sys.P, beta, r)
    ev_q = eval_at_z0(sys.Q, beta, r)
    ev_e = eval_at_z0(sys.E, beta, k - r - 1)
    beta_k = beta ** k  # conj(beta)^k = conj(beta^k)
    assembled = beta_k * ev_p - beta_k.conj() * ev_q
    lam = beta - beta.conj()
    remainder = sys.identity_sign() * (lam ** (2 * r + 1)) * ev_e
    return ev_p, ev_q, assembled, assembled == remainder


def assembled_identity_holds(j: int, g: int, beta: QuadInt) -> bool:
    """Exact check of the starred identity at (j, g) evaluated at z0
    (see starred_at_z0)."""
    return starred_at_z0(build_diagonal(j, g), beta)[3]


# ---------------------------------------------------------------------------
# literal constants attached to the bounds


class BoundConstants(NamedTuple):
    """The paper's bound constants: every check and report reads them here."""

    q_coeff: Fraction = Fraction("0.308")
    q_base: Fraction = Fraction("89.3445")
    e_coeff: Fraction = Fraction("0.377")
    e_base: Fraction = Fraction("7.847")
    kernel_max: Fraction = Fraction("0.044479")
    kernel_integral: Fraction = Fraction("0.114552")
    b_min: Fraction = Fraction("0.953")


BOUNDS = BoundConstants()
