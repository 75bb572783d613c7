"""Exact arithmetic in the ring of integers of Q(sqrt(-D)).

Elements are stored as (u + v*sqrt(-D))/2 with integer numerators u, v.
When D = 3 (mod 4) the ring contains genuine half-integers (u, v both odd);
otherwise u and v must both be even, i.e. the element lies in Z[sqrt(-D)].
All operations are pure and return canonical, validated values, so the ring
invariants can be checked after every step of a long computation.
"""

from __future__ import annotations

from math import isqrt


class QuadRingError(ValueError):
    pass


class SquareDError(QuadRingError):
    """D is a perfect square (the ring would not be an integral domain)."""


class ParityViolationError(QuadRingError):
    """Requested numerators do not represent an algebraic integer."""


class MixedDError(QuadRingError):
    """Operands live in different quadratic rings."""


class RingInvariantError(RuntimeError):
    """An exact halving left a remainder (internal bug)."""


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


class QuadInt:
    """An algebraic integer (u + v*sqrt(-D))/2 of Q(sqrt(-D))."""

    __slots__ = ("u", "v", "D")

    def __init__(self, u: int, v: int, D: int):
        if D <= 0:
            raise SquareDError(f"D must be a positive integer, got {D}")
        if _is_square(D):
            raise SquareDError(f"D must be a nonsquare, got {D}")
        if (u - v) % 2 != 0:
            raise ParityViolationError(
                f"numerators must share parity: u={u}, v={v}")
        if u % 2 != 0 and D % 4 != 3:
            # half-integers exist only when -D = 1 (mod 4)
            raise ParityViolationError(
                f"half-integral element needs D = 3 (mod 4), got D={D}")
        self.u = u
        self.v = v
        self.D = D

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, a: int, b: int, D: int) -> QuadInt:
        """The element a + b*sqrt(-D)."""
        return cls(2 * a, 2 * b, D)

    @classmethod
    def half(cls, u: int, v: int, D: int) -> QuadInt:
        """The element (u + v*sqrt(-D))/2."""
        return cls(u, v, D)

    @classmethod
    def from_int(cls, n: int, D: int) -> QuadInt:
        return cls(2 * n, 0, D)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other: int | QuadInt) -> QuadInt:
        if isinstance(other, int):
            return QuadInt.from_int(other, self.D)
        if isinstance(other, QuadInt):
            if other.D != self.D:
                raise MixedDError(f"mixed rings: D={self.D} vs D={other.D}")
            return other
        return NotImplemented

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: int | QuadInt) -> QuadInt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.u + o.u, self.v + o.v, self.D)

    __radd__ = __add__

    def __sub__(self, other: int | QuadInt) -> QuadInt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.u - o.u, self.v - o.v, self.D)

    def __rsub__(self, other: int | QuadInt) -> QuadInt:
        return (-self) + other

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.u, -self.v, self.D)

    def __mul__(self, other: int | QuadInt) -> QuadInt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # ((u1+v1*s)/2)((u2+v2*s)/2) with s^2 = -D; both halvings are exact
        # because the factors satisfy the parity invariant.
        uu = self.u * o.u - self.D * self.v * o.v
        vv = self.u * o.v + self.v * o.u
        if uu % 2 or vv % 2:
            raise RingInvariantError(f"odd product numerators ({uu}, {vv})")
        return QuadInt(uu // 2, vv // 2, self.D)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QuadInt:
        if e < 0:
            raise ValueError("negative powers leave the ring")
        result = QuadInt.from_int(1, self.D)
        base = self
        n = e
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> QuadInt:
        return QuadInt(self.u, -self.v, self.D)

    def norm(self) -> int:
        """The field norm (u^2 + D*v^2)/4, always an exact nonnegative integer."""
        n4 = self.u * self.u + self.D * self.v * self.v
        if n4 % 4:
            raise RingInvariantError(f"4 * norm = {n4} is not divisible by 4")
        return n4 // 4

    def exact_div(self, other: int | QuadInt) -> QuadInt | None:
        """self/other when the quotient lies in the ring, else None.

        Computed as self * conj(other) / norm(other) with an exact
        integrality check on both numerators and on the parity invariant.
        """
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot divide QuadInt by {type(other)!r}")
        if o.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        num = self * o.conj()
        d = o.norm()
        if num.u % d != 0 or num.v % d != 0:
            return None
        try:
            return QuadInt(num.u // d, num.v // d, self.D)
        except ParityViolationError:
            return None

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.v == 0 and self.u == 2 * other
        if isinstance(other, QuadInt):
            return (self.u, self.v, self.D) == (other.u, other.v, other.D)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.u, self.v, self.D))

    def __repr__(self) -> str:
        return f"QuadInt({self.u}, {self.v}, {self.D})"

    def __str__(self) -> str:
        if self.u % 2 == 0 and self.v % 2 == 0:
            a, b = self.u // 2, self.v // 2
            if b == 0:
                return str(a)
            return f"{a}{b:+d}√-{self.D}"
        return f"({self.u}{self.v:+d}√-{self.D})/2"
